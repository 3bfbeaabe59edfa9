#!/usr/bin/env python
"""Repair a multi-sink Steiner net three ways and compare.

Builds a 6-sink rectilinear Steiner net spanning several millimeters,
then:

* **Algorithm 2** — minimum-buffer noise avoidance (continuous buffer
  positions; timing is ignored);
* **DelayOpt** — Van Ginneken slack-optimal buffering (noise is ignored);
* **BuffOpt / Algorithm 3** — fewest buffers meeting *both* noise and
  timing.

The detailed transient verifier then adjudicates all three, reproducing
the paper's qualitative result: DelayOpt may stay noisy, the noise-aware
flows never do, and BuffOpt pays almost nothing in delay for it.

Run:  python examples/multi_sink_repair.py
"""

from repro import (
    CouplingModel,
    DriverCell,
    SinkSite,
    analyze_noise,
    buffopt_min_buffers,
    default_buffer_library,
    default_technology,
    insert_buffers_multi_sink,
    optimize_delay,
    segment_tree,
    steiner_tree,
)
from repro.analysis import DetailedNoiseAnalyzer
from repro.timing import max_sink_delay, source_slack
from repro.units import FF, MM, NS, PS, UM, format_time


def build_net(technology):
    sites = [
        SinkSite("alu_a", (5.5 * MM, 1.0 * MM), 22 * FF, 0.8, 1.5 * NS),
        SinkSite("alu_b", (6.0 * MM, 2.5 * MM), 15 * FF, 0.8, 1.5 * NS),
        SinkSite("lsu", (4.0 * MM, 5.0 * MM), 28 * FF, 0.8, 1.5 * NS),
        SinkSite("fpu", (1.5 * MM, 6.0 * MM), 15 * FF, 0.8, 1.5 * NS),
        SinkSite("dec", (2.5 * MM, 3.0 * MM), 8 * FF, 0.8, 1.5 * NS),
        SinkSite("rob", (0.5 * MM, 4.0 * MM), 15 * FF, 0.8, 1.5 * NS),
    ]
    driver = DriverCell("drv_x8", resistance=120.0, intrinsic_delay=30 * PS)
    return steiner_tree(technology, (0.0, 0.0), sites, driver=driver,
                        name="dispatch_bus")


def main() -> None:
    technology = default_technology()
    library = default_buffer_library()
    coupling = CouplingModel.estimation_mode(technology)
    analyzer = DetailedNoiseAnalyzer.estimation_mode(technology)

    raw = build_net(technology)
    print(f"net {raw.name}: {len(raw.sinks)} sinks, "
          f"{raw.total_wire_length() * 1e3:.2f} mm of wire")
    before = analyze_noise(raw, coupling)
    print(f"before: {len(before.violations)} metric violations, "
          f"unbuffered delay {format_time(max_sink_delay(raw))}\n")

    # --- Algorithm 2: pure noise avoidance, continuous positions ---------
    alg2 = insert_buffers_multi_sink(raw, library, coupling)
    tree2, solution2 = alg2.realize()
    report2 = analyzer.analyze(tree2, solution2.buffer_map())
    print(f"Algorithm 2: {alg2.buffer_count} buffers, "
          f"detailed verifier violations: {len(report2.violations)}, "
          f"delay {format_time(max_sink_delay(tree2, solution2.buffer_map()))}")

    # --- discrete flows share one segmented tree -------------------------
    tree = segment_tree(raw, 500 * UM)

    delay_only = optimize_delay(tree, library)
    noisy = analyze_noise(tree, coupling, delay_only.buffer_map())
    print(f"DelayOpt:    {delay_only.buffer_count} buffers, "
          f"metric violations: {len(noisy.violations)}, "
          f"delay {format_time(max_sink_delay(tree, delay_only.buffer_map()))}, "
          f"slack {format_time(source_slack(tree, delay_only.buffer_map()))}")

    buffopt = buffopt_min_buffers(tree, library, coupling)
    clean = analyzer.analyze(tree, buffopt.buffer_map())
    print(f"BuffOpt:     {buffopt.buffer_count} buffers, "
          f"detailed verifier violations: {len(clean.violations)}, "
          f"delay {format_time(max_sink_delay(tree, buffopt.buffer_map()))}, "
          f"slack {format_time(source_slack(tree, buffopt.buffer_map()))}")

    # Apples to apples (the Table IV methodology): rerun DelayOpt limited
    # to the same number of buffers BuffOpt chose.
    from repro.api import Objective, dp_result
    from repro.core import best_within_count

    matched = best_within_count(
        dp_result(
            tree, library, objective=Objective.legacy("delay"),
            max_buffers=buffopt.buffer_count,
        ),
        buffopt.buffer_count,
    )
    d_matched = max_sink_delay(tree, matched.buffer_map())
    d_buff = max_sink_delay(tree, buffopt.buffer_map())
    print(f"\nDelayOpt({buffopt.buffer_count}) matched-count delay: "
          f"{format_time(d_matched)}")
    print(f"delay penalty of noise awareness at matched buffer count: "
          f"{(d_buff - d_matched) / d_matched * 100:.2f} % "
          "(the paper reports < 2 % on average)")

    assert not report2.violated and not clean.violated
    print("noise-aware flows are clean under detailed verification.")


if __name__ == "__main__":
    main()
