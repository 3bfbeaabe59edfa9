"""Engine bench: reference vs lishi DP, head-to-head and at scale.

Two entry points:

* standalone script (what CI runs in ``--smoke`` mode)::

      PYTHONPATH=src python benchmarks/bench_engines.py           # full
      PYTHONPATH=src python benchmarks/bench_engines.py --smoke   # quick CI

  Three measurements:

  1. **Head-to-head** — one 500-sink net (60 in smoke) with an 8-buffer
     library, timed under both engines in delay and noise-aware modes.
     Lishi is held to *semantic equivalence* with the reference (equal
     outcome sets, slacks within the documented 1e-9 relative
     tolerance, equal noise verdicts — see
     ``tests/core/equivalence.py``).  The full run asserts the lishi
     engine is >= 4x over the reference in delay mode.
  2. **Seeded regression family** — the 200-net generated workload
     (24 in smoke) run through :class:`~repro.batch.BatchOptimizer`:
     both engines' fleets must come back certificate-clean on every
     net.
  3. The **no-overhead-when-off** facade gate (unchanged).

  The full run writes ``BENCH_engines.json`` at the repo root: both
  engines' timings, the speedup ratio, and git SHA / seed attribution,
  so engine-perf trajectories stay diffable across PRs.

* pytest bench (rides the existing suite)::

      pytest benchmarks/bench_engines.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import random
import sys
from time import perf_counter

from repro.batch import BatchConfig, BatchOptimizer, SerialExecutor
from repro.core.dp import DPOptions, run_dp
from repro.core.objective import Objective
from repro.library.buffers import default_buffer_library
from repro.library.cells import DriverCell
from repro.library.technology import default_technology
from repro.noise.coupling import CouplingModel
from repro.tree.builder import TreeBuilder
from repro.units import FF, MM
from repro.workloads import WorkloadConfig, population_specs

BUFFOPT = Objective.legacy("buffopt")

#: the 8-cell library the head-to-head runs under (6 buffers, 2 inverters).
EIGHT_BUFFER_NAMES = (
    "buf_x1", "buf_x2", "buf_x4", "buf_x8",
    "buf_x16", "buf_x32", "inv_x2", "inv_x4",
)

MODES = ("delay", "buffopt")
ENGINE_ORDER = ("reference", "lishi")
#: full-run bar for lishi over the reference in delay mode.
LISHI_DELAY_SPEEDUP_BAR = 4.0

#: semantic-equivalence tolerance, mirrored from tests/core/equivalence.py.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def chain_net(sinks: int, seed: int = 19981101):
    """A ``sinks``-sink spine: one stub sink per segment, paper-style."""
    rng = random.Random(seed)
    builder = TreeBuilder(default_technology())
    builder.add_source("src", driver=DriverCell("drv", 120.0))
    previous = "src"
    for index in range(sinks):
        internal = f"n{index}"
        builder.add_internal(internal)
        builder.add_wire(
            previous, internal, length=rng.uniform(0.05 * MM, 0.4 * MM)
        )
        sink = f"s{index}"
        builder.add_sink(
            sink,
            capacitance=rng.uniform(2 * FF, 40 * FF),
            required_arrival=rng.uniform(0.5, 3.0),
            noise_margin=rng.uniform(0.3, 1.2),
        )
        builder.add_wire(internal, sink, length=rng.uniform(0.05 * MM, 0.3 * MM))
        previous = internal
    return builder.build(f"chain{sinks}")


def _outcome_map(result):
    return {
        o.buffer_count: (o.slack, o.noise_feasible) for o in result.outcomes
    }


def assert_semantically_equal(reference, other, context):
    """The lishi contract: equal selections within the float tolerance."""
    ref_map = _outcome_map(reference)
    other_map = _outcome_map(other)
    assert ref_map.keys() == other_map.keys(), (
        f"{context}: outcome count sets differ: "
        f"{sorted(ref_map)} vs {sorted(other_map)}"
    )
    for count, (ref_slack, ref_feasible) in ref_map.items():
        other_slack, other_feasible = other_map[count]
        assert math.isclose(
            ref_slack, other_slack, rel_tol=REL_TOL, abs_tol=ABS_TOL
        ), (
            f"{context}: slack diverged at count {count}: "
            f"{ref_slack!r} vs {other_slack!r}"
        )
        assert ref_feasible == other_feasible, (
            f"{context}: noise feasibility diverged at count {count}"
        )


def head_to_head(sinks: int, repeats: int):
    """Best-of-``repeats`` timings per (mode, engine) on one big net.

    Returns ``{mode: {engine: seconds}}``; asserts lishi's semantic
    equivalence (raises AssertionError on divergence — that is the
    whole point).
    """
    library = default_buffer_library().restricted(list(EIGHT_BUFFER_NAMES))
    coupling = CouplingModel.estimation_mode(default_technology())
    tree = chain_net(sinks)
    timings = {}
    for mode in MODES:
        noise_aware = mode == "buffopt"
        results = {}
        seconds = {}
        for engine in ENGINE_ORDER:
            options = DPOptions(
                noise_aware=noise_aware,
                track_counts=True,
                max_buffers=4,
                engine=engine,
            )
            best = float("inf")
            for _ in range(repeats):
                start = perf_counter()
                result = run_dp(tree, library, coupling, options)
                best = min(best, perf_counter() - start)
            results[engine] = result
            seconds[engine] = best
        assert_semantically_equal(
            results["reference"], results["lishi"], f"{mode} [lishi]"
        )
        timings[mode] = seconds
    return timings


def overhead_gate(sinks: int, repeats: int, budget: float = 0.02) -> bool:
    """The no-overhead-when-off contract, measured and gated.

    Baseline is the raw ``run_dp`` call; the candidate is the
    :func:`repro.api.dp_result` facade with all instrumentation
    disabled — it must stay within ``budget`` (2 %) of the baseline,
    best-of-``repeats`` each, interleaved to even out thermal drift.
    The run with per-phase timing on (``collect_stats=True``) is
    measured and reported alongside (not gated) so regressions in
    *enabled* overhead stay visible too.
    """
    from repro.api import dp_result

    library = default_buffer_library().restricted(list(EIGHT_BUFFER_NAMES))
    coupling = CouplingModel.estimation_mode(default_technology())
    tree = chain_net(sinks)
    options = DPOptions(
        noise_aware=True, track_counts=True, max_buffers=4,
        engine="reference",
    )
    raw_best = facade_best = traced_best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        raw = run_dp(tree, library, coupling, options)
        raw_best = min(raw_best, perf_counter() - start)

        start = perf_counter()
        plain = dp_result(
            tree, library, coupling, objective=BUFFOPT, max_buffers=4
        )
        facade_best = min(facade_best, perf_counter() - start)

        start = perf_counter()
        traced = dp_result(
            tree, library, coupling, objective=BUFFOPT, max_buffers=4,
            collect_stats=True,
        )
        traced_best = min(traced_best, perf_counter() - start)

    assert raw.outcomes == plain.outcomes == traced.outcomes, (
        "facade/timed runs diverged from the raw engine"
    )
    overhead = facade_best / raw_best - 1.0
    traced_overhead = traced_best / raw_best - 1.0
    print(
        f"facade overhead (obs disabled): {overhead * 100:+5.2f}% "
        f"(gate: <= {budget * 100:.0f}%)   "
        f"phase-timed: {traced_overhead * 100:+5.2f}% (reported only)"
    )
    if overhead > budget:
        print(
            f"FAIL: disabled-instrumentation facade overhead "
            f"{overhead * 100:.2f}% exceeds the {budget * 100:.0f}% budget "
            f"on the {sinks}-sink net",
            file=sys.stderr,
        )
        return False
    return True


def regression_family(nets: int, seed: int):
    """Both engines over the seeded fleet; returns True if OK.

    Every net of both fleets is independently certified (lishi's
    signatures may legally differ from the reference's in the last
    float digits, so certification — not signature equality — is the
    gate here; the semantic-equivalence comparison runs in the
    head-to-head and the test suite).
    """
    workload = WorkloadConfig(nets=nets, seed=seed)
    specs = population_specs(workload)
    ok = True
    for mode in MODES:
        certified = {}
        for engine in ENGINE_ORDER:
            optimizer = BatchOptimizer(
                config=BatchConfig(
                    objective=Objective.legacy(mode),
                    max_buffers=4,
                    keep_trees=False,
                    certify=True,
                    engine=engine,
                ),
                executor=SerialExecutor(),
                workload=workload,
            )
            report = optimizer.optimize_specs(specs)
            certified[engine] = report.certified_count
        for engine in ENGINE_ORDER:
            if certified[engine] != nets:
                print(
                    f"FAIL: {mode}: {engine} certification not clean "
                    f"({certified[engine]}/{nets})",
                    file=sys.stderr,
                )
                ok = False
        if ok:
            print(f"{mode}: both engines {nets}/{nets} certificate-clean")
    return ok


def write_artifact(path, sinks, repeats, seed, timings, smoke):
    """Persist both engines' timings + ratio with git/seed attribution."""
    from conftest import _git_sha

    modes = {}
    for mode, seconds in timings.items():
        reference_s = seconds["reference"]
        lishi_s = seconds["lishi"]
        modes[mode] = {
            "reference_ms": round(reference_s * 1e3, 3),
            "lishi_ms": round(lishi_s * 1e3, 3),
            "speedup_lishi_over_reference": round(reference_s / lishi_s, 3),
        }
    artifact = {
        "kind": "engine-bench",
        "sinks": sinks,
        "library": list(EIGHT_BUFFER_NAMES),
        "repeats": repeats,
        "seed": seed,
        "smoke": smoke,
        "git_sha": _git_sha(),
        "modes": modes,
    }
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sinks", type=int, default=500)
    parser.add_argument("--nets", type=int, default=200)
    parser.add_argument("--seed", type=int, default=19981101)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parents[1]
        / "BENCH_engines.json",
        help="where the full run writes its JSON artifact",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small net + fleet, correctness-only (CI gate, no perf "
        "assertions, no artifact)",
    )
    args = parser.parse_args(argv)

    sinks = 60 if args.smoke else args.sinks
    nets = 24 if args.smoke else args.nets
    repeats = 2 if args.smoke else args.repeats

    print(f"engine bench: {sinks}-sink chain, 8-buffer library, "
          f"best of {repeats}")
    timings = head_to_head(sinks, repeats)
    for mode, seconds in timings.items():
        print(
            f"{mode:8s}: reference {seconds['reference'] * 1e3:9.2f} ms   "
            f"lishi {seconds['lishi'] * 1e3:9.2f} ms   "
            f"({seconds['reference'] / seconds['lishi']:.2f}x)"
        )
    print("head-to-head: lishi semantically equivalent, both modes")

    if not overhead_gate(sinks, max(repeats, 5)):
        return 1

    if not regression_family(nets, args.seed):
        return 1

    if args.smoke:
        return 0

    write_artifact(args.out, sinks, repeats, args.seed, timings, args.smoke)
    delay = timings["delay"]
    speedup = delay["reference"] / delay["lishi"]
    if speedup < LISHI_DELAY_SPEEDUP_BAR:
        print(
            f"FAIL: lishi engine delay-mode speedup {speedup:.2f}x over "
            f"the reference is under the {LISHI_DELAY_SPEEDUP_BAR:g}x bar "
            f"on the {sinks}-sink net",
            file=sys.stderr,
        )
        return 1
    return 0


# -- pytest-benchmark integration (shares the suite's fixtures) ------------


def test_lishi_engine_head_to_head(benchmark, results_dir):
    from conftest import write_result

    library = default_buffer_library().restricted(list(EIGHT_BUFFER_NAMES))
    coupling = CouplingModel.estimation_mode(default_technology())
    tree = chain_net(120)
    options = dict(noise_aware=False, track_counts=True, max_buffers=4)

    lishi = benchmark(
        lambda: run_dp(
            tree, library, coupling, DPOptions(engine="lishi", **options)
        )
    )
    start = perf_counter()
    reference = run_dp(
        tree, library, coupling, DPOptions(engine="reference", **options)
    )
    reference_s = perf_counter() - start
    assert_semantically_equal(reference, lishi, "bench [lishi]")

    text = "\n".join([
        "lishi engine bench (120-sink chain, delay, 8-buffer library)",
        f"reference: {reference_s * 1e3:8.2f} ms (single run)",
        "lishi:     see pytest-benchmark stats",
    ])
    write_result(results_dir, "engines_lishi.txt", text)


if __name__ == "__main__":
    raise SystemExit(main())
