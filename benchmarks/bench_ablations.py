"""Ablation benches for the design choices DESIGN.md calls out.

1. **Pruning rule** — the paper prunes candidates on (load, slack) only;
   the 4-field Pareto alternative keeps more candidates.  Measures both
   and asserts the quality relation (Pareto never worse, never cheaper).
2. **Wire segmenting granularity** — the Alpert–Devgan quality/run-time
   trade-off: finer segmentation weakly improves slack and monotonically
   grows the DP size.
3. **Smallest-resistance reduction** — Algorithms 1/2 with a full library
   must match the single min-R buffer run exactly.
4. **Single- vs multi-buffer optimality gap** — Theorem 5 guarantees
   optimality for |B| = 1; measures the empirical delay gap of the
   11-buffer library against its best single-buffer sub-library.
"""

import math

import pytest

from repro import (
    CouplingModel,
    DPOptions,
    DriverCell,
    Objective,
    default_buffer_library,
    default_technology,
    dp_result,
    insert_buffers_multi_sink,
    run_dp,
    segment_tree,
    two_pin_net,
)
from repro.library import single_buffer_library
from repro.units import FF, MM, NS, UM

TECH = default_technology()
LIBRARY = default_buffer_library()
COUPLING = CouplingModel.estimation_mode(TECH)
DRIVER = DriverCell("drv", 250.0, 30e-12)
#: Problem 2: max slack subject to noise.
MAX_SLACK = Objective(mode="buffopt", selection="max-slack")


def _net(segments_um=500):
    net = two_pin_net(TECH, 10 * MM, DRIVER, 20 * FF, 0.8,
                      required_arrival=2.5 * NS)
    return segment_tree(net, segments_um * UM)


@pytest.mark.parametrize("prune", ["timing", "pareto"])
def test_pruning_rule_ablation(benchmark, prune):
    tree = _net()

    def run():
        return run_dp(
            tree, LIBRARY, COUPLING,
            DPOptions(noise_aware=True, prune=prune),
        )

    result = benchmark(run)
    # Stash for the cross-check below via function attributes.
    test_pruning_rule_ablation.results[prune] = (
        result.select(MAX_SLACK).slack, result.candidates_kept_peak
    )
    if len(test_pruning_rule_ablation.results) == 2:
        (q_t, kept_t) = test_pruning_rule_ablation.results["timing"]
        (q_p, kept_p) = test_pruning_rule_ablation.results["pareto"]
        assert q_p >= q_t - 1e-15  # Pareto keeps every (C,q) survivor
        assert kept_p >= kept_t


test_pruning_rule_ablation.results = {}


@pytest.mark.parametrize("segment_um", [2000, 1000, 500, 250])
def test_segmentation_quality_tradeoff(benchmark, segment_um):
    tree = _net(segment_um)

    def run():
        result = run_dp(tree, LIBRARY, COUPLING, DPOptions(noise_aware=True))
        return result.select(MAX_SLACK)

    outcome = benchmark(run)
    record = test_segmentation_quality_tradeoff.results
    record[segment_um] = outcome.slack
    finer = sorted(record, reverse=True)
    slacks = [record[s] for s in finer]
    # finer segmentation (smaller max length) never hurts slack
    assert all(b >= a - 1e-12 for a, b in zip(slacks, slacks[1:]))


test_segmentation_quality_tradeoff.results = {}


def test_smallest_resistance_reduction(benchmark):
    """Algorithm 2 with the full library == with only its min-R buffer."""
    net = two_pin_net(TECH, 9 * MM, DRIVER, 20 * FF, 0.8)

    def run_full():
        return insert_buffers_multi_sink(net, LIBRARY, COUPLING)

    full = benchmark(run_full)
    reduced = insert_buffers_multi_sink(
        net, LIBRARY.smallest_resistance(), COUPLING
    )
    assert full.buffer_count == reduced.buffer_count
    for a, b in zip(full.placements, reduced.placements):
        assert math.isclose(
            a.distance_from_child, b.distance_from_child, rel_tol=1e-12
        )


def test_noise_aware_segmentation(benchmark):
    """Footnote-3 extension: Theorem-1-seeded sites vs fine uniform grid.

    The noise-aware tree must reach the continuous-optimal buffer count
    with a small fraction of the uniform grid's nodes (and DP time).
    """
    from repro import two_pin_net
    from repro.core import (
        insert_buffers_multi_sink,
        noise_aware_segmentation,
    )

    net = two_pin_net(TECH, 12 * MM, DRIVER, 20 * FF, 0.8,
                      required_arrival=4 * NS)
    continuous = insert_buffers_multi_sink(net, LIBRARY, COUPLING)

    def run():
        sited = noise_aware_segmentation(net, LIBRARY, COUPLING)
        result = dp_result(sited, LIBRARY, COUPLING, max_buffers=8)
        return sited, result.select(Objective())

    sited, outcome = benchmark(run)
    assert outcome.buffer_count == continuous.buffer_count
    uniform = segment_tree(net, 250e-6)
    assert len(sited) < len(uniform) / 5


def test_wire_sizing_extension(benchmark):
    """Lillis simultaneous sizing: cost of the width menu vs its benefit.

    Runs the noise-aware DP with a 3-width menu and checks the sized
    slack weakly dominates the drawn-width slack (sizing can only help).
    """
    from repro.core import WireSizingSpec

    tree = _net()
    spec = WireSizingSpec(widths=(1.0, 1.5, 2.0), area_fraction=0.7)

    def run_sized():
        return run_dp(
            tree, LIBRARY, COUPLING,
            DPOptions(noise_aware=True, sizing=spec),
        )

    sized = benchmark(run_sized)
    plain = run_dp(tree, LIBRARY, COUPLING, DPOptions(noise_aware=True))
    assert (
        sized.select(MAX_SLACK).slack
        >= plain.select(MAX_SLACK).slack - 1e-15
    )
    assert sized.candidates_generated > plain.candidates_generated


def test_single_vs_multi_buffer_gap(benchmark):
    """Empirical Theorem-5 gap: the 11-buffer BuffOpt vs the best
    single-buffer sub-library (slack units)."""
    tree = _net()

    def run_multi():
        return run_dp(
            tree, LIBRARY, COUPLING, DPOptions(noise_aware=True)
        ).select(MAX_SLACK)

    multi = benchmark(run_multi)
    best_single = max(
        (
            run_dp(
                tree, single_buffer_library(buffer), COUPLING,
                DPOptions(noise_aware=True),
            ).select(MAX_SLACK).slack
            for buffer in LIBRARY
        ),
    )
    # the library can only help; the gap is the benefit of mixing sizes
    assert multi.slack >= best_single - 1e-15
