"""Exhaustive oracle vs the DP: optimality, not just feasibility.

The load-bearing test here sweeps 200 seeded random nets within the
oracle's site bound and asserts the DP's selections *equal* the
enumerated optimum — in delay mode that is van Ginneken's theorem; in
noise-aware mode equality is not guaranteed in general (the linear
merge is a heuristic on multi-buffer libraries) but holds empirically
for this seeded family with the restricted library, so it is pinned as
a regression: if pruning ever starts dropping noise-optimal candidates
on these nets, this fails.
"""

import random

import pytest

from repro.core.dp import DPOptions, run_dp
from repro.core.objective import Objective
from repro.core.wire_sizing import WireSizingSpec
from repro.errors import InfeasibleError
from repro.library.buffers import default_buffer_library
from repro.library.technology import default_technology
from repro.noise.coupling import CouplingModel
from repro.tree import two_pin_net
from repro.units import FF, PS, UM
from repro.verify import (
    OracleBoundError,
    compare_result_to_oracle,
    exhaustive_oracle,
    random_tree,
)

ORACLE_SITES = 4
NET_TARGET = 200


@pytest.fixture(scope="module")
def setup():
    library = default_buffer_library()
    inverter = next(b.name for b in library if b.inverting)
    small = library.restricted(["buf_x1", inverter])
    technology = default_technology()
    return small, CouplingModel.estimation_mode(technology)


def _seeded_small_nets(count):
    """Seeded random nets with 1..ORACLE_SITES feasible buffer sites."""
    rng = random.Random(7)
    produced = 0
    while produced < count:
        tree = random_tree(rng, max_internal=4, with_rats=True,
                           name=f"oracle{produced}")
        sites = sum(
            1 for n in tree.nodes() if n.is_internal and n.feasible
        )
        if 1 <= sites <= ORACLE_SITES:
            produced += 1
            yield tree


class TestSeededAgreement:
    def test_dp_matches_oracle_on_200_nets_both_modes(self, setup):
        small, coupling = setup
        checked = 0
        for tree in _seeded_small_nets(NET_TARGET):
            for noise_aware in (False, True):
                mode_coupling = (
                    coupling if noise_aware else CouplingModel.silent()
                )
                result = run_dp(
                    tree, small, coupling=mode_coupling,
                    options=DPOptions(
                        noise_aware=noise_aware, track_counts=True
                    ),
                )
                oracle = exhaustive_oracle(
                    tree, small, mode_coupling, noise_aware=noise_aware,
                    max_sites=ORACLE_SITES,
                )
                disagreements = compare_result_to_oracle(
                    result, oracle, exact=True,
                    cost=lambda b: 1.0, cost_library=small, cost_exact=True,
                )
                assert not disagreements, (
                    f"{tree.name} noise_aware={noise_aware}: "
                    + "; ".join(d.describe() for d in disagreements)
                )
            checked += 1
        assert checked == NET_TARGET


class TestSelectionSemantics:
    def test_best_mirrors_dp_tie_breaking(self, setup, tech, driver):
        small, _ = setup
        net = two_pin_net(
            tech, 5000 * UM, driver, sink_capacitance=20 * FF,
            noise_margin=0.8, required_arrival=2000 * PS, segments=4,
        )
        oracle = exhaustive_oracle(
            net, small, CouplingModel.silent(), noise_aware=False
        )
        best = oracle.best(require_noise=False)
        # no other outcome has strictly better slack, and among equal
        # slacks the fewest buffers wins
        for outcome in oracle.outcomes:
            assert outcome.slack <= best.slack
            if outcome.slack == best.slack:
                assert best.buffer_count <= outcome.buffer_count

    def test_fewest_buffers_falls_back_to_best(self, setup, tech, driver):
        small, _ = setup
        net = two_pin_net(
            tech, 5000 * UM, driver, sink_capacitance=20 * FF,
            noise_margin=0.8, required_arrival=1 * PS, segments=3,
        )
        oracle = exhaustive_oracle(
            net, small, CouplingModel.silent(), noise_aware=False
        )
        unreachable = oracle.fewest_buffers(min_slack=1.0)
        assert unreachable.slack == oracle.best(require_noise=False).slack

    def test_empty_noise_pool_raises(self, setup, tech, driver):
        small, coupling = setup
        # microscopic noise margin: no assignment can be noise-feasible
        net = two_pin_net(
            tech, 8000 * UM, driver, sink_capacitance=20 * FF,
            noise_margin=1e-9, required_arrival=2000 * PS, segments=3,
        )
        oracle = exhaustive_oracle(net, small, coupling, noise_aware=True)
        with pytest.raises(InfeasibleError):
            oracle.best(require_noise=True)
        assert oracle.best(require_noise=False) is not None

    def test_minimize_cost_prefers_cheap_cells(self, setup, tech, driver):
        small, _ = setup
        net = two_pin_net(
            tech, 5000 * UM, driver, sink_capacitance=20 * FF,
            noise_margin=0.8, required_arrival=2000 * PS, segments=4,
        )
        oracle = exhaustive_oracle(
            net, small, CouplingModel.silent(), noise_aware=False
        )
        by_name = {b.name: b for b in small}

        def area(buffer):
            return buffer.input_capacitance

        cheap = oracle.minimize_cost(
            area, small, min_slack=0.0, require_noise=False
        )
        assert cheap.slack >= 0.0
        total = sum(area(by_name[n]) for _, n in cheap.assignment)
        for outcome in oracle.outcomes:
            if outcome.slack >= 0.0:
                other = sum(
                    area(by_name[n]) for _, n in outcome.assignment
                )
                assert total <= other + 1e-30


class TestBounds:
    def test_site_bound_refusal(self, setup, tech, driver):
        small, _ = setup
        net = two_pin_net(
            tech, 9000 * UM, driver, sink_capacitance=20 * FF,
            noise_margin=0.8, segments=8,
        )
        with pytest.raises(OracleBoundError):
            exhaustive_oracle(
                net, small, CouplingModel.silent(), max_sites=3
            )

    def test_assignment_bound_refusal(self, setup, tech, driver):
        small, _ = setup
        net = two_pin_net(
            tech, 5000 * UM, driver, sink_capacitance=20 * FF,
            noise_margin=0.8, segments=4,
        )
        with pytest.raises(OracleBoundError):
            exhaustive_oracle(
                net, small, CouplingModel.silent(), max_assignments=5
            )

    def test_polarity_filter_excludes_odd_inversions(self, setup, tech, driver):
        small, _ = setup
        net = two_pin_net(
            tech, 4000 * UM, driver, sink_capacitance=20 * FF,
            noise_margin=0.8, required_arrival=2000 * PS, segments=3,
        )
        oracle = exhaustive_oracle(
            net, small, CouplingModel.silent(), enforce_polarity=True
        )
        inverting = {b.name for b in small if b.inverting}
        for outcome in oracle.outcomes:
            inversions = sum(
                1 for _, name in outcome.assignment if name in inverting
            )
            assert inversions % 2 == 0


class TestWireSizing:
    def test_sized_dp_never_beats_sized_oracle(self, tech, driver):
        library = default_buffer_library().restricted(["buf_x1"])
        net = two_pin_net(
            tech, 6000 * UM, driver, sink_capacitance=25 * FF,
            noise_margin=0.8, required_arrival=2500 * PS, segments=3,
        )
        spec = WireSizingSpec(widths=(1.0, 2.0), area_fraction=0.7)
        silent = CouplingModel.silent()
        result = run_dp(
            net, library, coupling=silent,
            options=DPOptions(
                noise_aware=False, track_counts=True, sizing=spec
            ),
        )
        oracle = exhaustive_oracle(
            net, library, silent, noise_aware=False, sizing=spec
        )
        # Lillis-style sizing is exact in delay mode too
        assert result.select(
            Objective(mode="delay", selection="max-slack", require_noise=False)
        ).slack == pytest.approx(
            oracle.best(require_noise=False).slack, rel=1e-9
        )
