"""Tests for the shared DP engine (repro.core.dp).

The strongest checks are exhaustive: on small segmented trees the DP's
best slack must equal a brute-force search over *all* buffer assignments,
evaluated with the independent timing/noise analysis engines.
"""

import itertools
import math

import pytest

from repro import (
    BufferLibrary,
    BufferType,
    DPOptions,
    InfeasibleError,
    Objective,
    TreeBuilder,
    run_dp,
    segment_tree,
    two_pin_net,
)
from repro.core.dp import DPCandidate, _Engine
from repro.noise import has_noise_violation
from repro.timing import source_slack
from repro.units import FF, MM, NS, PS

#: max slack over every outcome, noise feasible or not.
BEST_ANY = Objective(mode="delay", selection="max-slack", require_noise=False)
#: max slack under the run's own noise filter.
MAX_SLACK = Objective(selection="max-slack")


def brute_force_best(tree, library, coupling=None, noise=False):
    """Exhaustive search over all assignments; returns (slack, assignment)."""
    sites = [n.name for n in tree.nodes() if n.is_internal and n.feasible]
    choices = [None, *library.buffers]
    best = (-math.inf, None)
    for combo in itertools.product(choices, repeat=len(sites)):
        assignment = {
            site: buf for site, buf in zip(sites, combo) if buf is not None
        }
        if noise and has_noise_violation(tree, coupling, assignment):
            continue
        slack = source_slack(tree, assignment)
        if slack > best[0]:
            best = (slack, assignment)
    return best


@pytest.fixture
def small_net(tech, driver):
    return two_pin_net(
        tech, 6 * MM, driver, 20 * FF, 0.8,
        required_arrival=1.2 * NS, segments=5, name="small",
    )


@pytest.fixture
def tiny_lib(single_buffer):
    strong = BufferType("b2", 80.0, 35 * FF, 22 * PS, 0.8)
    return BufferLibrary([single_buffer, strong])


class TestAgainstBruteForce:
    def test_delay_only_single_buffer(self, small_net, single_buffer, silent):
        from repro.library import single_buffer_library

        library = single_buffer_library(single_buffer)
        result = run_dp(small_net, library, silent)
        expected_slack, _ = brute_force_best(small_net, library)
        got = result.select(BEST_ANY)
        assert math.isclose(got.slack, expected_slack, rel_tol=1e-12)

    def test_delay_only_two_buffers(self, small_net, tiny_lib, silent):
        result = run_dp(small_net, tiny_lib, silent)
        expected_slack, _ = brute_force_best(small_net, tiny_lib)
        assert math.isclose(
            result.select(BEST_ANY).slack, expected_slack, rel_tol=1e-12
        )

    def test_delay_only_branching_tree(self, tech, driver, tiny_lib, silent):
        builder = TreeBuilder(tech)
        builder.add_source("so", driver=driver)
        builder.add_internal("u")
        builder.add_wire("so", "u", length=2 * MM)
        builder.add_sink("s1", capacitance=30 * FF, noise_margin=0.8,
                         required_arrival=0.9 * NS)
        builder.add_sink("s2", capacitance=8 * FF, noise_margin=0.8,
                         required_arrival=0.7 * NS)
        builder.add_wire("u", "s1", length=2.5 * MM)
        builder.add_wire("u", "s2", length=1.5 * MM)
        tree = segment_tree(builder.build("branchy"), 1 * MM)
        result = run_dp(tree, tiny_lib, silent)
        expected_slack, _ = brute_force_best(tree, tiny_lib)
        assert math.isclose(
            result.select(BEST_ANY).slack, expected_slack, rel_tol=1e-12
        )

    def test_noise_constrained_single_buffer(
        self, tech, driver, single_buffer, coupling
    ):
        from repro.library import single_buffer_library

        net = two_pin_net(
            tech, 6 * MM, driver, 20 * FF, 0.8,
            required_arrival=1.2 * NS, segments=5, name="noisy",
        )
        library = single_buffer_library(single_buffer)
        result = run_dp(
            net, library, coupling, DPOptions(noise_aware=True)
        )
        expected_slack, expected_assignment = brute_force_best(
            net, library, coupling, noise=True
        )
        assert expected_assignment is not None
        got = result.select(MAX_SLACK)
        assert math.isclose(got.slack, expected_slack, rel_tol=1e-12)
        solution = result.solution(got)
        assert not has_noise_violation(net, coupling, solution.buffer_map())

    def test_noise_constrained_count_tracking(
        self, tech, driver, single_buffer, coupling
    ):
        """Per-count outcomes each match a count-restricted brute force."""
        from repro.library import single_buffer_library

        net = two_pin_net(
            tech, 7 * MM, driver, 20 * FF, 0.8,
            required_arrival=1.5 * NS, segments=4, name="noisy",
        )
        library = single_buffer_library(single_buffer)
        result = run_dp(
            net, library, coupling,
            DPOptions(noise_aware=True, track_counts=True),
        )
        sites = [n.name for n in net.nodes() if n.is_internal and n.feasible]
        for outcome in result.outcomes:
            best = -math.inf
            for combo in itertools.combinations(sites, outcome.buffer_count):
                assignment = {s: single_buffer for s in combo}
                if has_noise_violation(net, coupling, assignment):
                    continue
                best = max(best, source_slack(net, assignment))
            assert math.isclose(outcome.slack, best, rel_tol=1e-12), (
                outcome.buffer_count
            )


class TestCandidateConsistency:
    def test_outcome_slack_matches_analysis(self, small_net, tiny_lib, silent):
        """The DP's internal arithmetic must agree with the independent
        Elmore engine on the final solution."""
        result = run_dp(small_net, tiny_lib, silent)
        for outcome in result.outcomes:
            solution = result.solution(outcome)
            analyzed = source_slack(small_net, solution.buffer_map())
            assert math.isclose(outcome.slack, analyzed, rel_tol=1e-9)

    def test_noise_outcomes_all_clean(self, tech, driver, tiny_lib, coupling):
        net = two_pin_net(
            tech, 8 * MM, driver, 20 * FF, 0.8,
            required_arrival=2 * NS, segments=8, name="n",
        )
        result = run_dp(
            net, tiny_lib, coupling,
            DPOptions(noise_aware=True, track_counts=True),
        )
        assert result.outcomes, "expected at least one feasible outcome"
        for outcome in result.outcomes:
            solution = result.solution(outcome)
            assert not has_noise_violation(net, coupling, solution.buffer_map())


class TestOptions:
    def test_max_buffers_requires_count_tracking(self):
        with pytest.raises(ValueError):
            DPOptions(max_buffers=3)

    def test_negative_max_buffers_rejected(self):
        with pytest.raises(ValueError):
            DPOptions(max_buffers=-1, track_counts=True)

    def test_unknown_prune_rejected(self):
        with pytest.raises(ValueError):
            DPOptions(prune="fancy")

    def test_max_buffers_respected(self, small_net, tiny_lib, silent):
        result = run_dp(
            small_net, tiny_lib, silent,
            DPOptions(track_counts=True, max_buffers=2),
        )
        assert all(o.buffer_count <= 2 for o in result.outcomes)

    def test_pareto_prune_never_worse(self, tech, driver, tiny_lib, coupling):
        net = two_pin_net(
            tech, 8 * MM, driver, 20 * FF, 0.8,
            required_arrival=2 * NS, segments=6, name="n",
        )
        timing = run_dp(net, tiny_lib, coupling,
                        DPOptions(noise_aware=True, prune="timing"))
        pareto = run_dp(net, tiny_lib, coupling,
                        DPOptions(noise_aware=True, prune="pareto"))
        assert (
            pareto.select(MAX_SLACK).slack
            >= timing.select(MAX_SLACK).slack - 1e-15
        )
        assert pareto.candidates_kept_peak >= timing.candidates_kept_peak

    def test_missing_driver_raises(self, tech, tiny_lib, silent):
        builder = TreeBuilder(tech)
        builder.add_source("so")
        builder.add_sink("s", capacitance=1 * FF, noise_margin=0.8,
                         required_arrival=1 * NS)
        builder.add_wire("so", "s", length=1 * MM)
        with pytest.raises(InfeasibleError):
            run_dp(builder.build(), tiny_lib, silent)


class TestPruneRules:
    def make(self, load, slack, current=0.0, noise_slack=1.0):
        return DPCandidate(load, slack, current, noise_slack, 0, None)

    def test_timing_prune_keeps_frontier(self):
        a = self.make(1 * FF, 10 * PS)
        b = self.make(2 * FF, 20 * PS)
        c = self.make(3 * FF, 15 * PS)  # dominated by b
        kept = _Engine._prune_timing([c, a, b])
        assert kept == [a, b]

    def test_timing_prune_equal_loads(self):
        a = self.make(1 * FF, 10 * PS)
        b = self.make(1 * FF, 20 * PS)
        kept = _Engine._prune_timing([a, b])
        assert kept == [b]

    def test_pareto_prune_keeps_noise_distinct(self):
        a = self.make(1 * FF, 20 * PS, current=2.0, noise_slack=0.1)
        b = self.make(2 * FF, 10 * PS, current=1.0, noise_slack=0.5)
        kept = _Engine._prune_pareto([a, b])
        assert len(kept) == 2

    def test_pareto_prune_drops_dominated(self):
        a = self.make(1 * FF, 20 * PS, current=1.0, noise_slack=0.5)
        b = self.make(2 * FF, 10 * PS, current=2.0, noise_slack=0.1)
        kept = _Engine._prune_pareto([a, b])
        assert kept == [a]
