"""Tests for repro.core.van_ginneken — the DelayOpt baseline."""

import math

import pytest

from repro import optimize_delay, optimize_delay_per_count, two_pin_net
from repro.api import dp_result
from repro.core import Objective, best_within_count
from repro.timing import max_sink_delay, source_slack
from repro.units import FF, MM, NS

DELAY = Objective.legacy("delay")


@pytest.fixture
def net(tech, driver):
    return two_pin_net(
        tech, 9 * MM, driver, 25 * FF, 0.8,
        required_arrival=2 * NS, segments=9, name="d9",
    )


class TestOptimizeDelay:
    def test_improves_slack_on_long_net(self, net, library):
        solution = optimize_delay(net, library)
        assert solution.buffer_count > 0
        assert source_slack(net, solution.buffer_map()) > source_slack(net)

    def test_short_net_may_stay_unbuffered(self, tech, driver, library):
        net = two_pin_net(
            tech, 0.3 * MM, driver, 5 * FF, 0.8,
            required_arrival=1 * NS, segments=2,
        )
        solution = optimize_delay(net, library)
        base = source_slack(net)
        assert source_slack(net, solution.buffer_map()) >= base

    def test_solution_nodes_are_feasible_sites(self, net, library):
        solution = optimize_delay(net, library)
        for name in solution.buffer_map():
            node = net.node(name)
            assert node.is_internal and node.feasible


class TestPerCount:
    def test_counts_are_distinct_and_bounded(self, net, library):
        solutions = optimize_delay_per_count(net, library, max_buffers=4)
        assert set(solutions) <= {0, 1, 2, 3, 4}
        for count, solution in solutions.items():
            assert solution.buffer_count == count

    def test_slack_improves_weakly_with_count(self, net, library):
        """More allowed buffers can only help (per-count best slacks)."""
        result = dp_result(net, library, objective=DELAY, max_buffers=4)
        slacks = {o.buffer_count: o.slack for o in result.outcomes}
        best_so_far = -math.inf
        for k in sorted(slacks):
            # best-within-k is nondecreasing
            best_so_far = max(best_so_far, slacks[k])
            within = best_within_count(result, k)
            assert source_slack(net, within.buffer_map()) >= best_so_far - 1e-12

    def test_best_within_count_monotone(self, net, library):
        result = dp_result(net, library, objective=DELAY, max_buffers=4)
        delays = [
            max_sink_delay(net, best_within_count(result, k).buffer_map())
            for k in range(1, 5)
        ]
        for a, b in zip(delays, delays[1:]):
            assert b <= a + 1e-15

    def test_best_within_count_rejects_empty(self, net, library):
        result = dp_result(net, library, objective=DELAY, max_buffers=2)
        with pytest.raises(ValueError):
            # counts above the cap were never generated, but 0 always is;
            # ask for a negative bound to force the error path
            best_within_count(result, -1)


class TestPolarity:
    def test_source_sees_even_inversions(self, net, library):
        """With a mixed library and polarity enforcement, every sink must
        see an even number of inverters."""
        solution = optimize_delay(net, library, enforce_polarity=True)
        for sink, inversions in solution.sink_inversions().items():
            assert inversions % 2 == 0, (sink, inversions)

    def test_unenforced_polarity_can_use_odd_inverters(self, net, library):
        free = optimize_delay(net, library, enforce_polarity=False)
        strict = optimize_delay(net, library, enforce_polarity=True)
        assert source_slack(net, free.buffer_map()) >= source_slack(
            net, strict.buffer_map()
        ) - 1e-15

    def test_noninverting_only_library_unaffected_by_flag(self, net, library):
        non_inv = library.non_inverting()
        a = optimize_delay(net, non_inv, enforce_polarity=True)
        b = optimize_delay(net, non_inv, enforce_polarity=False)
        assert source_slack(net, a.buffer_map()) == pytest.approx(
            source_slack(net, b.buffer_map()), rel=1e-12
        )
