"""DPResult selection semantics: minimize_cost and require_noise edges.

``minimize_cost`` searches the count-indexed frontier: exact for uniform
costs (where it reduces to Problem 3), the standard frontier heuristic
for non-uniform costs.  These tests pin the tie-breaking rules and the
fallback paths, plus the max-slack selection with ``require_noise=True``
on nets where no noise-feasible outcome exists at all.
"""

import pytest

from repro.api import dp_result
from repro.core.objective import Objective
from repro.errors import InfeasibleError
from repro.tree import two_pin_net
from repro.units import FF, PS, UM

#: max slack over every outcome, noise feasible or not.
BEST_ANY = Objective(mode="delay", selection="max-slack", require_noise=False)
FEWEST = Objective(selection="fewest-buffers")


@pytest.fixture
def frontier(tech, driver, library):
    """A delay-mode frontier with several buffer counts represented."""
    net = two_pin_net(
        tech, 7000 * UM, driver, sink_capacitance=25 * FF,
        noise_margin=0.8, required_arrival=1500 * PS, segments=5,
        name="frontier_host",
    )
    result = dp_result(net, library, objective=Objective.legacy("delay"))
    assert len({o.buffer_count for o in result.outcomes}) >= 3
    return result


def _total(outcome, cost):
    return sum(cost(ins.buffer) for ins in outcome.insertions)


class TestMinimizeCost:
    def test_uniform_cost_reduces_to_fewest_buffers(self, frontier):
        chosen = frontier.minimize_cost(lambda b: 1.0)
        reference = frontier.select(FEWEST)
        assert chosen.buffer_count == reference.buffer_count
        assert chosen.slack == reference.slack

    def test_zero_cost_tie_breaks_on_slack(self, frontier):
        # every meeting outcome costs 0.0; the -slack tie-break must
        # pick the max-slack one, i.e. agree with the max-slack rule
        chosen = frontier.minimize_cost(lambda b: 0.0)
        assert chosen.slack == frontier.select(BEST_ANY).slack

    def test_nonuniform_cost_beats_slack_driven_selections(self, frontier):
        def area(buffer):
            return buffer.input_capacitance

        chosen = frontier.minimize_cost(area)
        assert chosen.slack >= 0.0
        best = frontier.select(BEST_ANY)
        fewest = frontier.select(FEWEST)
        assert _total(chosen, area) <= _total(best, area)
        assert _total(chosen, area) <= _total(fewest, area)
        # and it is the frontier-wide minimum among meeting outcomes
        meeting = [o for o in frontier.outcomes if o.slack >= 0.0]
        assert _total(chosen, area) == min(
            _total(o, area) for o in meeting
        )

    def test_equal_cost_prefers_more_slack(self, frontier):
        def area(buffer):
            return buffer.input_capacitance

        chosen = frontier.minimize_cost(area)
        meeting = [o for o in frontier.outcomes if o.slack >= 0.0]
        cheapest = min(_total(o, area) for o in meeting)
        ties = [o for o in meeting if _total(o, area) == cheapest]
        assert chosen.slack == max(o.slack for o in ties)

    def test_unreachable_min_slack_falls_back_to_best(self, frontier):
        fallback = frontier.minimize_cost(lambda b: 1.0, min_slack=1.0)
        assert fallback.slack == frontier.select(BEST_ANY).slack
        assert fallback.slack < 1.0


class TestRequireNoise:
    @pytest.fixture
    def hopeless(self, tech, driver, library, coupling):
        """A coupled net whose sink margin no insertion can satisfy."""
        net = two_pin_net(
            tech, 8000 * UM, driver, sink_capacitance=20 * FF,
            noise_margin=1e-9, required_arrival=2000 * PS, segments=4,
            name="hopeless_noise",
        )
        return dp_result(net, library, coupling)

    def test_best_raises_without_noise_feasible_outcome(self, hopeless):
        with pytest.raises(InfeasibleError, match="no noise-feasible"):
            hopeless.select(
                Objective(selection="max-slack", require_noise=True)
            )

    def test_fewest_and_cost_raise_too(self, hopeless):
        with pytest.raises(InfeasibleError):
            hopeless.select(
                Objective(selection="fewest-buffers", require_noise=True)
            )
        with pytest.raises(InfeasibleError):
            hopeless.minimize_cost(lambda b: 1.0, require_noise=True)

    def test_noise_aware_run_has_empty_frontier(
        self, hopeless, tech, driver, library
    ):
        # the noise-aware engine prunes infeasible candidates outright,
        # so even require_noise=False cannot recover an outcome — the
        # remediation path is a delay-mode rerun
        assert hopeless.outcomes == ()
        with pytest.raises(InfeasibleError):
            hopeless.select(BEST_ANY)
        net = two_pin_net(
            tech, 8000 * UM, driver, sink_capacitance=20 * FF,
            noise_margin=1e-9, required_arrival=2000 * PS, segments=4,
        )
        assert dp_result(
            net, library, objective=Objective.legacy("delay")
        ).select(BEST_ANY) is not None

    def test_best_tie_breaks_on_fewer_buffers(self, frontier):
        best = frontier.select(BEST_ANY)
        for outcome in frontier.outcomes:
            assert outcome.slack <= best.slack
            if outcome.slack == best.slack:
                assert best.buffer_count <= outcome.buffer_count
