"""Tests for the cooperative per-run execution budget (RunBudget).

The budget is the innermost layer of the batch resilience stack: a
deadline / candidate-count guard checked once per node inside the DP
loop.  These tests pin down (1) validation and unit behavior, (2) that
a blown budget raises the right structured error with the offending
net/node in the message, and (3) that a generous budget is bit-identical
to no budget at all — the guard must never perturb solutions.
"""

from __future__ import annotations

import time

import pytest

from repro import (
    BudgetExceededError,
    RunBudget,
    TimeoutError,
    two_pin_net,
)
from repro.api import dp_result
from repro.core.dp import DPOptions
from repro.core.objective import Objective
from repro.library import DriverCell, default_buffer_library, default_technology
from repro.noise import CouplingModel
from repro.tree import segment_tree
from repro.units import FF, PS, UM

TECH = default_technology()
COUPLING = CouplingModel.estimation_mode(TECH)


def _tree(length=9000 * UM):
    net = two_pin_net(
        TECH,
        length,
        DriverCell("drv", 250.0, 30 * PS),
        sink_capacitance=20 * FF,
        noise_margin=0.8,
        required_arrival=2000 * PS,
    )
    return segment_tree(net, 500 * UM)


class TestRunBudgetUnit:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunBudget(deadline_seconds=0.0)
        with pytest.raises(ValueError):
            RunBudget(deadline_seconds=-1.0)
        with pytest.raises(ValueError):
            RunBudget(max_candidates=0)
        # Unbounded budget is legal (a no-op guard).
        RunBudget()

    def test_lazy_start(self):
        budget = RunBudget(deadline_seconds=60.0)
        assert not budget.started
        assert budget.elapsed == 0.0
        budget.charge(1)
        assert budget.started
        assert budget.checks == 1

    def test_candidate_budget_raises_with_context(self):
        budget = RunBudget(max_candidates=10)
        budget.charge(5, net="netA", node="n3")
        with pytest.raises(BudgetExceededError) as excinfo:
            budget.charge(11, net="netA", node="n4")
        message = str(excinfo.value)
        assert "netA" in message and "n4" in message
        assert "11" in message and "10" in message

    def test_deadline_raises_timeout(self):
        budget = RunBudget(deadline_seconds=1e-9)
        budget.start()
        time.sleep(0.01)
        with pytest.raises(TimeoutError) as excinfo:
            budget.charge(1, net="netB", node="n0")
        assert "netB" in str(excinfo.value)

    def test_pressure_telemetry(self):
        budget = RunBudget(max_candidates=100, deadline_seconds=60.0)
        budget.charge(25)
        budget.charge(50)
        budget.charge(40)  # peak stays at 50
        assert budget.candidate_pressure == pytest.approx(0.5)
        assert 0.0 <= budget.time_pressure < 1.0
        assert budget.checks == 3

    def test_unbounded_pressures_are_zero(self):
        budget = RunBudget()
        budget.charge(10_000)
        assert budget.candidate_pressure == 0.0
        assert budget.time_pressure == 0.0

    def test_describe(self):
        text = RunBudget(deadline_seconds=5.0, max_candidates=1000).describe()
        assert "5" in text and "1000" in text


class TestDPIntegration:
    def test_options_reject_non_budget(self):
        with pytest.raises(ValueError):
            DPOptions(budget="10 seconds")

    def test_tiny_candidate_budget_trips(self):
        with pytest.raises(BudgetExceededError):
            dp_result(
                _tree(),
                default_buffer_library(),
                COUPLING,
                budget=RunBudget(max_candidates=10),
            )

    def test_tiny_deadline_trips(self):
        budget = RunBudget(deadline_seconds=1e-9)
        budget.start()
        time.sleep(0.01)
        with pytest.raises(TimeoutError):
            dp_result(
                _tree(), default_buffer_library(), COUPLING, budget=budget
            )

    def test_delay_engine_honors_budget_too(self):
        with pytest.raises(BudgetExceededError):
            dp_result(
                _tree(),
                default_buffer_library(),
                objective=Objective.legacy("delay"),
                budget=RunBudget(max_candidates=5),
            )

    def test_generous_budget_is_bit_identical(self):
        # The guard must observe, never steer: same tree, with and
        # without a (large) budget, must agree on every outcome field.
        tree_a, tree_b = _tree(), _tree()
        bare = dp_result(tree_a, default_buffer_library(), COUPLING)
        guarded = dp_result(
            tree_b,
            default_buffer_library(),
            COUPLING,
            budget=RunBudget(deadline_seconds=3600.0, max_candidates=10**9),
        )
        assert bare.candidates_generated == guarded.candidates_generated
        max_slack = Objective(selection="max-slack")
        bare_best = bare.select(max_slack)
        guarded_best = guarded.select(max_slack)
        assert bare_best.buffer_count == guarded_best.buffer_count
        assert bare_best.slack == guarded_best.slack
        assert bare_best.insertions == guarded_best.insertions

    def test_stats_carry_budget_telemetry(self):
        budget = RunBudget(deadline_seconds=3600.0, max_candidates=10**9)
        result = dp_result(
            _tree(),
            default_buffer_library(),
            COUPLING,
            collect_stats=True,
            budget=budget,
        )
        stats = result.stats
        assert stats is not None
        assert stats.budget_checks == budget.checks > 0
        assert stats.budget_candidate_pressure == budget.candidate_pressure
        assert "budget:" in stats.describe()

    def test_stats_silent_without_budget(self):
        result = dp_result(
            _tree(), default_buffer_library(), COUPLING, collect_stats=True
        )
        assert result.stats.budget_checks == 0
        assert "budget:" not in result.stats.describe()
