"""Tests for simultaneous wire sizing + buffer insertion (Lillis mode)."""

import itertools
import math

import pytest

from repro import (
    CouplingModel,
    DPOptions,
    TechnologyError,
    run_dp,
    two_pin_net,
)
from repro.api import dp_result
from repro.core import Objective, WireSizingSpec, apply_wire_widths
from repro.core.wire_sizing import WireChoice
from repro.library import single_buffer_library
from repro.noise import has_noise_violation
from repro.timing import source_slack
from repro.units import FF, MM, NS

#: max slack over every outcome, noise feasible or not.
BEST_ANY = Objective(mode="delay", selection="max-slack", require_noise=False)


@pytest.fixture
def spec():
    return WireSizingSpec(widths=(1.0, 2.0), area_fraction=0.6)


@pytest.fixture
def net(tech, driver):
    return two_pin_net(
        tech, 6 * MM, driver, 20 * FF, 0.8,
        required_arrival=1.5 * NS, segments=4, name="sz",
    )


class TestWireSizingSpec:
    def test_scaling_model(self, spec):
        assert spec.resistance(100.0, 2.0) == 50.0
        # C(2) = C0 * (0.6*2 + 0.4) = 1.6 * C0
        assert math.isclose(spec.capacitance(10 * FF, 2.0), 16 * FF)
        assert math.isclose(spec.capacitance_scale(2.0), 1.6)

    def test_unit_width_is_identity(self, spec):
        assert spec.resistance(100.0, 1.0) == 100.0
        assert spec.capacitance(10 * FF, 1.0) == 10 * FF

    def test_validation(self):
        with pytest.raises(TechnologyError):
            WireSizingSpec(widths=())
        with pytest.raises(TechnologyError):
            WireSizingSpec(widths=(2.0,))  # must include 1.0
        with pytest.raises(TechnologyError):
            WireSizingSpec(widths=(1.0, -2.0))
        with pytest.raises(TechnologyError):
            WireSizingSpec(widths=(1.0,), area_fraction=1.5)


class TestApplyWireWidths:
    def test_resizes_named_wires_only(self, net, spec, tech):
        wire = net.node("n1").parent_wire
        resized = apply_wire_widths(net, {("so", "n1"): 2.0}, spec)
        new = resized.node("n1").parent_wire
        assert math.isclose(new.resistance, wire.resistance / 2.0)
        assert math.isclose(
            new.capacitance, spec.capacitance(wire.capacitance, 2.0)
        )
        untouched = resized.node("n2").parent_wire
        old = net.node("n2").parent_wire
        assert untouched.resistance == old.resistance

    def test_unknown_wire_rejected(self, net, spec):
        with pytest.raises(TechnologyError):
            apply_wire_widths(net, {("x", "y"): 2.0}, spec)

    def test_off_menu_width_rejected(self, net, spec):
        with pytest.raises(TechnologyError):
            apply_wire_widths(net, {("so", "n1"): 3.0}, spec)

    def test_explicit_current_scales(self, net, spec):
        wire = net.node("n1").parent_wire
        wire.current = 1e-3
        resized = apply_wire_widths(net, {("so", "n1"): 2.0}, spec)
        assert math.isclose(
            resized.node("n1").parent_wire.current, 1.6e-3
        )


class TestSizedDP:
    def test_sizing_never_hurts_slack(self, net, single_buffer, silent, spec):
        library = single_buffer_library(single_buffer)
        plain = run_dp(net, library, silent)
        sized = run_dp(net, library, silent, DPOptions(sizing=spec))
        assert sized.select(BEST_ANY).slack >= (
            plain.select(BEST_ANY).slack - 1e-15
        )

    def test_outcome_matches_independent_analysis(
        self, net, single_buffer, silent, spec
    ):
        """The DP's sized arithmetic must agree with the Elmore engine run
        on the realized (resized) tree."""
        library = single_buffer_library(single_buffer)
        result = run_dp(net, library, silent, DPOptions(sizing=spec))
        for outcome in result.outcomes:
            resized, solution = result.sized_solution(outcome)
            analyzed = source_slack(resized, solution.buffer_map())
            assert math.isclose(outcome.slack, analyzed, rel_tol=1e-9), (
                outcome.buffer_count
            )

    def test_against_brute_force(self, tech, driver, single_buffer, silent, spec):
        """Exhaustive search over width x buffer assignments on a small
        net equals the DP's best slack."""
        net = two_pin_net(
            tech, 5 * MM, driver, 25 * FF, 0.8,
            required_arrival=1 * NS, segments=3, name="bf",
        )
        library = single_buffer_library(single_buffer)
        result = run_dp(net, library, silent, DPOptions(sizing=spec))

        wires = [(w.parent.name, w.child.name) for w in net.wires()]
        sites = [n.name for n in net.nodes() if n.is_internal and n.feasible]
        best = -math.inf
        for widths in itertools.product(spec.widths, repeat=len(wires)):
            resized = apply_wire_widths(
                net,
                {key: w for key, w in zip(wires, widths) if w != 1.0},
                spec,
            )
            for combo in itertools.product([None, single_buffer],
                                           repeat=len(sites)):
                assignment = {
                    s: b for s, b in zip(sites, combo) if b is not None
                }
                best = max(best, source_slack(resized, assignment))
        assert math.isclose(
            result.select(BEST_ANY).slack, best, rel_tol=1e-12
        )

    def test_noise_aware_sized_outcomes_clean(
        self, net, single_buffer, coupling, spec
    ):
        library = single_buffer_library(single_buffer)
        result = run_dp(
            net, library, coupling,
            DPOptions(noise_aware=True, sizing=spec),
        )
        assert result.outcomes
        for outcome in result.outcomes:
            resized, solution = result.sized_solution(outcome)
            assert not has_noise_violation(
                resized, coupling, solution.buffer_map()
            )

    def test_wide_wires_carry_more_noise_current(self, net, single_buffer,
                                                 coupling, spec):
        """Sanity on the noise model: widening scales the wire current by
        the capacitance factor (estimation-mode assumption)."""
        resized = apply_wire_widths(net, {("so", "n1"): 2.0}, spec)
        old = coupling.wire_current(net.node("n1").parent_wire)
        new = coupling.wire_current(resized.node("n1").parent_wire)
        assert math.isclose(new, old * spec.capacitance_scale(2.0))

    def test_unsized_run_records_no_choices(self, net, single_buffer, silent):
        library = single_buffer_library(single_buffer)
        result = run_dp(net, library, silent)
        assert all(o.wire_choices == () for o in result.outcomes)

    def test_sized_solution_without_sizing_is_copy(self, net, single_buffer, silent):
        library = single_buffer_library(single_buffer)
        result = run_dp(net, library, silent)
        outcome = result.select(BEST_ANY)
        resized, solution = result.sized_solution(outcome)
        assert math.isclose(
            resized.total_capacitance(), net.total_capacitance()
        )


class TestMinimizeCost:
    def test_uniform_cost_equals_fewest_buffers(self, net, coupling, library):
        result = dp_result(net, library, coupling)
        by_cost = result.minimize_cost(lambda b: 1.0, min_slack=0.0)
        by_count = result.select(Objective(selection="fewest-buffers"))
        assert by_cost.buffer_count == by_count.buffer_count

    def test_area_cost_prefers_smaller_buffers(self, net, coupling, library):
        result = dp_result(net, library, coupling)
        outcome = result.minimize_cost(
            lambda b: b.input_capacitance, min_slack=0.0
        )
        total = sum(ins.buffer.input_capacitance for ins in outcome.insertions)
        for other in result.outcomes:
            if other.slack >= 0.0:
                other_total = sum(
                    ins.buffer.input_capacitance for ins in other.insertions
                )
                assert total <= other_total + 1e-18

    def test_infeasible_slack_falls_back(self, net, coupling, library):
        result = dp_result(net, library, coupling)
        outcome = result.minimize_cost(lambda b: 1.0, min_slack=1e9)
        best = result.select(Objective(selection="max-slack"))
        assert outcome.slack == best.slack
