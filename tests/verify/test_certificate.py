"""Certificate checker: agreement with the engine and with analysis.

The certifier's recomputation is fully independent of ``core/dp.py``;
these tests pin (a) that it validates everything the real engine
produces — including every golden net of the Table 1/2 population — and
(b) that its recomputed slack matches the independent Elmore analysis
in :mod:`repro.timing`.
"""

import math

import pytest

from repro import Objective, dp_result, segment_tree
from repro.core.dp import DPOptions, run_dp
from repro.core.wire_sizing import WireSizingSpec
from repro.errors import CertificateError
from repro.experiments import default_experiment
from repro.noise.coupling import CouplingModel
from repro.timing import source_slack
from repro.tree import two_pin_net
from repro.units import FF, PS, UM
from repro.verify import (
    certify_claim,
    certify_or_raise,
    certify_result,
    evaluate_assignment,
)

BUFFOPT = Objective.legacy("buffopt")
DELAY = Objective.legacy("delay")


@pytest.fixture(scope="module")
def golden_population():
    experiment = default_experiment(nets=16)
    return experiment, [
        (net.name, segment_tree(net.tree, experiment.max_segment_length))
        for net in experiment.nets
    ]


class TestGoldenNets:
    def test_buffopt_outcomes_all_certify(self, golden_population):
        experiment, nets = golden_population
        for name, tree in nets:
            result = dp_result(
                tree, experiment.library, experiment.coupling, max_buffers=4
            )
            certificate = certify_result(result, experiment.coupling)
            assert certificate.ok, f"{name}: {certificate.describe()}"

    def test_delayopt_outcomes_all_certify(self, golden_population):
        experiment, nets = golden_population
        for name, tree in nets:
            result = dp_result(
                tree, experiment.library, objective=DELAY, max_buffers=4
            )
            # DelayOpt runs the engine with silent coupling; certify
            # against the same physics.
            certificate = certify_result(result, CouplingModel.silent())
            assert certificate.ok, f"{name}: {certificate.describe()}"

    def test_selected_outcome_certifies_via_raise_helper(
        self, golden_population
    ):
        experiment, nets = golden_population
        for name, tree in nets:
            outcome = dp_result(
                tree, experiment.library, experiment.coupling, max_buffers=4
            ).select(BUFFOPT)
            certificate = certify_or_raise(
                tree,
                {ins.node: ins.buffer for ins in outcome.insertions},
                experiment.coupling,
                claimed_slack=outcome.slack,
                claimed_noise_feasible=outcome.noise_feasible,
                claimed_buffer_count=outcome.buffer_count,
                require_noise=True,
            )
            assert certificate.ok, name


class TestRecomputation:
    def test_matches_independent_elmore_analysis(
        self, y_tree, library, silent
    ):
        result = dp_result(y_tree, library, objective=DELAY, max_buffers=3)
        for outcome in result.outcomes:
            assignment = {ins.node: ins.buffer for ins in outcome.insertions}
            certificate = evaluate_assignment(y_tree, assignment, silent)
            independent = source_slack(y_tree, assignment)
            assert certificate.slack == pytest.approx(independent, rel=1e-9)

    def test_empty_assignment_on_unbuffered_net(
        self, short_two_pin, coupling
    ):
        certificate = evaluate_assignment(short_two_pin, {}, coupling)
        assert certificate.buffer_count == 0
        assert certificate.slack == pytest.approx(
            source_slack(short_two_pin, {}), rel=1e-9
        )

    def test_noisy_unbuffered_net_flagged(self, long_two_pin, coupling):
        # 9 mm of unbuffered coupled wire: the source driver's injected
        # noise must exceed the sink margin.
        certificate = evaluate_assignment(long_two_pin, {}, coupling)
        assert not certificate.noise_feasible
        assert any(v.kind == "noise" for v in certificate.violations)

    def test_claim_mismatches_are_flagged(self, short_two_pin, coupling):
        truth = evaluate_assignment(short_two_pin, {}, coupling)
        certificate = certify_claim(
            short_two_pin, {}, coupling,
            claimed_slack=truth.slack * 2 + 1 * PS,
            claimed_noise_feasible=not truth.noise_feasible,
            claimed_buffer_count=3,
        )
        kinds = {v.kind for v in certificate.violations}
        assert {"slack", "noise-claim", "count"} <= kinds

    def test_certify_or_raise_raises_on_bad_claim(
        self, short_two_pin, coupling
    ):
        with pytest.raises(CertificateError):
            certify_or_raise(
                short_two_pin, {}, coupling, claimed_buffer_count=5
            )

    def test_structural_violation_for_unknown_node(
        self, short_two_pin, coupling, single_buffer
    ):
        certificate = evaluate_assignment(
            short_two_pin, {"nonexistent": single_buffer}, coupling
        )
        assert any(v.kind == "structure" for v in certificate.violations)

    def test_polarity_violation_for_odd_inversions(
        self, tech, driver, library, silent
    ):
        tree = two_pin_net(
            tech, 4000 * UM, driver, sink_capacitance=20 * FF,
            noise_margin=0.8, required_arrival=2000 * PS, segments=4,
        )
        inverter = next(b for b in library if b.inverting)
        site = next(
            n.name for n in tree.nodes() if n.is_internal and n.feasible
        )
        certificate = evaluate_assignment(tree, {site: inverter}, silent)
        assert any(v.kind == "polarity" for v in certificate.violations)


class TestResultCertificate:
    def test_sizing_runs_certify_on_realized_trees(self, tech, driver, library):
        net = two_pin_net(
            tech, 6000 * UM, driver, sink_capacitance=25 * FF,
            noise_margin=0.8, required_arrival=2500 * PS, segments=4,
        )
        spec = WireSizingSpec(widths=(1.0, 2.0), area_fraction=0.7)
        options = DPOptions(
            noise_aware=False, track_counts=True, sizing=spec
        )
        result = run_dp(
            net, library, coupling=CouplingModel.silent(), options=options
        )
        assert any(o.wire_choices for o in result.outcomes)
        certificate = certify_result(result, CouplingModel.silent())
        assert certificate.ok, certificate.describe()

    def test_malformed_frontier_is_flagged(self, y_tree, library, silent):
        import dataclasses

        result = dp_result(y_tree, library, objective=DELAY, max_buffers=2)
        assert len(result.outcomes) >= 2
        # duplicate the first outcome: counts no longer strictly increase
        broken = dataclasses.replace(
            result, outcomes=(result.outcomes[0], *result.outcomes)
        )
        certificate = certify_result(broken, silent)
        assert any(
            v.kind == "pareto" for v in certificate.all_violations()
        )

    def test_cap_overrun_is_flagged(self, y_tree, library, silent):
        import dataclasses

        result = dp_result(y_tree, library, objective=DELAY)
        heavy = max(result.outcomes, key=lambda o: o.buffer_count)
        if heavy.buffer_count == 0:
            pytest.skip("net never takes a buffer")
        capped_options = dataclasses.replace(
            result.options, track_counts=True, max_buffers=0
        )
        broken = dataclasses.replace(
            result, outcomes=(heavy,), options=capped_options
        )
        certificate = certify_result(broken, silent)
        assert any(v.kind == "cap" for v in certificate.all_violations())

    def test_infinite_rat_slack_stays_infinite(self, tech, driver, library):
        net = two_pin_net(
            tech, 2000 * UM, driver, sink_capacitance=15 * FF,
            noise_margin=0.8, name="no_rat",
        )
        certificate = evaluate_assignment(net, {}, CouplingModel.silent())
        assert math.isinf(certificate.slack)


class TestPowerCertification:
    """The certifier's independent power re-derivation."""

    @pytest.fixture
    def power_run(self, tech, driver, library):
        from repro.library.power import default_power_model

        net = two_pin_net(
            tech, 8000 * UM, driver, sink_capacitance=20 * FF,
            noise_margin=0.8, required_arrival=2000 * PS, segments=6,
            name="power_host",
        )
        power = default_power_model()
        result = run_dp(
            net, library, coupling=CouplingModel.silent(),
            options=DPOptions(noise_aware=False, power=power),
        )
        assert any(o.buffer_count for o in result.outcomes)
        return net, power, result

    def test_recompute_power_is_the_separable_sum(self, power_run):
        from repro.verify import recompute_power

        net, power, result = power_run
        wire_total = sum(
            power.wire_power(w.capacitance) for w in net.wires()
        )
        assert recompute_power(net, {}, power) == pytest.approx(wire_total)
        outcome = max(result.outcomes, key=lambda o: o.buffer_count)
        assignment = {i.node: i.buffer for i in outcome.insertions}
        expected = wire_total + sum(
            power.buffer_power(b) for b in assignment.values()
        )
        assert recompute_power(net, assignment, power) == \
            pytest.approx(expected)

    def test_true_power_claim_certifies(self, power_run):
        net, power, result = power_run
        outcome = max(result.outcomes, key=lambda o: o.buffer_count)
        certificate = certify_claim(
            net, {i.node: i.buffer for i in outcome.insertions},
            CouplingModel.silent(),
            claimed_slack=outcome.slack,
            claimed_noise_feasible=outcome.noise_feasible,
            claimed_buffer_count=outcome.buffer_count,
            claimed_power=outcome.power,
            power_model=power,
        )
        assert certificate.ok, certificate.describe()
        assert certificate.power == pytest.approx(outcome.power)

    def test_understated_power_claim_is_flagged(self, power_run):
        net, power, result = power_run
        outcome = max(result.outcomes, key=lambda o: o.buffer_count)
        certificate = certify_claim(
            net, {i.node: i.buffer for i in outcome.insertions},
            CouplingModel.silent(),
            claimed_slack=outcome.slack,
            claimed_noise_feasible=outcome.noise_feasible,
            claimed_buffer_count=outcome.buffer_count,
            claimed_power=outcome.power * 0.5,
            power_model=power,
        )
        assert any(v.kind == "power" for v in certificate.violations)

    def test_claimed_power_requires_a_model(self, power_run):
        net, _, result = power_run
        with pytest.raises(CertificateError, match="power_model"):
            certify_claim(
                net, {}, CouplingModel.silent(), claimed_power=1.0
            )

    def test_certify_result_re_derives_every_outcome(self, power_run):
        import dataclasses

        net, power, result = power_run
        certificate = certify_result(result, CouplingModel.silent())
        assert certificate.ok, certificate.describe()
        # Corrupt a single outcome's accumulated power: the result-level
        # certificate must localize the lie.
        victim = max(result.outcomes, key=lambda o: o.buffer_count)
        broken = dataclasses.replace(result, outcomes=tuple(
            dataclasses.replace(o, power=o.power * 0.5)
            if o is victim else o
            for o in result.outcomes
        ))
        corrupt = certify_result(broken, CouplingModel.silent())
        assert any(
            v.kind == "power" for v in corrupt.all_violations()
        ), corrupt.describe()

    def test_power_frontier_shape_is_checked(self, power_run):
        import dataclasses

        _, power, result = power_run
        if len(result.outcomes) < 2:
            pytest.skip("single-outcome frontier cannot be disordered")
        # Reverse the frontier: counts no longer non-decreasing.
        broken = dataclasses.replace(
            result, outcomes=tuple(reversed(result.outcomes))
        )
        certificate = certify_result(broken, CouplingModel.silent())
        assert any(
            v.kind == "pareto" for v in certificate.all_violations()
        ), certificate.describe()
