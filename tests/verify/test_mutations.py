"""Mutation-style self-tests: the certifier must catch every corruption.

A certificate checker that validates everything the engine emits could
simply be a rubber stamp.  These tests corrupt known-good solutions in
every supported mutation class and require a 100% catch rate — any
escaped mutation is a certifier blind spot and fails the suite.
"""

import random

import pytest

from repro import DriverCell, Objective, dp_result
from repro.core.dp import DPOptions, run_dp
from repro.library.buffers import default_buffer_library
from repro.library.technology import default_technology
from repro.noise.coupling import CouplingModel
from repro.tree import two_pin_net
from repro.units import FF, PS, UM
from repro.verify import (
    MUTATION_CLASSES,
    certificate_for_mutation,
    mutate_claims,
    random_tree,
    surviving_mutations,
)


@pytest.fixture(scope="module")
def buffered_solution():
    """A noisy segmented net plus the engine's chosen repair."""
    technology = default_technology()
    library = default_buffer_library()
    coupling = CouplingModel.estimation_mode(technology)
    driver = DriverCell("drv", resistance=250.0, intrinsic_delay=30 * PS)

    net = two_pin_net(
        technology, 8000 * UM, driver,
        sink_capacitance=20 * FF, noise_margin=0.8,
        required_arrival=2000 * PS, segments=6, name="mutant_host",
    )
    outcome = dp_result(net, library, coupling).select(Objective())
    assignment = {ins.node: ins.buffer for ins in outcome.insertions}
    assert assignment, "host net must actually need buffers"
    return net, assignment, coupling, library


class TestMutationGeneration:
    def test_every_class_is_generated(self, buffered_solution):
        net, assignment, coupling, library = buffered_solution
        produced = {
            m.mutation
            for m in mutate_claims(net, assignment, coupling, library)
        }
        # ``understate-power`` needs a power model to exist at all.
        assert produced == set(MUTATION_CLASSES) - {"understate-power"}
        assert len(MUTATION_CLASSES) >= 4

    def test_power_class_appears_with_a_model(self, buffered_solution):
        from repro.library.power import default_power_model

        net, assignment, coupling, library = buffered_solution
        produced = {
            m.mutation
            for m in mutate_claims(
                net, assignment, coupling, library,
                power_model=default_power_model(),
            )
        }
        assert produced == set(MUTATION_CLASSES)

    def test_unmutated_claim_still_certifies(self, buffered_solution):
        # sanity: the catch rate below is not explained by a certifier
        # that rejects everything.
        from repro.verify import certify_claim, evaluate_assignment

        net, assignment, coupling, _ = buffered_solution
        truth = evaluate_assignment(net, assignment, coupling)
        certificate = certify_claim(
            net, assignment, coupling,
            claimed_slack=truth.slack,
            claimed_noise_feasible=truth.noise_feasible,
            claimed_buffer_count=len(assignment),
        )
        assert certificate.ok, certificate.describe()


class TestCatchRate:
    def test_all_mutations_caught_on_host_net(self, buffered_solution):
        from repro.library.power import default_power_model

        net, assignment, coupling, library = buffered_solution
        caught, escaped = surviving_mutations(
            net, assignment, coupling, library,
            power_model=default_power_model(),
        )
        assert not escaped, [m.description for m in escaped]
        assert {m.mutation for m in caught} == set(MUTATION_CLASSES)

    def test_power_mutant_needs_the_power_certifier(self, buffered_solution):
        """The understate-power mutant is invisible without the power
        re-derivation — timing and noise stay exactly right — so the
        power-blind battery must not even generate it, while the
        power-aware battery must catch it."""
        from repro.library.power import default_power_model

        net, assignment, coupling, library = buffered_solution
        blind_caught, blind_escaped = surviving_mutations(
            net, assignment, coupling, library
        )
        blind = {m.mutation for m in blind_caught + blind_escaped}
        assert "understate-power" not in blind
        caught, escaped = surviving_mutations(
            net, assignment, coupling, library,
            power_model=default_power_model(),
        )
        assert not escaped, [m.description for m in escaped]
        power_mutants = [
            m for m in caught if m.mutation == "understate-power"
        ]
        assert power_mutants, "no understate-power mutant generated"
        for mutant in power_mutants:
            certificate = certificate_for_mutation(
                net, mutant, coupling,
                power_model=default_power_model(),
            )
            assert any(
                v.kind == "power" for v in certificate.violations
            ), certificate.describe()

    def test_all_mutations_caught_in_delay_mode(self, buffered_solution):
        net, assignment, _, library = buffered_solution
        caught, escaped = surviving_mutations(
            net, assignment, CouplingModel.silent(), library
        )
        assert not escaped, [m.description for m in escaped]

    def test_catch_rate_holds_across_seeded_random_nets(self):
        """100% catch rate across a seeded random-net population."""
        technology = default_technology()
        library = default_buffer_library()
        coupling = CouplingModel.estimation_mode(technology)
        rng = random.Random(23)
        hosts = 0
        while hosts < 10:
            tree = random_tree(rng, max_internal=5, with_rats=True,
                               name=f"mutant{hosts}")
            result = run_dp(
                tree, library, coupling=coupling,
                options=DPOptions(noise_aware=True, track_counts=True),
            )
            buffered = [o for o in result.outcomes if o.buffer_count >= 1]
            if not buffered:
                continue
            hosts += 1
            outcome = buffered[-1]
            assignment = {
                ins.node: ins.buffer for ins in outcome.insertions
            }
            caught, escaped = surviving_mutations(
                tree, assignment, coupling, library
            )
            assert not escaped, (
                tree.name, [m.description for m in escaped]
            )

    def test_each_mutation_yields_violations(self, buffered_solution):
        net, assignment, coupling, library = buffered_solution
        for mutated in mutate_claims(net, assignment, coupling, library):
            certificate = certificate_for_mutation(net, mutated, coupling)
            assert certificate.violations, mutated.description
