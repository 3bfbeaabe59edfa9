"""The planted-bug battery: every coordinator mutant must be caught.

The acceptance-criteria self-test: :func:`run_mutation_battery` over a
spread of contended seeded fleets must report the honest coordinator
auditing clean on **every** instance and a 100% catch rate across the
three planted bugs (stale prices, capacity off-by-one, dropped net).
Per-mutant unit tests then pin *how* each bug manifests, so a future
refactor that silently weakens one check fails with a readable story.
"""

import random

import pytest

from repro.batch.optimizer import BatchConfig
from repro.core.objective import Objective
from repro.fleet import (
    FleetConfig,
    FleetCoordinator,
    PriceSchedule,
    audit_fleet,
    run_mutation_battery,
)
from repro.fleet.mutations import (
    MUTATION_CLASSES,
    CapacityOffByOneFleetCoordinator,
    DroppedNetFleetCoordinator,
    StalePricesFleetCoordinator,
)
from repro.library.buffers import BufferLibrary, default_buffer_library
from repro.units import PS
from repro.verify.treegen import random_tree

DELAY = Objective.legacy("delay")

SMALL_LIBRARY = BufferLibrary(tuple(default_buffer_library())[:2])


def contended_fleet(seed, count=4):
    rng = random.Random(seed)
    return [
        random_tree(rng, max_internal=2, with_rats=True,
                    name=f"m{seed}_{i}")
        for i in range(count)
    ]


def battery_kwargs():
    return dict(
        library=SMALL_LIBRARY,
        config=FleetConfig(
            batch=BatchConfig(objective=DELAY, max_segment_length=None),
            sites_per_family=3,
            base_capacity=1,
            max_rounds=15,
            schedule=PriceSchedule(step=20 * PS),
        ),
    )


@pytest.fixture(scope="module")
def battery_report():
    fleets = [contended_fleet(seed) for seed in range(8)]
    return run_mutation_battery(fleets, battery_kwargs())


class TestBatterySelfTest:
    def test_honest_coordinator_audits_clean_everywhere(
        self, battery_report
    ):
        assert battery_report.honest_clean, battery_report.describe()
        assert len(battery_report.honest_violations) == 8

    def test_every_planted_mutant_is_caught(self, battery_report):
        assert battery_report.all_caught, battery_report.describe()
        assert len(battery_report.catches) == len(MUTATION_CLASSES) == 3

    def test_catches_carry_diagnostics(self, battery_report):
        for catch in battery_report.catches:
            assert catch.instances == 8
            assert catch.caught_on > 0
            assert catch.sample_violations  # an escape story, not a bool

    def test_describe_reads_as_a_verdict(self, battery_report):
        text = battery_report.describe()
        assert "honest audit: clean" in text
        assert "ESCAPED" not in text
        for mutant_cls in MUTATION_CLASSES:
            assert mutant_cls.__name__ in text


class TestPerMutantStories:
    """Each mutant must be flagged by the check designed for it."""

    def _audit(self, coordinator_cls, seed=3):
        trees = contended_fleet(seed)
        kwargs = battery_kwargs()
        result = coordinator_cls(**kwargs).coordinate(trees)
        return result, audit_fleet(
            result, trees,
            config=kwargs["config"], library=kwargs["library"],
        )

    def _first_catch(self, coordinator_cls, needle):
        # latent by design: scan seeds until the bug surfaces, then
        # demand the violation text names the right check.
        for seed in range(10):
            _, violations = self._audit(coordinator_cls, seed)
            if violations:
                assert any(needle in v for v in violations), violations
                return seed
        pytest.fail(
            f"{coordinator_cls.__name__} never surfaced in 10 seeds"
        )

    def test_stale_prices_caught_by_price_rerun(self):
        self._first_catch(
            StalePricesFleetCoordinator,
            "not the prices this net was optimized under",
        )

    def test_capacity_off_by_one_caught_by_true_capacities(self):
        self._first_catch(
            CapacityOffByOneFleetCoordinator, "feasibility claim refuted"
        )

    def test_dropped_net_caught_by_full_usage_recount(self):
        self._first_catch(DroppedNetFleetCoordinator, "usage mismatch")

    def test_mutants_are_honest_when_uncontended(self):
        # on a fabric with slack capacity the bugs are latent: the
        # mutant's output is *correct*, so the audit must stay quiet
        # (the battery catches bugs, not subclasses).
        trees = contended_fleet(0, count=2)
        kwargs = battery_kwargs()
        config = FleetConfig(
            batch=kwargs["config"].batch,
            sites_per_family=16,
            base_capacity=8,
            max_rounds=5,
        )
        for mutant_cls in MUTATION_CLASSES:
            result = mutant_cls(
                library=SMALL_LIBRARY, config=config
            ).coordinate(trees)
            violations = audit_fleet(
                result, trees, config=config, library=SMALL_LIBRARY
            )
            if mutant_cls is DroppedNetFleetCoordinator:
                # dropping a net from the tally corrupts usage even
                # without contention — that one is never latent.
                assert violations
            else:
                assert not violations, (mutant_cls.__name__, violations)


class TestSeamContracts:
    def test_honest_seams_are_identity(self):
        # the sanctioned seams must default to no-ops: the honest
        # coordinator and a trivial subclass produce identical results.
        trees = contended_fleet(5)
        kwargs = battery_kwargs()

        class Vanilla(FleetCoordinator):
            pass

        honest = FleetCoordinator(**kwargs).coordinate(trees)
        vanilla = Vanilla(**kwargs).coordinate(trees)
        assert honest.signatures() == vanilla.signatures()

    def test_stale_mutant_round_zero_is_honest(self):
        # round 0 has no previous prices: the stale mutant must behave
        # honestly there, which is exactly why uncontended fleets never
        # catch it.
        trees = contended_fleet(1, count=2)
        kwargs = battery_kwargs()
        config = FleetConfig(
            batch=kwargs["config"].batch,
            sites_per_family=16,
            base_capacity=8,
            max_rounds=5,
        )
        honest = FleetCoordinator(
            library=SMALL_LIBRARY, config=config
        ).coordinate(trees)
        stale = StalePricesFleetCoordinator(
            library=SMALL_LIBRARY, config=config
        ).coordinate(trees)
        assert len(stale.rounds) == 1
        assert stale.signatures() == honest.signatures()
