"""Property suite: the coordinator's invariants under random fleets.

Four laws, each quantified over seeded random fleets:

1. **feasibility** — with repair on, delay-mode coordination always
   lands capacity-feasible, and the claimed usage is exactly the site
   tally of the recorded assignments;
2. **monotone schedule** — the feasibility schedule (per-round max
   violation, minimum-so-far) never increases and ends at the final
   round's verdict;
3. **determinism** — the same fleet coordinates to bit-identical
   results across repeat runs, executors, and the bit-identical
   engines (lishi is held to semantic equivalence: feasible, audited
   clean, same primal within tolerance);
4. **zero-price identity** — an uncontended fabric is one round at
   zero prices, bit-identical to the uncoordinated batch.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch.executors import make_executor
from repro.batch.optimizer import BatchConfig, BatchOptimizer
from repro.core.objective import Objective
from repro.fleet import (
    FleetConfig,
    FleetCoordinator,
    PriceSchedule,
    audit_fleet,
)
from repro.library.buffers import BufferLibrary, default_buffer_library
from repro.units import PS
from repro.verify.treegen import random_tree

DELAY = Objective.legacy("delay")

SMALL_LIBRARY = BufferLibrary(tuple(default_buffer_library())[:2])

default_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.filter_too_much,
    ],
)

seeds = st.integers(min_value=0, max_value=5_000)


def fleet_for(seed, count=None):
    rng = random.Random(seed)
    count = count if count is not None else 2 + seed % 3
    return [
        random_tree(rng, max_internal=2, with_rats=True,
                    name=f"p{seed}_{i}")
        for i in range(count)
    ]


def contended_config(**overrides):
    base = dict(
        batch=BatchConfig(objective=DELAY, max_segment_length=None),
        sites_per_family=3,
        base_capacity=1,
        max_rounds=15,
        schedule=PriceSchedule(step=20 * PS),
    )
    base.update(overrides)
    return FleetConfig(**base)


def coordinate(seed, **config_overrides):
    return FleetCoordinator(
        library=SMALL_LIBRARY, config=contended_config(**config_overrides)
    ).coordinate(fleet_for(seed))


class TestFeasibilityInvariant:
    @default_settings
    @given(seed=seeds)
    def test_repair_always_lands_feasible(self, seed):
        result = coordinate(seed)
        assert result.feasible
        assert all(
            used <= cap
            for used, cap in zip(result.usage, result.site_map.capacities)
        )

    @default_settings
    @given(seed=seeds)
    def test_usage_is_the_tally_of_recorded_assignments(self, seed):
        result = coordinate(seed)
        assignments = {
            name: sorted(state.result.assignment or {})
            for name, state in result.states.items()
            if state.ok
        }
        assert result.usage == result.site_map.usage(assignments)


class TestMonotoneSchedule:
    @default_settings
    @given(seed=seeds)
    def test_schedule_log_never_increases(self, seed):
        result = coordinate(seed)
        log = result.schedule_log()
        assert len(log) == len(result.rounds)
        assert all(a >= b for a, b in zip(log, log[1:]))
        if result.converged:
            assert log[-1] == 0
        # the log is the running minimum of the raw per-round curve.
        running = []
        for record in result.rounds:
            running.append(
                min(record.max_violation, running[-1])
                if running else record.max_violation
            )
        assert tuple(log) == tuple(running)


class TestDeterminism:
    @default_settings
    @given(seed=seeds)
    def test_repeat_runs_are_bit_identical(self, seed):
        first = coordinate(seed)
        second = coordinate(seed)
        assert first.signatures() == second.signatures()
        assert first.prices == second.prices
        assert first.rounds == second.rounds

    @pytest.mark.parametrize("kind", ["process", "async"])
    def test_parallel_executors_match_serial(self, kind):
        for seed in (2, 9):
            trees = fleet_for(seed)
            serial = FleetCoordinator(
                library=SMALL_LIBRARY, config=contended_config()
            ).coordinate(trees)
            executor = make_executor(kind, workers=2)
            parallel = FleetCoordinator(
                library=SMALL_LIBRARY,
                config=contended_config(),
                executor=executor,
            ).coordinate(trees)
            assert parallel.signatures() == serial.signatures()
            assert parallel.prices == serial.prices

    def test_lishi_engine_is_semantically_equivalent(self):
        for seed in (1, 4, 12):
            reference = coordinate(seed)
            config = contended_config(
                batch=BatchConfig(
                    objective=DELAY, max_segment_length=None, engine="lishi"
                ),
            )
            lishi = FleetCoordinator(
                library=SMALL_LIBRARY, config=config
            ).coordinate(fleet_for(seed))
            assert lishi.feasible
            assert lishi.primal_total == pytest.approx(
                reference.primal_total, rel=1e-9, abs=1e-12
            )
            violations = audit_fleet(
                lishi, fleet_for(seed), config=config,
                library=SMALL_LIBRARY,
            )
            assert not violations, violations


class TestZeroPriceIdentity:
    @default_settings
    @given(seed=seeds)
    def test_uncontended_fleet_is_one_uncoordinated_round(self, seed):
        trees = fleet_for(seed)
        batch_config = BatchConfig(objective=DELAY, max_segment_length=None)
        fleet = FleetCoordinator(
            library=SMALL_LIBRARY,
            config=FleetConfig(
                batch=batch_config, sites_per_family=32, base_capacity=16
            ),
        ).coordinate(trees)
        batch = BatchOptimizer(
            library=SMALL_LIBRARY, config=batch_config
        ).optimize(trees)
        assert len(fleet.rounds) == 1
        assert fleet.converged and fleet.feasible
        assert fleet.net_result_signatures() == tuple(
            r.signature()
            for r in sorted(batch.results, key=lambda r: r.name)
        )
        assert all(
            state.penalty == 0.0 for state in fleet.states.values()
        )
