"""Joint-oracle acceptance battery: the coordinator vs. ground truth.

The acceptance-criteria leg: on 200+ seeded tiny fleets (2-4 nets, 2-3
shared sites, capacity 1), the coordinator's outcome must agree with
the exhaustive capacitated joint optimum computed by
:func:`~repro.fleet.oracle.joint_exhaustive_oracle` — a brute force
over the certificate evaluator that shares zero code with the DP
engines or the pricing loop.  "Agree" is the Lagrangian sandwich:

    ``primal_total <= opt_total <= dual_bound``

(the left inequality because the coordinator emits one particular
capacity-feasible fleet; the right because every Lagrangian relaxation
upper-bounds the constrained optimum).  Every instance must also land
capacity-feasible — in delay mode the zero-buffer fleet is always
feasible, so the repair backstop guarantees it.
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
    derive_site_map,
    joint_exhaustive_oracle,
)
from repro.library.buffers import BufferLibrary, default_buffer_library
from repro.units import PS
from repro.verify.oracle import OracleBoundError
from repro.verify.treegen import random_tree, seeded_tree

DELAY = Objective.legacy("delay")

SMALL_LIBRARY = BufferLibrary(tuple(default_buffer_library())[:2])

#: 8 chunks x 25 seeds = 200 joint instances, the acceptance floor.
CHUNK = 25
CHUNKS = 8


def battery_instance(seed):
    """Deterministic (trees, config) for one battery seed.

    Fleet shape varies with the seed: 2-4 nets, 2-3 shared sites,
    occasionally a capacity spread, so the battery covers uncontended,
    mildly contended, and pathologically tight fabrics.
    """
    rng = random.Random(seed)
    trees = [
        random_tree(rng, max_internal=2, with_rats=True,
                    name=f"ob{seed}_{i}")
        for i in range(2 + seed % 3)
    ]
    config = FleetConfig(
        batch=BatchConfig(objective=DELAY, max_segment_length=None),
        sites_per_family=2 + seed % 2,
        base_capacity=1,
        capacity_spread=seed % 2,
        max_rounds=15,
        schedule=PriceSchedule(step=40 * PS),
    )
    return trees, config


def run_instance(seed):
    trees, config = battery_instance(seed)
    result = FleetCoordinator(
        library=SMALL_LIBRARY, config=config
    ).coordinate(trees)
    oracle = joint_exhaustive_oracle(
        trees,
        derive_site_map(
            trees,
            config.sites_per_family,
            config.families,
            config.base_capacity,
            config.capacity_spread,
        ),
        SMALL_LIBRARY,
    )
    return trees, config, result, oracle


def sandwich_violations(seed, result, oracle):
    """Every way this instance breaks primal <= opt <= dual."""
    problems = []
    if not result.feasible:
        problems.append(f"seed {seed}: not capacity-feasible")
    if any(
        used > cap
        for used, cap in zip(result.usage, result.site_map.capacities)
    ):
        problems.append(
            f"seed {seed}: usage {result.usage} overloads "
            f"{result.site_map.capacities}"
        )
    scale = max(abs(oracle.opt_total), 1e-12)
    tol = 1e-12 + 1e-9 * scale
    if result.feasible and result.primal_total is not None:
        if result.primal_total > oracle.opt_total + tol:
            problems.append(
                f"seed {seed}: primal {result.primal_total!r} beats the "
                f"exhaustive optimum {oracle.opt_total!r}"
            )
    if result.dual_bound is not None:
        if oracle.opt_total > result.dual_bound + tol:
            problems.append(
                f"seed {seed}: optimum {oracle.opt_total!r} exceeds the "
                f"claimed dual bound {result.dual_bound!r}"
            )
    return problems


class TestAcceptanceBattery:
    @pytest.mark.parametrize("chunk", range(CHUNKS))
    def test_sandwich_holds_on_25_seeded_instances(self, chunk):
        problems = []
        for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK):
            _, _, result, oracle = run_instance(seed)
            problems.extend(sandwich_violations(seed, result, oracle))
        assert not problems, "\n".join(problems)

    def test_every_instance_has_a_dual_bound(self):
        # delay mode always yields L(0) from the clean round-0 pass, so
        # the sandwich's right-hand side is never vacuous.
        for seed in (0, 7, 31, 113, 199):
            _, _, result, _ = run_instance(seed)
            assert result.dual_bound is not None

    def test_contended_instances_pay_a_real_gap(self):
        # at least one battery instance must actually exercise pricing
        # (multiple rounds) — otherwise the battery only ever tests the
        # uncontended fast path.
        priced = 0
        for seed in range(0, 2 * CHUNK):
            _, _, result, _ = run_instance(seed)
            if len(result.rounds) > 1:
                priced += 1
        assert priced >= 5

    def test_audited_sample_is_clean(self):
        # a DP-free audit (including per-net priced re-runs) of a spread
        # of battery instances: cheap + contended + 4-net shapes.
        for seed in (0, 1, 2, 5, 11, 23):
            trees, config, result, _ = run_instance(seed)
            violations = audit_fleet(
                result, trees, config=config, library=SMALL_LIBRARY
            )
            assert not violations, f"seed {seed}: {violations}"

    def test_tight_bound_pass_never_loosens_the_sandwich(self):
        for seed in (3, 17, 42):
            trees, config = battery_instance(seed)
            result = FleetCoordinator(
                library=SMALL_LIBRARY, config=config
            ).coordinate(trees)
            tight = FleetCoordinator(
                library=SMALL_LIBRARY,
                config=FleetConfig(
                    batch=config.batch,
                    sites_per_family=config.sites_per_family,
                    base_capacity=config.base_capacity,
                    capacity_spread=config.capacity_spread,
                    max_rounds=config.max_rounds,
                    schedule=config.schedule,
                    tight_bound=True,
                ),
            ).coordinate(trees)
            assert tight.dual_bound is not None
            assert result.dual_bound is not None
            assert tight.dual_bound <= result.dual_bound + 1e-12


class TestOracleUnit:
    def test_duplicate_names_rejected(self):
        tree = seeded_tree(1, max_internal=2, name="dup")
        site_map = derive_site_map([tree], 2, base_capacity=1)
        with pytest.raises(OracleBoundError, match="unique"):
            joint_exhaustive_oracle(
                [tree, tree], site_map, SMALL_LIBRARY
            )

    def test_assignment_guard_trips(self):
        tree = seeded_tree(2, max_internal=3, with_rats=True)
        site_map = derive_site_map([tree], 2, base_capacity=1)
        with pytest.raises(OracleBoundError, match="assignments"):
            joint_exhaustive_oracle(
                [tree], site_map, SMALL_LIBRARY, max_assignments=0
            )

    def test_zero_buffer_fleet_is_always_jointly_feasible(self):
        # capacity 0 everywhere: the only feasible fleet is unbuffered,
        # and delay mode must still return it (never OracleBoundError).
        trees = [
            seeded_tree(s, max_internal=2, with_rats=True, name=f"z{s}")
            for s in (1, 2)
        ]
        site_map = derive_site_map(trees, 2, base_capacity=0)
        oracle = joint_exhaustive_oracle(trees, site_map, SMALL_LIBRARY)
        assert oracle.optimal_usage == (0,) * site_map.sites

    def test_optimum_dominates_every_single_net_choice(self):
        # opt_total must equal the sum of its per-net slack split, and
        # the split's usage must respect capacity.
        trees, config = battery_instance(9)
        site_map = derive_site_map(
            trees,
            config.sites_per_family,
            config.families,
            config.base_capacity,
            config.capacity_spread,
        )
        oracle = joint_exhaustive_oracle(trees, site_map, SMALL_LIBRARY)
        assert oracle.opt_total == pytest.approx(
            sum(slack for _, slack in oracle.optimal_slacks), abs=1e-15
        )
        assert all(
            used <= cap
            for used, cap in zip(oracle.optimal_usage, oracle.capacities)
        )
        assert [name for name, _ in oracle.optimal_slacks] == [
            t.name for t in trees
        ]
