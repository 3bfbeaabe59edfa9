"""FleetCoordinator: the loop, its guarantees, and its escape hatches.

The headline contract is pinned here at acceptance-criteria scale:

* **zero-contention ≡ uncoordinated batch, bit for bit** — a 200-net
  spec fleet on an uncontended fabric runs one round at zero prices and
  every ``NetResult`` signature equals the ``BatchOptimizer``'s;
* **contention converges** — a tight fabric reaches a capacity-feasible
  round within the budget, with a monotone feasibility schedule;
* **repair is a guaranteed backstop** — with the round budget strangled
  to 1, the deterministic ban pass still lands feasible;
* **checkpoint/resume is exact** — a journal truncated mid-round resumes
  to the bit-identical final state of the uninterrupted run.
"""

import json
import random
from dataclasses import replace

import pytest

from repro.batch.optimizer import BatchConfig, BatchOptimizer
from repro.core.objective import Objective
from repro.errors import WorkloadError
from repro.fleet import (
    FleetConfig,
    FleetCoordinator,
    PriceSchedule,
    derive_site_map,
)
from repro.fleet.coordinator import (
    FLEET_MAX_VIOLATION_GAUGE,
    FLEET_REOPT_COUNTER,
    FLEET_ROUNDS_COUNTER,
)
from repro.library.buffers import BufferLibrary, default_buffer_library
from repro.obs import MetricsRegistry
from repro.units import PS
from repro.verify.treegen import random_tree
from repro.workloads import WorkloadConfig, population_specs

BUFFOPT = Objective.legacy("buffopt")
DELAY = Objective.legacy("delay")

SMALL_LIBRARY = BufferLibrary(tuple(default_buffer_library())[:2])


def tiny_trees(seed, count=4, max_internal=2):
    rng = random.Random(seed)
    return [
        random_tree(rng, max_internal=max_internal, with_rats=True,
                    name=f"f{seed}_{i}")
        for i in range(count)
    ]


def contended_config(**overrides):
    base = dict(
        batch=BatchConfig(objective=DELAY, max_segment_length=None),
        sites_per_family=3,
        base_capacity=1,
        max_rounds=20,
        schedule=PriceSchedule(step=20 * PS),
    )
    base.update(overrides)
    return FleetConfig(**base)


class TestZeroPriceBitIdentity:
    def test_200_net_fleet_matches_uncoordinated_batch(self):
        """The acceptance-criteria leg: 200 spec nets, uncontended
        fabric, fleet signatures == batch signatures exactly."""
        workload = WorkloadConfig(nets=200, seed=19981101)
        specs = population_specs(workload)
        batch_config = BatchConfig(keep_trees=False)
        fleet = FleetCoordinator(
            config=FleetConfig(
                batch=batch_config, sites_per_family=512, base_capacity=200
            ),
            workload=workload,
        ).coordinate(specs)
        batch = BatchOptimizer(
            config=batch_config, workload=workload
        ).optimize(specs)
        assert len(fleet.rounds) == 1
        assert fleet.converged and fleet.feasible
        assert fleet.rounds[0].prices == (0.0,) * fleet.site_map.sites
        assert fleet.net_result_signatures() == tuple(
            r.signature()
            for r in sorted(batch.results, key=lambda r: r.name)
        )
        # uncontended priced slack IS physical slack, for every net.
        for state in fleet.states.values():
            assert state.true_slack == state.priced_slack
            assert state.penalty == 0.0


class TestCoordinationLoop:
    @pytest.fixture(scope="class")
    def converged(self):
        trees = tiny_trees(3)
        coordinator = FleetCoordinator(
            library=SMALL_LIBRARY, config=contended_config()
        )
        return trees, coordinator.coordinate(trees)

    def test_converges_capacity_feasible(self, converged):
        trees, result = converged
        assert result.converged
        assert result.feasible
        assert all(
            used <= cap
            for used, cap in zip(result.usage, result.site_map.capacities)
        )

    def test_schedule_log_is_monotone(self, converged):
        _, result = converged
        log = result.schedule_log()
        assert all(a >= b for a, b in zip(log, log[1:]))
        assert log[-1] == 0

    def test_round_records_are_consistent(self, converged):
        _, result = converged
        for index, record in enumerate(result.rounds):
            assert record.index == index
            assert record.max_violation == max(
                (max(0, u - c) for u, c in zip(
                    record.usage, result.site_map.capacities
                )),
                default=0,
            )
        assert result.rounds[0].prices == (0.0,) * result.site_map.sites

    def test_site_map_matches_independent_derivation(self, converged):
        trees, result = converged
        assert result.site_map == derive_site_map(
            trees, 3, 1, 1, 0
        )

    def test_json_and_describe(self, converged):
        _, result = converged
        report = result.to_json()
        assert report["kind"] == "buffopt-fleet-report"
        assert report["converged"] is True
        assert report["rounds"] == len(result.rounds)
        json.dumps(report)  # must be serializable as-is
        assert "fleet:" in result.describe()

    def test_duality_in_delay_mode(self, converged):
        _, result = converged
        assert result.primal_total is not None
        assert result.dual_bound is not None
        gap = result.duality_gap()
        assert gap is not None and gap >= -1e-12

    def test_unique_names_required(self):
        trees = tiny_trees(4, count=2)
        coordinator = FleetCoordinator(
            library=SMALL_LIBRARY, config=contended_config()
        )
        with pytest.raises(WorkloadError, match="unique"):
            coordinator.coordinate([trees[0], trees[0]])

    def test_max_rounds_validated(self):
        with pytest.raises(WorkloadError, match="max_rounds"):
            FleetConfig(max_rounds=0)

    def test_no_dual_bound_in_buffopt_mode(self):
        trees = tiny_trees(5, count=2)
        result = FleetCoordinator(
            library=SMALL_LIBRARY,
            config=contended_config(
                batch=BatchConfig(objective=BUFFOPT, max_segment_length=None)
            ),
        ).coordinate(trees)
        assert result.dual_bound is None
        assert result.duality_gap() is None


class TestRepairBackstop:
    def test_strangled_budget_still_lands_feasible(self):
        trees = tiny_trees(6)
        result = FleetCoordinator(
            library=SMALL_LIBRARY,
            config=contended_config(max_rounds=1),
        ).coordinate(trees)
        assert not result.converged  # one round cannot price its way out
        assert result.feasible
        assert result.repaired
        banned_nets = {net for net, _ in result.repaired}
        for net, site in result.repaired:
            state = result.states[net]
            assert site in state.banned
            assert site not in state.sites_used
        assert banned_nets <= set(result.states)

    def test_repair_disabled_reports_infeasible(self):
        trees = tiny_trees(6)
        result = FleetCoordinator(
            library=SMALL_LIBRARY,
            config=contended_config(max_rounds=1, repair=False),
        ).coordinate(trees)
        assert not result.converged
        assert not result.feasible
        assert not result.repaired


class TestObservability:
    def test_fleet_metrics_populate(self):
        trees = tiny_trees(3)
        metrics = MetricsRegistry()
        result = FleetCoordinator(
            library=SMALL_LIBRARY,
            config=contended_config(),
            metrics=metrics,
        ).coordinate(trees)
        rounds = metrics.counter(FLEET_ROUNDS_COUNTER).value(mode="delay")
        reopts = metrics.counter(FLEET_REOPT_COUNTER).value(mode="delay")
        assert rounds == len(result.rounds)
        assert reopts == sum(r.reoptimized for r in result.rounds)
        assert metrics.gauge(FLEET_MAX_VIOLATION_GAUGE).value(
            mode="delay"
        ) == result.rounds[-1].max_violation


class TestCheckpointResume:
    def _truncate_mid_round(self, path, tmp_path):
        lines = path.read_text().splitlines(keepends=True)
        cut = None
        closed = 0
        for idx, line in enumerate(lines):
            record = json.loads(line)
            if record.get("kind") == "round":
                closed += 1
            elif record.get("kind") == "fleet_net" and closed == 1:
                cut = idx + 1  # keep one dangling net of open round 1
                break
        assert cut is not None, "run closed too few rounds to truncate"
        partial = tmp_path / "partial.jsonl"
        partial.write_text("".join(lines[:cut]))
        return partial

    def test_mid_round_resume_is_bit_identical(self, tmp_path):
        trees = tiny_trees(7)
        config = contended_config()
        full = tmp_path / "full.jsonl"
        baseline = FleetCoordinator(
            library=SMALL_LIBRARY, config=config
        ).coordinate(trees, checkpoint=full)
        assert len(baseline.rounds) >= 2
        partial = self._truncate_mid_round(full, tmp_path)
        resumed = FleetCoordinator(
            library=SMALL_LIBRARY, config=config
        ).coordinate(trees, checkpoint=partial, resume=True)
        assert resumed.signatures() == baseline.signatures()
        assert resumed.rounds == baseline.rounds
        assert resumed.prices == baseline.prices
        assert resumed.primal_total == baseline.primal_total

    def test_resume_requires_checkpoint(self):
        coordinator = FleetCoordinator(
            library=SMALL_LIBRARY, config=contended_config()
        )
        with pytest.raises(WorkloadError, match="checkpoint"):
            coordinator.coordinate(tiny_trees(8, count=2), resume=True)

    def test_batch_journal_is_rejected(self, tmp_path):
        workload = WorkloadConfig(nets=3, seed=5)
        specs = population_specs(workload)
        path = tmp_path / "batch.jsonl"
        BatchOptimizer(
            config=BatchConfig(keep_trees=False), workload=workload
        ).optimize(specs, checkpoint=path)
        coordinator = FleetCoordinator(
            config=FleetConfig(batch=BatchConfig(keep_trees=False)),
            workload=workload,
        )
        with pytest.raises(WorkloadError, match="fleet"):
            coordinator.coordinate(specs, checkpoint=path, resume=True)

    def test_fingerprint_mismatch_is_rejected(self, tmp_path):
        trees = tiny_trees(9, count=2)
        config = contended_config()
        path = tmp_path / "fleet.jsonl"
        FleetCoordinator(
            library=SMALL_LIBRARY, config=config
        ).coordinate(trees, checkpoint=path)
        other = FleetCoordinator(
            library=SMALL_LIBRARY,
            config=replace(config, base_capacity=2),
        )
        with pytest.raises(WorkloadError):
            other.coordinate(trees, checkpoint=path, resume=True)

    def test_objective_mismatch_is_rejected(self, tmp_path):
        """A journal written under one objective never resumes under
        another: the fleet fingerprint carries the objective block."""
        trees = tiny_trees(9, count=2)
        config = contended_config()
        path = tmp_path / "fleet.jsonl"
        FleetCoordinator(
            library=SMALL_LIBRARY, config=config
        ).coordinate(trees, checkpoint=path)
        min_power = BatchConfig(
            objective=Objective(mode="delay", selection="min-power"),
            max_segment_length=None,
        )
        other = FleetCoordinator(
            library=SMALL_LIBRARY, config=replace(config, batch=min_power)
        )
        with pytest.raises(WorkloadError, match="differs on: objective"):
            other.coordinate(trees, checkpoint=path, resume=True)
