"""Stateful property test for the million-net fleet machinery.

A :class:`~hypothesis.stateful.RuleBasedStateMachine` drives the sharded
checkpoint + streaming report + ECO frontier stack through arbitrary
interleavings of partial fleet runs, torn shard tails, reshards, merges,
and incremental ECO edits, against a plain-dict model of "the signature
every net must always have".  The invariants under any sequence:

* a net's signature never changes — not across resumes, reshards, torn
  tails, or a merge back to a single journal;
* a resume recomputes *exactly* the nets the journal is missing;
* a frontier-cache-assisted re-run after an in-place edit stays
  bit-identical (telemetry included) to a cold run of the edited tree.

The ``TestPlantedMutants`` class at the bottom proves the harness has
teeth: three deliberately re-introduced bugs — stale cached frontiers,
a shard dropped during recovery, a result folded twice — each trip the
same checks the machine runs.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import CouplingModel, DriverCell, TreeBuilder, default_technology
from repro.api import dp_result
from repro.batch import (
    BatchConfig,
    BatchOptimizer,
    SerialExecutor,
    load_checkpoint,
    load_sharded_checkpoint,
    merge_sharded_checkpoint,
)
from repro.batch import optimizer as optimizer_module
from repro.batch import sharding as sharding_module
from repro.batch.optimizer import _FOLDED
from repro.batch.resilience import WorkItemFailure
from repro.core import FrontierCache, Objective
from repro.core import eco as eco_module
from repro.units import FF, PS, UM
from repro.workloads import WorkloadConfig, population_specs

NETS = 8
WORKLOAD = WorkloadConfig(nets=NETS, seed=31)
SPECS = population_specs(WORKLOAD)
NAMES = [spec.name for spec in SPECS]


def fleet_config():
    return BatchConfig(max_buffers=4, keep_trees=False)


_EXPECTED = None


def expected_signatures():
    """The model: one clean serial run, computed once per session."""
    global _EXPECTED
    if _EXPECTED is None:
        report = BatchOptimizer(
            config=fleet_config(), workload=WORKLOAD
        ).optimize(SPECS)
        _EXPECTED = dict(zip(NAMES, report.signatures()))
    return _EXPECTED


class CountingSerialExecutor(SerialExecutor):
    """Serial executor that records which nets it actually computed —
    the probe for "resume recomputes exactly the missing nets"."""

    def __init__(self):
        self.computed = []

    def map(self, fn, items, on_result=None):
        def spy(index, value):
            if not isinstance(value, WorkItemFailure):
                self.computed.append(value.name)
            if on_result is not None:
                on_result(index, value)

        return super().map(fn, items, on_result=spy)


def eco_tree():
    """A small segmented chain with a stub — cheap enough to re-optimize
    inside a state-machine rule, branchy enough to exercise merges."""
    tech = default_technology()
    builder = TreeBuilder(tech)
    builder.add_source(
        "so",
        driver=DriverCell("drv", resistance=250.0, intrinsic_delay=30 * PS),
    )
    builder.add_internal("a")
    builder.add_wire("so", "a", length=900 * UM)
    builder.add_internal("b")
    builder.add_wire("a", "b", length=700 * UM)
    builder.add_sink(
        "s1", capacitance=15 * FF, noise_margin=0.8,
        required_arrival=1500 * PS,
    )
    builder.add_wire("b", "s1", length=600 * UM)
    builder.add_sink(
        "s2", capacitance=24 * FF, noise_margin=0.8,
        required_arrival=1800 * PS,
    )
    builder.add_wire("a", "s2", length=1100 * UM)
    return builder.build("eco_state")


def eco_result_key(result):
    outcome = result.select(Objective.legacy("delay"))
    return (
        outcome.slack,
        outcome.buffer_count,
        tuple(sorted(
            (ins.node, ins.buffer.name) for ins in outcome.insertions
        )),
        result.candidates_generated,
        result.candidates_kept_peak,
    )


def check_eco_equivalence(tree, library, coupling, cache):
    """Shared check: a cached re-run must equal a cold run exactly."""
    cold = dp_result(tree, library, coupling)
    warm = dp_result(tree, library, coupling, frontier_cache=cache)
    assert eco_result_key(warm) == eco_result_key(cold), (
        "frontier-cache run diverged from cold run"
    )


def check_recovery(directory, library, expected):
    """Shared check: sharded recovery holds exactly the model."""
    recovery = load_sharded_checkpoint(directory, library)
    assert set(recovery.results) == set(expected), (
        "recovered nets differ from the model"
    )
    for name, signature in expected.items():
        assert recovery.results[name].signature() == signature, name


class FleetCheckpointMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.workdir = Path(tempfile.mkdtemp(prefix="fleet-state-"))
        self.directory = self.workdir / "fleet.ckpt"
        self.shards = 2
        self.completed = {}  # name -> signature, the journal's model
        self.merges = 0
        self.library = BatchOptimizer(
            config=fleet_config(), workload=WORKLOAD
        ).library
        self.coupling = CouplingModel.estimation_mode(default_technology())
        self.eco_tree = eco_tree()
        self.eco_cache = FrontierCache()
        # populate once so later edits exercise the reuse path
        dp_result(
            self.eco_tree, self.library, self.coupling,
            frontier_cache=self.eco_cache,
        )

    # -- fleet rules ---------------------------------------------------

    @rule(count=st.integers(min_value=1, max_value=NETS))
    def run_prefix(self, count):
        """(Re)run the first ``count`` nets; a prefix shorter than a
        previous one models a crash that lost the in-flight tail."""
        executor = CountingSerialExecutor()
        optimizer = BatchOptimizer(
            config=fleet_config(), workload=WORKLOAD, executor=executor
        )
        report = optimizer.optimize(
            SPECS[:count],
            checkpoint=self.directory,
            shards=self.shards,
            resume=True,
            stream_report=True,
        )
        expected_new = [
            name for name in NAMES[:count] if name not in self.completed
        ]
        assert executor.computed == expected_new, (
            "resume recomputed the wrong nets"
        )
        assert len(report) == count
        model = expected_signatures()
        for name in NAMES[:count]:
            self.completed[name] = model[name]

    @rule(new_shards=st.integers(min_value=1, max_value=6))
    def reshard(self, new_shards):
        """Topology is not part of the fingerprint: just start writing
        under a different count next run."""
        self.shards = new_shards

    @precondition(lambda self: self.directory.is_dir())
    @rule(victim=st.integers(min_value=0, max_value=63))
    def tear_shard_tail(self, victim):
        """SIGKILL mid-write: a torn half-record on some shard tail."""
        paths = sorted(self.directory.glob("shard-*.jsonl"))
        if not paths:
            return
        with paths[victim % len(paths)].open("a") as handle:
            handle.write('{"kind": "result", "name": "torn-mid-wri')

    @precondition(lambda self: bool(self.completed))
    @rule()
    def merge_to_single_journal(self):
        merged = self.workdir / f"merged-{self.merges}.jsonl"
        self.merges += 1
        merge_sharded_checkpoint(self.directory, merged)
        loaded = load_checkpoint(merged, self.library)
        assert set(loaded) == set(self.completed)
        for name, signature in self.completed.items():
            assert loaded[name].signature() == signature, name

    # -- ECO rules -----------------------------------------------------

    @rule(
        factor=st.sampled_from([0.8, 0.93, 1.0, 1.06, 1.3]),
        which=st.integers(min_value=0, max_value=31),
    )
    def eco_edit_and_rerun(self, factor, which):
        """Scale one wire in place, then demand the cached re-run match
        a cold run of the edited tree exactly."""
        wires = [
            node.parent_wire
            for node in self.eco_tree.postorder()
            if node.parent_wire is not None
        ]
        wire = wires[which % len(wires)]
        wire.resistance *= factor
        wire.capacitance *= factor
        check_eco_equivalence(
            self.eco_tree, self.library, self.coupling, self.eco_cache
        )

    # -- invariants ----------------------------------------------------

    @invariant()
    def journal_recovers_to_the_model(self):
        if self.completed and self.directory.is_dir():
            check_recovery(self.directory, self.library, self.completed)

    def teardown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


TestFleetCheckpointMachine = FleetCheckpointMachine.TestCase
# Derandomized: tier-1 gate policy — the suite must be reproducible.
TestFleetCheckpointMachine.settings = settings(
    max_examples=8,
    stateful_step_count=8,
    deadline=None,
    derandomize=True,
)


class TestPlantedMutants:
    """Re-introduce the three bugs this harness exists to catch and
    prove the shared checks reject each one."""

    def test_stale_cached_frontier_is_caught(self, library, coupling,
                                             monkeypatch):
        """Mutant: fingerprints keyed by node *name* only — edits no
        longer invalidate, so the cache serves pre-edit frontiers."""

        def name_only_fingerprints(tree, context):
            return {
                node.name: f"{context}:{node.name}"
                for node in tree.postorder()
            }

        monkeypatch.setattr(
            eco_module, "subtree_fingerprints", name_only_fingerprints
        )
        tree = eco_tree()
        cache = FrontierCache()
        dp_result(tree, library, coupling, frontier_cache=cache)
        victim = next(
            node for node in tree.postorder()
            if node.parent_wire is not None and not node.is_source
        )
        victim.parent_wire.resistance *= 6.0
        victim.parent_wire.capacitance *= 6.0
        with pytest.raises(AssertionError, match="diverged"):
            check_eco_equivalence(tree, library, coupling, cache)

    def test_dropped_shard_is_caught(self, tmp_path, monkeypatch):
        """Mutant: recovery silently skips the last shard file."""
        optimizer = BatchOptimizer(
            config=fleet_config(), workload=WORKLOAD
        )
        directory = tmp_path / "fleet.ckpt"
        optimizer.optimize(SPECS, checkpoint=directory, shards=4)
        model = expected_signatures()

        check_recovery(directory, optimizer.library, model)  # healthy

        real_paths = sharding_module._shard_paths
        monkeypatch.setattr(
            sharding_module,
            "_shard_paths",
            lambda directory: real_paths(directory)[:-1],
        )
        with pytest.raises(AssertionError, match="differ from the model"):
            check_recovery(directory, optimizer.library, model)

    def test_double_fold_is_caught(self, monkeypatch):
        """Mutant: the record hook folds failures on arrival, but parked
        failures fold again after the fallback pass — every failed net
        counts twice."""

        def buggy_run_pending(self, worker, units, pending, results,
                              journal, fold=None):
            def record(sub_index, value):
                index = pending[sub_index]
                if isinstance(value, WorkItemFailure):
                    value = self._wrap_sentinel(units[index], value)
                results[index] = value
                if journal is not None:
                    journal.append(value)
                self._observe_result(value)
                if fold is not None:
                    fold.fold(value)  # BUG: failures folded here AND later
                    if value.ok:
                        results[index] = _FOLDED

            payload = [units[index] for index in pending]
            self.executor.map(worker, payload, on_result=record)

        workload = WorkloadConfig(nets=10, seed=31)
        specs = population_specs(workload)
        config = BatchConfig(
            max_buffers=4, keep_trees=False, net_max_candidates=300
        )
        retained = BatchOptimizer(
            config=config, workload=workload
        ).optimize(specs)
        assert retained.failure_count > 0

        monkeypatch.setattr(
            optimizer_module.BatchOptimizer, "_run_pending",
            buggy_run_pending,
        )
        streamed = BatchOptimizer(
            config=config, workload=workload
        ).optimize(specs, stream_report=True)
        with pytest.raises(AssertionError):
            assert streamed.to_json()["nets"] == retained.to_json()["nets"]
            assert (
                streamed.failure_taxonomy() == retained.failure_taxonomy()
            )
