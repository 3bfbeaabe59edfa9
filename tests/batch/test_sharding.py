"""Sharded checkpoints: routing, recovery, resharding, and the merge.

The regression this suite exists for (satellite of the fleet-scaling
PR): shard topology must live *next to* the checkpoint fingerprint, not
inside it, so a journal written under N shards resumes — bit-identically
— under M shards.  The N→M test runs the full optimizer through an
interrupt/reshard/resume cycle and compares signatures against the
single-journal run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import WorkloadError
from repro.batch import (
    BatchConfig,
    BatchOptimizer,
    SHARDS_RECOVERED_COUNTER,
    ShardedCheckpoint,
    load_checkpoint,
    load_sharded_checkpoint,
    merge_sharded_checkpoint,
    net_shard,
    read_checkpoint_header,
)
from repro.journal import TORN_TAIL_COUNTER
from repro.obs import MetricsRegistry
from repro.workloads import WorkloadConfig, population_specs

NETS = 16


@pytest.fixture(scope="module")
def batch():
    workload = WorkloadConfig(nets=NETS, seed=5)
    config = BatchConfig(max_buffers=4, keep_trees=False)
    optimizer = BatchOptimizer(config=config, workload=workload)
    return workload, config, optimizer, population_specs(workload)


class TestRouting:
    def test_net_shard_is_stable_and_in_range(self):
        for shards in (1, 2, 7, 64):
            for name in ("net_0001", "net_0002", "x"):
                index = net_shard(name, shards)
                assert 0 <= index < shards
                assert index == net_shard(name, shards)

    def test_invalid_shard_counts_are_rejected(self, tmp_path):
        with pytest.raises(WorkloadError):
            net_shard("net", 0)
        with pytest.raises(WorkloadError):
            ShardedCheckpoint.create(tmp_path / "d", 0, {"mode": "buffopt"})


class TestRoundtrip:
    def test_sharded_write_and_recovery(self, batch, tmp_path):
        workload, config, optimizer, specs = batch
        directory = tmp_path / "fleet.ckpt"
        report = optimizer.optimize(specs, checkpoint=directory, shards=4)
        assert sorted(
            p.name for p in directory.glob("shard-*.jsonl")
        ) == [f"shard-{i:04d}.jsonl" for i in range(4)]

        recovery = load_sharded_checkpoint(directory, optimizer.library)
        assert set(recovery.results) == {r.name for r in report.results}
        assert recovery.shard_files == 4
        assert recovery.max_seq == NETS
        for result in report.results:
            assert (
                recovery.results[result.name].signature()
                == result.signature()
            )

    def test_each_net_lands_on_its_routed_shard(self, batch, tmp_path):
        workload, config, optimizer, specs = batch
        directory = tmp_path / "fleet.ckpt"
        optimizer.optimize(specs, checkpoint=directory, shards=3)
        for index in range(3):
            path = directory / f"shard-{index:04d}.jsonl"
            header = read_checkpoint_header(path)
            assert header["shard"] == {"index": index, "count": 3}
            assert "shard" not in header["fingerprint"]
            for line in path.read_text().splitlines()[1:]:
                record = json.loads(line)
                assert net_shard(record["name"], 3) == index

    def test_shard_recovery_metric_is_counted(self, batch, tmp_path):
        workload, config, optimizer, specs = batch
        directory = tmp_path / "fleet.ckpt"
        optimizer.optimize(specs, checkpoint=directory, shards=4)
        registry = MetricsRegistry()
        load_sharded_checkpoint(
            directory, optimizer.library, metrics=registry
        )
        assert registry.counter(
            SHARDS_RECOVERED_COUNTER, "shards"
        ).value() == 4

    def test_missing_directory_raises(self, batch, tmp_path):
        _, _, optimizer, _ = batch
        with pytest.raises(WorkloadError):
            load_sharded_checkpoint(tmp_path / "empty", optimizer.library)


class TestReshard:
    """The satellite regression: N→M reshard resume == single journal."""

    def interrupted_then_resumed(self, batch, tmp_path, write_shards,
                                 resume_shards):
        workload, config, optimizer, specs = batch
        directory = tmp_path / "fleet.ckpt"
        # first incarnation journals only half the fleet, then "dies"
        optimizer.optimize(
            specs[: NETS // 2], checkpoint=directory, shards=write_shards
        )
        # second incarnation resumes under a different shard count
        fresh = BatchOptimizer(config=config, workload=workload)
        return fresh.optimize(
            specs, checkpoint=directory, shards=resume_shards, resume=True
        )

    @pytest.mark.parametrize(
        "write_shards,resume_shards", [(4, 2), (2, 4), (3, 3), (1, 8)]
    )
    def test_reshard_resume_matches_single_journal(
        self, batch, tmp_path, write_shards, resume_shards
    ):
        workload, config, optimizer, specs = batch
        resumed = self.interrupted_then_resumed(
            batch, tmp_path, write_shards, resume_shards
        )
        single = tmp_path / "single.jsonl"
        baseline = BatchOptimizer(config=config, workload=workload)
        baseline.optimize(specs[: NETS // 2], checkpoint=single)
        reference = BatchOptimizer(
            config=config, workload=workload
        ).optimize(specs, checkpoint=single, resume=True)
        assert resumed.signatures() == reference.signatures()

    def test_resume_only_recomputes_missing_nets(self, batch, tmp_path):
        workload, config, optimizer, specs = batch
        directory = tmp_path / "fleet.ckpt"
        optimizer.optimize(specs[:10], checkpoint=directory, shards=4)
        before = {
            path: path.read_text() for path in directory.glob("*.jsonl")
        }
        BatchOptimizer(config=config, workload=workload).optimize(
            specs, checkpoint=directory, shards=2, resume=True
        )
        appended = []
        for path in directory.glob("shard-*.jsonl"):
            old = before.get(path, "")
            assert path.read_text().startswith(old)
            for line in path.read_text()[len(old):].splitlines():
                record = json.loads(line)
                if record.get("kind") == "result":
                    appended.append(record)
        assert {r["name"] for r in appended} == {
            s.name for s in specs[10:]
        }
        # seq stamps continue past the first incarnation's 10 records
        assert all(r["seq"] > 10 for r in appended)

    def test_fingerprint_mismatch_still_rejected(self, batch, tmp_path):
        workload, config, optimizer, specs = batch
        directory = tmp_path / "fleet.ckpt"
        optimizer.optimize(specs[:4], checkpoint=directory, shards=2)
        other = BatchOptimizer(
            config=BatchConfig(max_buffers=2, keep_trees=False),
            workload=workload,
        )
        with pytest.raises(WorkloadError) as excinfo:
            other.optimize(
                specs, checkpoint=directory, shards=2, resume=True
            )
        assert "max_buffers" in str(excinfo.value)

    def test_shards_without_checkpoint_is_rejected(self, batch):
        _, _, optimizer, specs = batch
        with pytest.raises(WorkloadError):
            optimizer.optimize(specs, shards=2)


class TestTornShard:
    def test_torn_tail_per_shard_is_tolerated_and_counted(
        self, batch, tmp_path
    ):
        workload, config, optimizer, specs = batch
        directory = tmp_path / "fleet.ckpt"
        optimizer.optimize(specs, checkpoint=directory, shards=3)
        victim = directory / "shard-0001.jsonl"
        clean = victim.stat().st_size
        with victim.open("a") as handle:
            handle.write('{"kind": "result", "name": "to')
        registry = MetricsRegistry()
        recovery = load_sharded_checkpoint(
            directory, optimizer.library, metrics=registry
        )
        assert len(recovery.results) == NETS
        assert recovery.torn_tails == 1
        text = registry.to_prometheus()
        assert TORN_TAIL_COUNTER in text
        assert 'journal="batch-shard"' in text
        # and the tear is truncated off for the next incarnation
        assert victim.stat().st_size == clean

    def test_interior_corruption_raises(self, batch, tmp_path):
        workload, config, optimizer, specs = batch
        directory = tmp_path / "fleet.ckpt"
        optimizer.optimize(specs, checkpoint=directory, shards=1)
        path = directory / "shard-0000.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2][:15] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(WorkloadError):
            load_sharded_checkpoint(directory, optimizer.library)


class TestMerge:
    def test_merged_journal_equals_sharded_recovery(self, batch, tmp_path):
        workload, config, optimizer, specs = batch
        directory = tmp_path / "fleet.ckpt"
        optimizer.optimize(specs, checkpoint=directory, shards=4)
        merged = tmp_path / "merged.jsonl"
        merge_sharded_checkpoint(directory, merged)
        sharded = load_sharded_checkpoint(directory, optimizer.library)
        single = load_checkpoint(merged, optimizer.library)
        assert set(single) == set(sharded.results)
        for name, result in single.items():
            assert result.signature() == sharded.results[name].signature()
        # no seq stamps survive: the merged file is indistinguishable
        # from an unsharded run's checkpoint
        for line in merged.read_text().splitlines()[1:]:
            assert "seq" not in json.loads(line)

    def test_merge_resolves_reshard_duplicates_by_seq(
        self, batch, tmp_path
    ):
        """After a reshard, a net upgraded by a later incarnation may
        appear in two shard files; the merge must keep the later
        (higher-seq) record."""
        workload, config, optimizer, specs = batch
        directory = tmp_path / "fleet.ckpt"
        optimizer.optimize(specs, checkpoint=directory, shards=4)
        # forge a later record for one net into a *different* shard file
        name = specs[0].name
        home = directory / f"shard-{net_shard(name, 4):04d}.jsonl"
        original = next(
            json.loads(line)
            for line in home.read_text().splitlines()[1:]
            if json.loads(line)["name"] == name
        )
        forged = dict(original)
        forged["seq"] = 999
        forged["attempts"] = 7
        other = directory / f"shard-{(net_shard(name, 4) + 1) % 4:04d}.jsonl"
        with other.open("a") as handle:
            handle.write(json.dumps(forged, sort_keys=True) + "\n")

        recovery = load_sharded_checkpoint(directory, optimizer.library)
        assert recovery.results[name].attempts == 7
        assert recovery.max_seq == 999

        merged = tmp_path / "merged.jsonl"
        merge_sharded_checkpoint(directory, merged)
        kept = load_checkpoint(merged, optimizer.library)
        assert kept[name].attempts == 7
