"""Tests for checkpoint/resume: the JSONL journal and its CLI surface.

The interrupt test kills a real batch process with SIGKILL mid-run and
resumes from whatever the journal managed to record — the exact scenario
the per-line flush + torn-tail tolerance exists for.

When ``REPRO_CHECKPOINT_DIR`` is set (the CI fault-injection job sets it
so failed runs upload their journals as artifacts), checkpoints are
written there instead of the per-test tmp dir.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import WorkloadError
from repro.batch import (
    BatchConfig,
    BatchOptimizer,
    CheckpointJournal,
    FailureRecord,
    load_checkpoint,
    read_checkpoint_header,
    result_from_json,
    result_to_json,
)
from repro.cli import main as cli_main
from repro.workloads import WorkloadConfig, population_specs

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def ckpt_dir(tmp_path, request):
    """Checkpoint directory: CI artifact dir when configured, tmp otherwise."""
    override = os.environ.get("REPRO_CHECKPOINT_DIR")
    if not override:
        return tmp_path
    directory = Path(override) / request.node.name
    directory.mkdir(parents=True, exist_ok=True)
    return directory


class TestJournalRoundtrip:
    @pytest.fixture(scope="class")
    def batch(self):
        workload = WorkloadConfig(nets=10, seed=3)
        config = BatchConfig(max_buffers=4, keep_trees=False)
        optimizer = BatchOptimizer(config=config, workload=workload)
        specs = population_specs(workload)
        return workload, config, optimizer, specs

    def test_signatures_survive_the_roundtrip(self, batch, ckpt_dir):
        workload, config, optimizer, specs = batch
        path = ckpt_dir / "journal.jsonl"
        report = optimizer.optimize(specs, checkpoint=path)
        loaded = load_checkpoint(path, optimizer.library)
        assert set(loaded) == {r.name for r in report.results}
        assert tuple(
            loaded[r.name].signature() for r in report.results
        ) == report.signatures()

    def test_failure_records_roundtrip(self, batch):
        _, _, optimizer, _ = batch
        from repro.batch import failure_net_result
        from repro.workloads import population_specs as ps

        spec = population_specs(WorkloadConfig(nets=1, seed=3))[0]
        failed = failure_net_result(spec, FailureRecord(
            error="WorkerCrashError",
            message="worker process died with exit code 17",
            phase="dispatch",
            attempts=3,
            elapsed=1.25,
        ))
        rebuilt = result_from_json(
            result_to_json(failed), optimizer.library
        )
        assert rebuilt.failure == failed.failure
        assert rebuilt.attempts == 3
        assert not rebuilt.ok
        assert rebuilt.signature() == failed.signature()

    def test_header_and_version_checks(self, batch, tmp_path):
        _, _, optimizer, _ = batch
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(WorkloadError):
            read_checkpoint_header(path)
        path.write_text("[1]\n")
        with pytest.raises(WorkloadError, match="no readable header"):
            read_checkpoint_header(path)
        path.write_text(json.dumps({"kind": "header", "version": 99}) + "\n")
        with pytest.raises(WorkloadError):
            read_checkpoint_header(path)

    def test_fingerprint_mismatch_is_rejected(self, batch, tmp_path):
        workload, config, optimizer, specs = batch
        path = tmp_path / "journal.jsonl"
        optimizer.optimize(specs, checkpoint=path)
        other = BatchOptimizer(
            config=BatchConfig(max_buffers=2, keep_trees=False),
            workload=workload,
        )
        with pytest.raises(WorkloadError) as excinfo:
            other.optimize(specs, checkpoint=path, resume=True)
        assert "max_buffers" in str(excinfo.value)

    def test_torn_tail_is_tolerated_torn_interior_is_not(
        self, batch, tmp_path
    ):
        workload, config, optimizer, specs = batch
        path = tmp_path / "journal.jsonl"
        optimizer.optimize(specs, checkpoint=path)
        with path.open("a") as handle:
            handle.write('{"kind": "result", "name": "to')
        assert len(load_checkpoint(path, optimizer.library)) == 10
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3][:20] + "\n"  # corrupt an interior record
        path.write_text("".join(lines))
        with pytest.raises(WorkloadError):
            load_checkpoint(path, optimizer.library)

    def test_repair_torn_tail_on_zero_length_journal(self, tmp_path):
        """A crash before the header write leaves a 0-byte journal;
        repair must be a no-op on it, not an IndexError on lines[-1]."""
        from repro.journal import repair_torn_tail

        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        repair_torn_tail(path, [])
        assert path.stat().st_size == 0

    def test_repair_torn_tail_with_only_a_torn_fragment(self, tmp_path):
        """A journal whose entire content is one unterminated fragment
        (killed mid-header) truncates back to zero bytes, leaving a
        file the next create() can safely overwrite."""
        from repro.journal import repair_torn_tail

        path = tmp_path / "torn.jsonl"
        path.write_text('{"kind": "head')
        repair_torn_tail(path, ['{"kind": "head'])
        assert path.stat().st_size == 0

    def test_write_after_close_raises_workload_error(self, tmp_path):
        path = tmp_path / "closed.jsonl"
        journal = CheckpointJournal.create(path, {"mode": "buffopt"})
        journal.close()
        assert journal.closed
        with pytest.raises(WorkloadError, match="closed") as excinfo:
            journal.write({"kind": "result", "name": "late"})
        assert str(path) in str(excinfo.value)
        assert len(path.read_text().splitlines()) == 1

    def test_resume_requires_checkpoint_path(self, batch):
        _, _, optimizer, specs = batch
        with pytest.raises(WorkloadError):
            optimizer.optimize(specs, resume=True)

    def test_unknown_buffer_name_is_rejected(self, batch, tmp_path):
        _, _, optimizer, _ = batch
        record = result_to_json(
            BatchOptimizer(
                config=BatchConfig(max_buffers=4, keep_trees=False),
                workload=WorkloadConfig(nets=1, seed=3),
            ).optimize_specs()
            .results[0]
        )
        if record["assignment"]:
            key = next(iter(record["assignment"]))
            record["assignment"][key] = "no_such_buffer"
            with pytest.raises(WorkloadError):
                result_from_json(record, optimizer.library)


class TestCrossEngineResume:
    """A journal written under one engine resumes under another.

    The DP engine name is deliberately excluded from the checkpoint
    fingerprint: engine choice changes how answers are computed, not
    what they are.  A batch journaled under a retired name (``"fast"``,
    ``"auto"``) may therefore finish under lishi or the reference; the
    recomputed nets are re-verified (``certify=True``), not trusted.
    """

    def _config(self, engine):
        return BatchConfig(
            max_buffers=4, keep_trees=False, certify=True, engine=engine
        )

    def test_fast_journal_resumes_under_lishi(self, ckpt_dir):
        workload = WorkloadConfig(nets=8, seed=13)
        specs = population_specs(workload)
        path = ckpt_dir / "cross_engine.jsonl"

        fast = BatchOptimizer(config=self._config("fast"), workload=workload)
        partial = fast.optimize(specs[:5], checkpoint=path)
        assert all(r.ok for r in partial.results)

        lishi = BatchOptimizer(
            config=self._config("lishi"), workload=workload
        )
        report = lishi.optimize(specs, checkpoint=path, resume=True)
        assert len(report.results) == 8
        assert all(r.ok for r in report.results)
        # every net in the resumed report is certificate-clean — the
        # recomputed tail was re-verified under lishi, not trusted
        assert report.certified_count == 8

        # the journaled head is kept verbatim (fast signatures), and the
        # recomputed tail matches an uninterrupted lishi run
        full_fast = BatchOptimizer(
            config=self._config("fast"), workload=workload
        ).optimize(specs)
        full_lishi = BatchOptimizer(
            config=self._config("lishi"), workload=workload
        ).optimize(specs)
        resumed = report.signatures()
        assert resumed[:5] == full_fast.signatures()[:5]
        assert resumed[5:] == full_lishi.signatures()[5:]

    def test_auto_journal_resumes_under_explicit_engine(self, ckpt_dir):
        # a journal begun under the retired "auto" name reloads under an
        # explicit engine
        workload = WorkloadConfig(nets=4, seed=13)
        specs = population_specs(workload)
        path = ckpt_dir / "auto_engine.jsonl"
        auto = BatchOptimizer(config=self._config("auto"), workload=workload)
        auto.optimize(specs[:2], checkpoint=path)
        explicit = BatchOptimizer(
            config=self._config("reference"), workload=workload
        )
        report = explicit.optimize(specs, checkpoint=path, resume=True)
        assert len(report.results) == 4
        assert all(r.ok for r in report.results)


class TestKillThenResume:
    NETS = 30

    def test_sigkill_mid_run_then_resume(self, ckpt_dir):
        """Kill a real run with SIGKILL, resume, verify only the
        unfinished nets are recomputed and the final report matches an
        uninterrupted one bit-for-bit."""
        path = ckpt_dir / "killed.jsonl"
        script = (
            "import sys\n"
            f"sys.path.insert(0, {REPO_SRC!r})\n"
            "from repro.batch import BatchConfig, BatchOptimizer\n"
            "from repro.workloads import WorkloadConfig, population_specs\n"
            f"w = WorkloadConfig(nets={self.NETS}, seed=11)\n"
            "cfg = BatchConfig(max_buffers=4, keep_trees=False)\n"
            "BatchOptimizer(config=cfg, workload=w).optimize_specs(\n"
            f"    population_specs(w), checkpoint={str(path)!r})\n"
        )
        process = subprocess.Popen([sys.executable, "-c", script])
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if path.exists() and sum(
                    1 for _ in path.open()
                ) >= 6:  # header + >= 5 results journaled
                    break
                if process.poll() is not None:
                    pytest.fail("batch finished before it could be killed")
                time.sleep(0.01)
            else:
                pytest.fail("journal never reached 5 results")
            os.kill(process.pid, signal.SIGKILL)
        finally:
            process.wait()

        workload = WorkloadConfig(nets=self.NETS, seed=11)
        config = BatchConfig(max_buffers=4, keep_trees=False)
        specs = population_specs(workload)
        optimizer = BatchOptimizer(config=config, workload=workload)
        survivors = set(load_checkpoint(path, optimizer.library))
        assert 0 < len(survivors) < self.NETS

        before = path.read_text().splitlines()
        resumed = optimizer.optimize(specs, checkpoint=path, resume=True)
        after = path.read_text().splitlines()

        # Only the unfinished nets were recomputed and appended.
        appended = [json.loads(line)["name"] for line in after[len(before):]]
        assert set(appended) == {s.name for s in specs} - survivors
        assert len(appended) == self.NETS - len(survivors)

        # And the stitched-together report equals an uninterrupted run.
        uninterrupted = BatchOptimizer(
            config=config, workload=workload
        ).optimize(specs)
        assert resumed.signatures() == uninterrupted.signatures()


class TestCheckpointCLI:
    def test_checkpoint_then_resume(self, tmp_path, capsys):
        path = tmp_path / "cli.jsonl"
        code = cli_main([
            "batch", "--nets", "6", "--seed", "3",
            "--checkpoint", str(path),
        ])
        assert code == 0
        assert path.exists()
        full = path.read_text().splitlines()
        assert len(full) == 7  # header + 6 results

        # Drop the last two results, resume, and expect exactly those
        # two nets to be recomputed.
        path.write_text("\n".join(full[:5]) + "\n")
        code = cli_main([
            "batch", "--nets", "6", "--seed", "3",
            "--checkpoint", str(path), "--resume",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "6 nets" in out
        resumed = path.read_text().splitlines()
        assert len(resumed) == 7
        recomputed = [json.loads(line)["name"] for line in resumed[5:]]
        assert recomputed == [
            json.loads(line)["name"] for line in full[5:]
        ]

    def test_resume_without_checkpoint_is_an_error(self, capsys):
        assert cli_main(["batch", "--nets", "2", "--resume"]) == 2

    def test_mismatched_resume_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "cli.jsonl"
        assert cli_main([
            "batch", "--nets", "4", "--seed", "3",
            "--checkpoint", str(path),
        ]) == 0
        assert cli_main([
            "batch", "--nets", "4", "--seed", "4",
            "--checkpoint", str(path), "--resume",
        ]) == 2


class TestDurabilityControls:
    """The fsync flag and the torn-tail observability added for the
    service layer, exercised on the batch journal they originate from."""

    @pytest.fixture(scope="class")
    def batch(self):
        workload = WorkloadConfig(nets=10, seed=3)
        config = BatchConfig(max_buffers=4, keep_trees=False)
        optimizer = BatchOptimizer(config=config, workload=workload)
        specs = population_specs(workload)
        return workload, config, optimizer, specs

    def test_torn_tail_recovery_is_counted_and_repaired(
        self, batch, tmp_path
    ):
        from repro.journal import TORN_TAIL_COUNTER
        from repro.obs import MetricsRegistry

        workload, config, optimizer, specs = batch
        path = tmp_path / "journal.jsonl"
        optimizer.optimize(specs, checkpoint=path)
        clean_size = path.stat().st_size
        with path.open("a") as handle:
            handle.write('{"kind": "result", "name": "to')

        metrics = MetricsRegistry()
        loaded = load_checkpoint(path, optimizer.library, metrics=metrics)
        assert len(loaded) == 10
        text = metrics.to_prometheus()
        assert TORN_TAIL_COUNTER in text
        assert 'journal="batch"' in text
        # the tear is truncated off, so a resume's appends start a
        # fresh line instead of garbling the fragment into interior
        # corruption for the run after next.
        assert path.stat().st_size == clean_size
        reloaded = load_checkpoint(path, optimizer.library)
        assert set(reloaded) == set(loaded)

    def test_clean_load_counts_nothing(self, batch, tmp_path):
        from repro.journal import TORN_TAIL_COUNTER
        from repro.obs import MetricsRegistry

        _, _, optimizer, specs = batch
        path = tmp_path / "journal.jsonl"
        optimizer.optimize(specs, checkpoint=path)
        metrics = MetricsRegistry()
        load_checkpoint(path, optimizer.library, metrics=metrics)
        assert TORN_TAIL_COUNTER not in metrics.to_prometheus()

    def test_fsync_flag_controls_the_fsync_calls(
        self, batch, tmp_path, monkeypatch
    ):
        import repro.journal as journal_module

        _, _, optimizer, specs = batch
        calls = []
        monkeypatch.setattr(
            journal_module.os, "fsync", lambda fd: calls.append(fd)
        )
        synced = tmp_path / "synced.jsonl"
        optimizer.optimize(specs[:2], checkpoint=synced)
        assert len(calls) == 3  # header + 2 results

        calls.clear()
        lazy = tmp_path / "lazy.jsonl"
        optimizer.optimize(
            specs[:2], checkpoint=lazy, checkpoint_fsync=False
        )
        assert calls == []
        # flush-per-line still holds: both journals are equally complete.
        assert len(load_checkpoint(lazy, optimizer.library)) == 2

    def test_cli_flag_disables_fsync(self, tmp_path, monkeypatch):
        import repro.journal as journal_module

        calls = []
        monkeypatch.setattr(
            journal_module.os, "fsync", lambda fd: calls.append(fd)
        )
        path = tmp_path / "cli.jsonl"
        assert cli_main([
            "batch", "--nets", "2", "--seed", "3",
            "--checkpoint", str(path), "--no-checkpoint-fsync",
        ]) == 0
        assert calls == []
        assert len(path.read_text().splitlines()) == 3
