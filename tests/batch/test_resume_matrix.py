"""Resume equivalence matrix: engines × executors, plus SIGKILL legs.

The satellite guarantee of the fleet-scaling PR: a checkpoint written
under any engine resumes under *any* (engine, executor) combination and
the stitched report equals the appropriate uninterrupted reference —
journaled head verbatim, recomputed tail identical to a clean run under
the resuming engine.

The cheap 2×3 matrix interrupts runs in-process (write half, resume the
rest); the expensive legs SIGKILL a real subprocess mid-run over a
*sharded* checkpoint and resume under a different shard count, stacking
every recovery feature at once.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.batch import (
    AsyncExecutor,
    BatchConfig,
    BatchOptimizer,
    MultiprocessExecutor,
    SerialExecutor,
    load_sharded_checkpoint,
)
from repro.workloads import WorkloadConfig, population_specs

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

ENGINES = ("reference", "lishi")
EXECUTORS = {
    "serial": lambda: SerialExecutor(),
    "process": lambda: MultiprocessExecutor(workers=2),
    "async": lambda: AsyncExecutor(workers=2),
}

NETS = 10
HEAD = 5

WORKLOAD = WorkloadConfig(nets=NETS, seed=17)
SPECS = population_specs(WORKLOAD)


def config_for(engine):
    return BatchConfig(max_buffers=4, keep_trees=False, engine=engine)


@pytest.fixture(scope="module")
def full_signatures():
    """Uninterrupted serial-run signatures, one per engine."""
    return {
        engine: BatchOptimizer(
            config=config_for(engine), workload=WORKLOAD
        ).optimize(SPECS).signatures()
        for engine in ENGINES
    }


class TestResumeMatrix:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("executor_kind", sorted(EXECUTORS))
    def test_resume_combo(
        self, tmp_path, engine, executor_kind, full_signatures
    ):
        path = tmp_path / "matrix.jsonl"
        # the interrupted incarnation: reference engine, serial, half done
        BatchOptimizer(
            config=config_for("reference"), workload=WORKLOAD
        ).optimize(SPECS[:HEAD], checkpoint=path)

        resumed = BatchOptimizer(
            config=config_for(engine),
            workload=WORKLOAD,
            executor=EXECUTORS[executor_kind](),
        ).optimize(SPECS, checkpoint=path, resume=True)

        signatures = resumed.signatures()
        # journaled head verbatim ...
        assert signatures[:HEAD] == full_signatures["reference"][:HEAD]
        # ... recomputed tail exactly as a clean run under the resuming
        # engine would have produced, whatever the executor
        assert signatures[HEAD:] == full_signatures[engine][HEAD:]


def kill_group(process, timeout=30.0):
    """SIGKILL ``process``'s whole group and wait until it is gone."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(process.pid, signal.SIGKILL)
    process.wait()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    pytest.fail(f"process group {process.pid} outlived its SIGKILL")


class TestSigkillLegs:
    """One SIGKILL leg per executor, over sharded checkpoints, resumed
    under a different shard count."""

    NETS = 40
    SEED = 11

    @pytest.mark.parametrize("engine,executor_kind", [
        ("reference", "serial"),
        ("lishi", "process"),
        ("lishi", "async"),
    ])
    def test_sigkill_then_resharded_resume(
        self, tmp_path, engine, executor_kind
    ):
        directory = tmp_path / "fleet.ckpt"
        script = (
            "import sys\n"
            f"sys.path.insert(0, {REPO_SRC!r})\n"
            "from repro.batch import (BatchConfig, BatchOptimizer,\n"
            "                         make_executor)\n"
            "from repro.workloads import WorkloadConfig, population_specs\n"
            f"w = WorkloadConfig(nets={self.NETS}, seed={self.SEED})\n"
            "cfg = BatchConfig(max_buffers=4, keep_trees=False,\n"
            f"                  engine={engine!r})\n"
            "BatchOptimizer(config=cfg, workload=w,\n"
            f"    executor=make_executor({executor_kind!r}, workers=2),\n"
            ").optimize_specs(population_specs(w),\n"
            f"    checkpoint={str(directory)!r}, shards=4)\n"
        )
        # Its own session, so one killpg takes the pool workers too.
        process = subprocess.Popen(
            [sys.executable, "-c", script], start_new_session=True
        )
        try:
            deadline = time.monotonic() + 90.0
            while time.monotonic() < deadline:
                journaled = sum(
                    max(0, sum(1 for _ in path.open()) - 1)
                    for path in directory.glob("shard-*.jsonl")
                ) if directory.is_dir() else 0
                if journaled >= 5:
                    break
                if process.poll() is not None:
                    pytest.fail("batch finished before it could be killed")
                time.sleep(0.005)
            else:
                pytest.fail("shards never reached 5 results")
        finally:
            kill_group(process)

        workload = WorkloadConfig(nets=self.NETS, seed=self.SEED)
        specs = population_specs(workload)
        optimizer = BatchOptimizer(
            config=config_for(engine),
            workload=workload,
            executor=EXECUTORS[executor_kind](),
        )
        survivors = set(
            load_sharded_checkpoint(directory, optimizer.library).results
        )
        assert 0 < len(survivors) < self.NETS

        # resume under HALF the shard count: reshard + recovery at once
        resumed = optimizer.optimize(
            specs, checkpoint=directory, shards=2, resume=True
        )
        uninterrupted = BatchOptimizer(
            config=config_for(engine), workload=workload
        ).optimize(specs)
        assert resumed.signatures() == uninterrupted.signatures()
