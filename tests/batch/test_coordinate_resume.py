"""SIGKILL-mid-round fleet resume: the coordinator's crash story.

The fleet analogue of :mod:`tests.batch.test_resume_matrix`'s SIGKILL
legs: a real subprocess coordinates a contended fleet against a journal,
gets SIGKILLed after at least two closed price rounds, and the resumed
run must reach the *bit-identical* final state of an uninterrupted
baseline — replayed closed rounds verbatim, recomputed tail exact.
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

from repro.batch import BatchConfig
from repro.core.objective import Objective
from repro.fleet import FleetConfig, FleetCoordinator, PriceSchedule
from repro.units import PS
from repro.workloads import WorkloadConfig, population_specs

DELAY = Objective.legacy("delay")

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

NETS = 12
SEED = 23

#: slow schedule (no growth escalation) so the run survives long enough
#: to be killed after round 2 but converges eventually on resume.
FLEET_KWARGS = (
    "config=FleetConfig(\n"
    "    batch=BatchConfig(\n"
    "        objective=Objective.legacy('delay'), keep_trees=False,\n"
    "    ),\n"
    "    sites_per_family=4, base_capacity=1, max_rounds=20,\n"
    "    schedule=PriceSchedule(step=2e-12, growth=1.0),\n"
    "),\n"
    f"workload=WorkloadConfig(nets={NETS}, seed={SEED}),\n"
)


def build_coordinator():
    return FleetCoordinator(
        config=FleetConfig(
            batch=BatchConfig(objective=DELAY, keep_trees=False),
            sites_per_family=4,
            base_capacity=1,
            max_rounds=20,
            schedule=PriceSchedule(step=2 * PS, growth=1.0),
        ),
        workload=WorkloadConfig(nets=NETS, seed=SEED),
    )


def closed_rounds(path):
    if not path.exists():
        return 0
    count = 0
    for line in path.read_text().splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail mid-write: exactly what repair is for
        if record.get("kind") == "round":
            count += 1
    return count


class TestSigkillFleetResume:
    def test_sigkill_mid_round_then_resume_is_bit_identical(
        self, tmp_path
    ):
        journal = tmp_path / "fleet.jsonl"
        script = (
            "import sys\n"
            f"sys.path.insert(0, {REPO_SRC!r})\n"
            "from repro.batch import BatchConfig\n"
            "from repro.core.objective import Objective\n"
            "from repro.fleet import (FleetConfig, FleetCoordinator,\n"
            "                         PriceSchedule)\n"
            "from repro.workloads import WorkloadConfig, population_specs\n"
            f"coordinator = FleetCoordinator({FLEET_KWARGS})\n"
            f"w = WorkloadConfig(nets={NETS}, seed={SEED})\n"
            "coordinator.coordinate(population_specs(w),\n"
            f"    checkpoint={str(journal)!r})\n"
        )
        process = subprocess.Popen([sys.executable, "-c", script])
        try:
            deadline = time.monotonic() + 90.0
            while time.monotonic() < deadline:
                if closed_rounds(journal) >= 2:
                    break
                if process.poll() is not None:
                    pytest.fail(
                        "fleet converged before it could be killed"
                    )
                time.sleep(0.005)
            else:
                pytest.fail("journal never closed 2 rounds")
            os.kill(process.pid, signal.SIGKILL)
        finally:
            process.wait()

        # the crash left a real mid-flight journal: at least two closed
        # rounds, and strictly fewer than a finished run would hold.
        interrupted = closed_rounds(journal)
        assert interrupted >= 2

        specs = population_specs(WorkloadConfig(nets=NETS, seed=SEED))
        resumed = build_coordinator().coordinate(
            specs, checkpoint=journal, resume=True
        )
        baseline = build_coordinator().coordinate(specs)

        assert len(baseline.rounds) > interrupted
        assert resumed.signatures() == baseline.signatures()
        assert resumed.rounds == baseline.rounds
        assert resumed.prices == baseline.prices
        assert resumed.primal_total == baseline.primal_total
        # and the resumed journal now holds the full run's rounds.
        assert closed_rounds(journal) == len(baseline.rounds)
