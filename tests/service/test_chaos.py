"""The chaos harness and the ISSUE's acceptance run.

The acceptance test drives the real resilient (process-per-request)
supervision path with crash + hang + slow faults on >= 5% of requests,
plus a torn journal tail and a restart mid-load, and checks the two
properties the ISSUE demands: **zero dropped requests** and responses
whose deterministic ``result`` payloads are **bit-identical** to a
fault-free serial run.
"""

from __future__ import annotations

import json

import pytest

from repro.journal import TORN_TAIL_COUNTER
from repro.batch.resilience import RetryPolicy
from repro.errors import WorkloadError
from repro.service import (
    ChaosConfig,
    InProcessClient,
    LoadTestConfig,
    OptimizationService,
    ServiceConfig,
    malformed_requests,
    parse_request,
    tear_journal_tail,
)

from .conftest import tiny_payload


class TestChaosConfig:
    def test_decisions_are_deterministic_and_order_independent(self):
        config = ChaosConfig(rate=0.4, seed=9)
        names = [f"net-{n}" for n in range(64)]
        forward = [config.spec_for(name) for name in names]
        backward = [
            ChaosConfig(rate=0.4, seed=9).spec_for(name)
            for name in reversed(names)
        ]
        assert forward == list(reversed(backward))

    def test_rate_lands_in_the_right_ballpark(self):
        names = [f"net-{n}" for n in range(400)]
        fraction = len(ChaosConfig(rate=0.3, seed=1).faulted(names)) / 400
        assert 0.15 < fraction < 0.45
        assert ChaosConfig(rate=0.0, seed=1).faulted(names) == []
        assert len(ChaosConfig(rate=1.0, seed=1).faulted(names)) == 400

    def test_seconds_track_the_fault_kind(self):
        config = ChaosConfig(
            rate=1.0, seed=0, hang_seconds=9.0, slow_seconds=0.1,
        )
        seen = {}
        for n in range(200):
            spec = config.spec_for(f"net-{n}")
            seen[spec.kind] = spec.seconds
        assert seen["hang"] == 9.0
        assert seen["slow"] == 0.1

    def test_plan_for_wraps_a_single_net(self):
        config = ChaosConfig(rate=1.0, seed=0)
        plan = config.plan_for("only")
        assert plan.spec_for("only") is not None
        assert plan.spec_for("other") is None
        assert ChaosConfig(rate=0.0).plan_for("only") is None

    @pytest.mark.parametrize("overrides", [
        {"rate": -0.1},
        {"rate": 1.5},
        {"kinds": ()},
        {"kinds": ("raise", "gremlin")},
        {"attempts": ()},
        {"attempts": (0,)},
    ])
    def test_bad_config_raises(self, overrides):
        with pytest.raises(WorkloadError):
            ChaosConfig(**overrides)


class TestMalformedBarrage:
    def test_every_payload_is_rejected_and_leaves_no_trace(
        self, inline_service
    ):
        service = inline_service()
        client = InProcessClient(service)
        for label, payload in malformed_requests(seed=3):
            status, body = client.submit(payload)
            assert status == 400, (label, status, body)
            assert body["error"] == "malformed", label
        # the barrage affected nothing: a good request still answers,
        # and no malformed payload was admitted as a job.
        status, body = client.submit(tiny_payload("after", wait=True))
        assert status == 200 and body["result"]["ok"] is True
        text = service.metrics_text()
        assert 'outcome="malformed"' in text


@pytest.mark.slow
class TestChaosAcceptance:
    """Crash + hang + slow + torn tail + restart, vs a fault-free run."""

    CONFIG = LoadTestConfig(
        clients=2, requests=14, unique_nets=10, seed=3,
        min_sinks=2, max_sinks=4,
    )
    CHAOS = ChaosConfig(
        rate=0.5, seed=4, kinds=("raise", "exit", "hang", "slow"),
        hang_seconds=3.0, slow_seconds=0.05,
    )

    def _service_config(self, journal):
        return ServiceConfig(
            workers=2,
            queue_limit=len(self.CONFIG.payloads()) + 1,
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0.02, seed=5),
            hard_deadline=1.5,
            supervision="resilient",
            journal_path=journal,
            chaos=self.CHAOS,
        )

    def test_chaos_run_matches_the_fault_free_run_exactly(self, tmp_path):
        payloads = self.CONFIG.payloads()
        names = sorted({p["net"]["name"] for p in payloads})
        faulted = self.CHAOS.faulted(names)
        kinds = {self.CHAOS.spec_for(name).kind for name in faulted}
        # the run must actually inject meaningful chaos: >= 5% of nets,
        # including at least one process-killing kind.
        assert len(faulted) / len(names) >= 0.05
        assert kinds & {"exit", "hang", "raise"}

        # fault-free serial baseline (inline, one worker, no chaos).
        baseline_service = OptimizationService(ServiceConfig(
            workers=1, queue_limit=len(payloads) + 1, supervision="inline",
        )).start()
        baseline = {}
        client = InProcessClient(baseline_service)
        for payload in payloads:
            status, body = client.submit(payload)
            assert status == 200
            baseline[payload["net"]["name"]] = body["result"]
        baseline_service.drain()

        # phase 1: first half under chaos, then a simulated crash — the
        # service is abandoned without drain.  The journal is left with
        # (a) an accepted-but-unfinished promise, exactly what a death
        # mid-request leaves behind, and (b) a torn final line, exactly
        # what a kill mid-write leaves behind.  (The promise is written
        # directly rather than by abandoning a live async job so the
        # tear deterministically stays the *final* line — a still-running
        # worker appending after the tear would turn an interrupted
        # write into interior corruption, which recovery rightly refuses.)
        journal = tmp_path / "service.jsonl"
        split = len(payloads) // 2
        phase1 = OptimizationService(self._service_config(journal)).start()
        client = InProcessClient(phase1)
        for payload in payloads[:split]:
            status, body = client.submit(payload)
            assert status == 200, (status, body)
            assert body["result"] == baseline[payload["net"]["name"]]
        phase1.drain()

        from repro.service import ServiceJournal

        unfinished = parse_request(payloads[split])
        side = ServiceJournal.append_to(journal)
        side.record_accepted(unfinished.fingerprint(), unfinished, "job-99")
        side.close()
        tear_journal_tail(journal)

        # phase 2: restart on the torn journal; everything must answer
        # and match the baseline exactly — zero dropped requests.
        phase2 = OptimizationService(self._service_config(journal)).start()
        try:
            assert phase2.recovered_results == split
            assert phase2.recovered_jobs == 1  # the torn-off promise
            text = phase2.metrics_text()
            assert TORN_TAIL_COUNTER in text
            assert 'journal="service"' in text

            client = InProcessClient(phase2)
            dropped = []
            cache_hits = 0
            for payload in payloads:
                status, body = client.submit(payload)
                if status != 200:
                    dropped.append((payload["net"]["name"], status))
                    continue
                cache_hits += bool(body.get("cached"))
                name = payload["net"]["name"]
                assert body["result"] == baseline[name], name
            assert dropped == []
            assert cache_hits >= split  # phase-1 work survived the crash
        finally:
            phase2.drain()

    def test_structured_failures_survive_the_journal_roundtrip(
        self, tmp_path
    ):
        # a net that exhausts its retries must come back as the SAME
        # structured failure after a restart — failure responses are
        # cached and journalled like any other result.
        chaos = ChaosConfig(
            rate=1.0, seed=0, kinds=("raise",), attempts=(1, 2, 3),
        )
        journal = tmp_path / "service.jsonl"

        def config():
            return ServiceConfig(
                workers=1, supervision="inline",
                retry=RetryPolicy(max_attempts=2, backoff_seconds=0.01),
                journal_path=journal, chaos=chaos,
            )

        first = OptimizationService(config()).start()
        status, body = first.submit(tiny_payload("cursed", wait=True))
        assert status == 200
        assert body["result"]["ok"] is False
        assert body["result"]["failure"]["error"] == "InjectedFault"
        first.drain()

        second = OptimizationService(config()).start()
        status, again = second.submit(tiny_payload("cursed", wait=True))
        second.drain()
        assert status == 200
        assert again["cached"] is True
        assert again["result"] == body["result"]


class TestTornTailHelper:
    def test_tear_leaves_an_unterminated_final_line(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"kind": "header"}\n')
        tear_journal_tail(path)
        tail = path.read_text().splitlines()[-1]
        with pytest.raises(json.JSONDecodeError):
            json.loads(tail)
