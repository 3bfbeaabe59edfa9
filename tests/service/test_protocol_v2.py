"""Protocol v2: the objective block, canonicalization, and v1 compat.

The version bump's contracts:

* requests may carry one structured ``objective`` block, mutually
  exclusive with the top-level ``mode``/``min_slack`` it supersedes;
  unknown objective keys and service-inappropriate shapes (``pareto``)
  reject as malformed, never silently pass;
* canonicalization has exactly one spelling per request: legacy-shaped
  objectives serialize to the *v1 form* (no ``objective`` key), so
  fingerprints — and therefore caches and journals written by v1
  builds — keep hitting; non-legacy objectives drop the superseded
  top-level fields and round-trip through the journal form;
* journal headers from protocol 1 stay readable
  (:data:`~repro.service.COMPATIBLE_PROTOCOLS`), and recovery replays
  v1-shaped records unchanged — including requests that name the
  retired ``"fast"``/``"auto"`` engines, which run lishi;
* the worker threads a request objective into the batch layer.
"""

from __future__ import annotations

import json

import pytest

from repro.core.objective import Objective
from repro.errors import ServiceError
from repro.service import (
    COMPATIBLE_PROTOCOLS,
    PROTOCOL_VERSION,
    RequestRejected,
    parse_request,
)
from repro.service.cache import (
    ServiceJournal,
    read_journal_header,
    recover_journal,
)
from repro.service.protocol import request_from_json
from repro.service.worker import (
    WorkPayload,
    batch_config_for,
    execute_request,
)

from .conftest import tiny_payload


def objective_payload(name="n", **objective):
    payload = tiny_payload(name)
    payload.pop("mode", None)
    payload["objective"] = objective
    return payload


class TestObjectiveBlock:
    def test_version_bump(self):
        assert PROTOCOL_VERSION == 2
        assert 1 in COMPATIBLE_PROTOCOLS
        assert PROTOCOL_VERSION in COMPATIBLE_PROTOCOLS

    def test_objective_block_parses(self):
        request = parse_request(objective_payload(
            mode="delay", selection="min-power", min_slack=0.1,
        ))
        assert request.objective == Objective(
            mode="delay", selection="min-power", min_slack=0.1
        )
        # The legacy mirrors stay coherent for downstream consumers.
        assert request.mode == "delay"
        assert request.min_slack == 0.1

    @pytest.mark.parametrize("mutate", [
        lambda p: dict(p, mode="delay"),          # mode alongside objective
        lambda p: dict(p, min_slack=0.0),         # superseded top-level key
        lambda p: dict(
            p, objective=dict(p["objective"], surprise=1)
        ),                                        # unknown objective key
        lambda p: dict(
            p, objective=dict(p["objective"], selection="pareto")
        ),                                        # frontier, not an answer
        lambda p: dict(p, objective="min-power"),  # not an object
        lambda p: dict(
            p, objective={"mode": "warp", "selection": "max-slack"}
        ),
    ])
    def test_bad_objective_payloads_reject_as_malformed(self, mutate):
        payload = mutate(objective_payload(
            mode="buffopt", selection="min-power"
        ))
        with pytest.raises(RequestRejected) as excinfo:
            parse_request(payload)
        assert excinfo.value.http_status == 400


class TestCanonicalization:
    def test_legacy_objective_canonicalizes_to_the_v1_form(self):
        """Same fingerprint as a plain mode request — v1 caches hit."""
        v1 = parse_request(tiny_payload("same", mode="delay"))
        v2 = parse_request(objective_payload(
            "same", mode="delay", selection="max-slack",
            require_noise=False,
        ))
        assert v2.objective.is_legacy()
        assert "objective" not in v2.to_json()
        assert v2.to_json() == v1.to_json()
        assert v2.fingerprint() == v1.fingerprint()

    def test_non_legacy_objective_round_trips_the_journal_form(self):
        request = parse_request(objective_payload(
            "rt", mode="buffopt", selection="power-capped",
            power_cap=2e-4,
        ))
        body = request.to_json()
        assert "mode" not in body
        assert "min_slack" not in body
        assert body["objective"]["selection"] == "power-capped"
        assert request_from_json(body) == request

    def test_distinct_objectives_fingerprint_apart(self):
        base = objective_payload(
            "fp", mode="buffopt", selection="min-power"
        )
        capped = objective_payload(
            "fp", mode="buffopt", selection="power-capped", power_cap=1e-4,
        )
        assert parse_request(base).fingerprint() != \
            parse_request(capped).fingerprint()


class TestJournalCompat:
    def test_v1_header_is_still_readable(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        journal = ServiceJournal.create(path, fsync=False)
        journal.close()
        # Rewrite the header as a v1 build would have stamped it.
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace(
            f'"protocol": {PROTOCOL_VERSION}', '"protocol": 1'
        )
        path.write_text("\n".join(lines) + "\n")
        assert read_journal_header(path)["protocol"] == 1
        state = recover_journal(path)
        assert state.cache == {} and state.pending == []

    def test_alien_protocol_refused(self, tmp_path):
        path = tmp_path / "v9.jsonl"
        journal = ServiceJournal.create(path, fsync=False)
        journal.close()
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace(
            f'"protocol": {PROTOCOL_VERSION}', '"protocol": 9'
        )
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ServiceError, match="protocol"):
            read_journal_header(path)

    def test_objective_requests_survive_journal_recovery(self, tmp_path):
        path = tmp_path / "v2.jsonl"
        journal = ServiceJournal.create(path, fsync=False)
        request = parse_request(objective_payload(
            "pending", mode="delay", selection="min-power",
        ))
        journal.record_accepted(request.fingerprint(), request, "job-1")
        journal.close()
        state = recover_journal(path)
        assert state.pending == [(request.fingerprint(), request)]
        assert state.pending[0][1].objective == request.objective


class TestRetiredEngineJournals:
    """Journals written while ``"fast"`` and ``"auto"`` were engines.

    Their accepted records store the old name, and the fingerprint is
    recomputed from the stored request on recovery, so the name must be
    kept as written; the pending work then runs on lishi.
    """

    @pytest.mark.parametrize("protocol", [1, 2])
    def test_recover_and_run_on_lishi(self, inline_service, tmp_path,
                                      protocol):
        # delay-mode nets, where lishi's candidate counts differ from the
        # reference's, so the results tell which engine ran
        payloads = [tiny_payload(
            "old-fast", sink_count=4, mode="delay", engine="fast"
        )]
        if protocol == 1:
            payloads.append(tiny_payload(
                "old-auto", sink_count=4, mode="delay", engine="auto"
            ))
        else:
            payloads.append(tiny_payload(
                "old-auto", sink_count=4, engine="auto",
                objective={"mode": "delay", "selection": "min-power"},
            ))
        path = tmp_path / f"v{protocol}.jsonl"
        journal = ServiceJournal.create(path, fsync=False)
        for number, payload in enumerate(payloads):
            request = parse_request(payload)
            journal.record_accepted(
                request.fingerprint(), request, f"job-{number}"
            )
        journal.close()
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace(
            f'"protocol": {PROTOCOL_VERSION}', f'"protocol": {protocol}'
        )
        path.write_text("\n".join(lines) + "\n")
        stored = [json.loads(line) for line in lines[1:]]
        assert [r["request"]["engine"] for r in stored] == ["fast", "auto"]

        state = recover_journal(path)
        assert [r.engine for _, r in state.pending] == ["fast", "auto"]

        service = inline_service(journal_path=path)
        assert service.recovered_jobs == 2
        for payload in payloads:
            status, body = service.submit(dict(payload, wait=True))
            assert status == 200
            results = {
                engine: execute_request(WorkPayload(
                    parse_request(dict(payload, engine=engine))
                ))["result"]
                for engine in ("reference", "lishi")
            }
            assert results["reference"] != results["lishi"]
            assert body["result"] == results["lishi"]


class TestWorkerThreading:
    def test_objective_reaches_the_batch_config(self):
        request = parse_request(objective_payload(
            "w", mode="delay", selection="min-power", min_slack=0.1,
        ))
        config = batch_config_for(request)
        assert config.objective == Objective(
            mode="delay", selection="min-power", min_slack=0.1
        )

    def test_legacy_request_keeps_the_legacy_config_shape(self):
        request = parse_request(tiny_payload("w", mode="buffopt"))
        config = batch_config_for(request)
        assert config.objective.is_legacy()
        assert config.objective == Objective.legacy("buffopt")
