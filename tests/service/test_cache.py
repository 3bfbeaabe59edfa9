"""The service journal and its recovery semantics."""

from __future__ import annotations

import json

import pytest

from repro.errors import ServiceError
from repro.journal import TORN_TAIL_COUNTER
from repro.obs import MetricsRegistry
from repro.service import (
    ResultCache,
    ServiceJournal,
    parse_request,
    read_journal_header,
    recover_journal,
    tear_journal_tail,
)

from .conftest import tiny_payload


def _request(name="jnl", **extra):
    return parse_request(tiny_payload(name, **extra))


def _response(name="jnl"):
    return {
        "result": {"name": name, "ok": True},
        "meta": {"seconds": 0.01, "attempts": 1, "error_message": None},
    }


class TestJournalRoundtrip:
    def test_accepted_then_result_recovers_as_cache(self, tmp_path):
        path = tmp_path / "service.jsonl"
        journal = ServiceJournal.create(path)
        request = _request()
        fingerprint = request.fingerprint()
        journal.record_accepted(fingerprint, request, "job-1")
        journal.record_result(fingerprint, _response())
        journal.close()

        state = recover_journal(path)
        assert state.cache == {fingerprint: _response()}
        assert state.pending == []
        assert state.torn_tail is False

    def test_accepted_without_result_comes_back_pending_in_order(
        self, tmp_path
    ):
        path = tmp_path / "service.jsonl"
        journal = ServiceJournal.create(path)
        first, second = _request("a"), _request("b")
        journal.record_accepted(first.fingerprint(), first, "job-1")
        journal.record_accepted(second.fingerprint(), second, "job-2")
        journal.record_result(first.fingerprint(), _response("a"))
        journal.close()

        state = recover_journal(path)
        assert [req.net_name for _, req in state.pending] == ["b"]
        assert state.pending[0][0] == second.fingerprint()

    def test_duplicate_accepted_lines_deduplicate(self, tmp_path):
        path = tmp_path / "service.jsonl"
        journal = ServiceJournal.create(path)
        request = _request()
        journal.record_accepted(request.fingerprint(), request, "job-1")
        journal.record_accepted(request.fingerprint(), request, "job-2")
        journal.close()
        assert len(recover_journal(path).pending) == 1

    def test_result_without_accepted_still_populates_cache(self, tmp_path):
        # the accepted line may have been a previous incarnation's torn
        # tail; the finished work is still good.
        path = tmp_path / "service.jsonl"
        journal = ServiceJournal.create(path)
        journal.record_result("f" * 64, _response())
        journal.close()
        state = recover_journal(path)
        assert state.cache == {"f" * 64: _response()}
        assert state.pending == []

    def test_append_to_continues_an_existing_journal(self, tmp_path):
        path = tmp_path / "service.jsonl"
        ServiceJournal.create(path).close()
        journal = ServiceJournal.append_to(path)
        request = _request()
        journal.record_accepted(request.fingerprint(), request, "job-1")
        journal.close()
        assert len(recover_journal(path).pending) == 1

    def test_closed_journal_refuses_further_writes(self, tmp_path):
        journal = ServiceJournal.create(tmp_path / "service.jsonl")
        journal.close()
        assert journal.closed
        with pytest.raises(ServiceError, match="closed"):
            journal.record_result("f" * 64, _response())

    def test_fsync_flag_controls_the_fsync_calls(self, tmp_path, monkeypatch):
        import repro.journal as journal_module

        calls = []
        monkeypatch.setattr(
            journal_module.os, "fsync", lambda fd: calls.append(fd)
        )
        synced = ServiceJournal.create(tmp_path / "synced.jsonl", fsync=True)
        synced.record_result("a" * 64, _response())
        synced.close()
        assert len(calls) == 2  # header + result

        calls.clear()
        lazy = ServiceJournal.create(tmp_path / "lazy.jsonl", fsync=False)
        lazy.record_result("a" * 64, _response())
        lazy.close()
        assert calls == []
        # flush still happened: the record is on disk either way.
        assert len(recover_journal(tmp_path / "lazy.jsonl").cache) == 1


class TestHeaderValidation:
    def test_create_writes_a_valid_header(self, tmp_path):
        path = tmp_path / "service.jsonl"
        ServiceJournal.create(path).close()
        header = read_journal_header(path)
        assert header["journal"] == "service"

    @pytest.mark.parametrize("first_line", [
        "",                                            # empty file
        "not json\n",
        "[1]\n",                                       # JSON, not an object
        json.dumps({"kind": "header", "journal": "batch"}) + "\n",
        json.dumps(
            {"kind": "header", "journal": "service", "protocol": 99}
        ) + "\n",
    ])
    def test_bad_headers_raise_service_error(self, tmp_path, first_line):
        path = tmp_path / "bad.jsonl"
        path.write_text(first_line)
        with pytest.raises(ServiceError):
            read_journal_header(path)
        with pytest.raises(ServiceError):
            recover_journal(path)


class TestCorruption:
    def test_torn_tail_is_tolerated_counted_and_truncated(self, tmp_path):
        path = tmp_path / "service.jsonl"
        journal = ServiceJournal.create(path)
        request = _request()
        journal.record_result(request.fingerprint(), _response())
        journal.close()
        clean_size = path.stat().st_size
        tear_journal_tail(path)

        metrics = MetricsRegistry()
        state = recover_journal(path, metrics=metrics)
        assert state.torn_tail is True
        assert len(state.cache) == 1
        text = metrics.to_prometheus()
        assert TORN_TAIL_COUNTER in text
        assert 'journal="service"' in text
        # recovery truncates the fragment so later appends start a
        # fresh line instead of garbling it into interior corruption.
        assert path.stat().st_size == clean_size
        follow_up = ServiceJournal.append_to(path)
        follow_up.record_result("b" * 64, _response("later"))
        follow_up.close()
        assert len(recover_journal(path).cache) == 2

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "service.jsonl"
        journal = ServiceJournal.create(path)
        journal.record_result("a" * 64, _response())
        journal.close()
        lines = path.read_text().splitlines()
        lines.insert(1, '{"kind": "result", "fing')  # torn, NOT at the tail
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ServiceError, match="corrupt"):
            recover_journal(path)

    def test_non_object_record_raises(self, tmp_path):
        path = tmp_path / "service.jsonl"
        ServiceJournal.create(path).close()
        with path.open("a") as handle:
            handle.write("[1]\n")
        with pytest.raises(ServiceError, match="line 2 is corrupt"):
            recover_journal(path)

    def test_fingerprint_mismatch_raises(self, tmp_path):
        path = tmp_path / "service.jsonl"
        journal = ServiceJournal.create(path)
        request = _request()
        journal.record_accepted("0" * 64, request, "job-1")  # wrong print
        journal.close()
        with pytest.raises(ServiceError, match="fingerprint"):
            recover_journal(path)

    def test_unknown_record_kind_raises(self, tmp_path):
        path = tmp_path / "service.jsonl"
        ServiceJournal.create(path).close()
        with path.open("a") as handle:
            handle.write(json.dumps({"kind": "gossip"}) + "\n")
        with pytest.raises(ServiceError, match="unknown"):
            recover_journal(path)

    def test_invalid_journalled_request_raises(self, tmp_path):
        path = tmp_path / "service.jsonl"
        ServiceJournal.create(path).close()
        with path.open("a") as handle:
            handle.write(json.dumps({
                "kind": "accepted",
                "fingerprint": "0" * 64,
                "job_id": "job-1",
                "request": {"net": {"name": "x"}},
            }) + "\n")
        with pytest.raises(ServiceError, match="invalid request"):
            recover_journal(path)


class TestResultCache:
    def test_get_counts_hits_and_peek_does_not(self):
        cache = ResultCache({"a": {"result": {}}})
        assert cache.peek("a") is not None
        assert cache.hits == 0
        assert cache.get("a") is not None
        assert cache.get("missing") is None
        assert cache.hits == 1
        cache.put("b", {"result": {}})
        assert len(cache) == 2
