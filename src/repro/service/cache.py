"""The journal-backed result cache: the service's crash-recovery spine.

Two cooperating pieces:

* :class:`ServiceJournal` — an append-only JSONL file recording the
  request lifecycle: one ``header`` line, one ``accepted`` line per
  admitted request, one ``result`` line per completed request.  Every
  line is flushed (and optionally fsynced) before the write returns, so
  the journal never trails the server's promises by more than the line
  in flight.  Writes are serialized by an internal lock because HTTP
  handler threads and worker threads share one journal.

* :func:`recover_journal` — replays a journal into a
  :class:`RecoveredState`: finished work becomes the warm cache, and
  ``accepted``-without-``result`` requests — exactly the work that was
  in flight or queued when the process died — come back as *pending*,
  in admission order, for the restarted server to re-enqueue.  A torn
  final line is tolerated (the writer was killed mid-write; counted on
  the shared :data:`~repro.journal.TORN_TAIL_COUNTER` with
  ``journal="service"``); torn *interior* lines and version mismatches
  raise :class:`~repro.errors.ServiceError`, because they mean
  corruption, not interruption.

The cache key is :meth:`CanonicalRequest.fingerprint()
<repro.service.protocol.CanonicalRequest.fingerprint>` — the service
twin of the batch checkpoint fingerprint — so identical work, across
clients and across restarts, resolves to one computation and one stored
response.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import ServiceError
from ..journal import JournalReader, JournalWriter, read_header_line
from .protocol import (
    COMPATIBLE_PROTOCOLS,
    PROTOCOL_VERSION,
    CanonicalRequest,
    RequestRejected,
    request_from_json,
)

#: record kinds a service journal may contain, in lifecycle order.
RECORD_KINDS = ("header", "accepted", "result")


class ServiceJournal(JournalWriter):
    """The request-lifecycle journal: a thread-safe
    :class:`~repro.journal.JournalWriter` of ``accepted`` and ``result``
    records.  ``fsync=True`` (the default) is the durability the restart
    guarantee is advertised under."""

    @classmethod
    def create(
        cls, path: Union[str, Path], fsync: bool = True
    ) -> "ServiceJournal":
        """Start a fresh journal (truncating any previous file)."""
        header = {
            "kind": "header",
            "journal": "service",
            "protocol": PROTOCOL_VERSION,
        }
        return super().create(path, header, fsync=fsync, error=ServiceError)

    @classmethod
    def append_to(
        cls, path: Union[str, Path], fsync: bool = True
    ) -> "ServiceJournal":
        """Reopen an existing journal for appending (header must parse)."""
        read_journal_header(path)
        return cls.reopen(path, fsync=fsync, error=ServiceError)

    def record_accepted(
        self, fingerprint: str, request: CanonicalRequest, job_id: str
    ) -> None:
        """One admitted request: the promise the server must keep."""
        self.write({
            "kind": "accepted",
            "fingerprint": fingerprint,
            "job_id": job_id,
            "request": request.to_json(),
        })

    def record_result(
        self, fingerprint: str, response: Dict[str, Any]
    ) -> None:
        """One kept promise: the deterministic ``result`` + its ``meta``."""
        self.write({
            "kind": "result",
            "fingerprint": fingerprint,
            "response": response,
        })


def read_journal_header(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse and validate a service journal's header line."""
    header = read_header_line(path, ServiceError, "service journal")
    if header.get("kind") != "header" or header.get("journal") != "service":
        raise ServiceError(
            f"service journal {path} does not start with a service "
            "header record"
        )
    if header.get("protocol") not in COMPATIBLE_PROTOCOLS:
        raise ServiceError(
            f"service journal {path} speaks protocol "
            f"{header.get('protocol')!r}; this build speaks "
            f"{PROTOCOL_VERSION} (reads {COMPATIBLE_PROTOCOLS}) — "
            "refusing to mix result schemas"
        )
    return header


@dataclass
class RecoveredState:
    """What a journal replay hands the restarting server."""

    #: fingerprint -> journalled ``{"result": ..., "meta": ...}`` record.
    cache: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: ``(fingerprint, request)`` accepted but never finished, in
    #: admission order, deduplicated — the work to re-enqueue.
    pending: List[Tuple[str, CanonicalRequest]] = field(default_factory=list)
    #: whether a torn final line was skipped during replay.
    torn_tail: bool = False


def recover_journal(
    path: Union[str, Path], metrics=None
) -> RecoveredState:
    """Replay a service journal into cache + pending work.

    Records are replayed in order; a ``result`` for a fingerprint that
    was never ``accepted`` is tolerated (the accepted line may have been
    the torn tail of an *earlier* incarnation) and still populates the
    cache.  When ``metrics`` (a :class:`~repro.obs.MetricsRegistry`) is
    given, a recovered torn tail is counted on the shared torn-tail
    counter with ``journal="service"``.
    """
    path = Path(path)
    read_journal_header(path)

    state = RecoveredState()
    accepted: Dict[str, CanonicalRequest] = {}
    order: List[str] = []
    # The shared reader tolerates (counts, truncates) a torn final line
    # — the writer was killed mid-write — and refuses interior tears.
    reader = JournalReader(
        path, metrics=metrics, journal="service", error=ServiceError
    )
    for number, record in reader.records():
        kind = record.get("kind")
        if kind == "accepted":
            fingerprint = record.get("fingerprint")
            try:
                request = request_from_json(record["request"])
            except (KeyError, RequestRejected) as exc:
                raise ServiceError(
                    f"service journal {path} line {number} carries an "
                    f"invalid request record: {exc}"
                ) from None
            if request.fingerprint() != fingerprint:
                raise ServiceError(
                    f"service journal {path} line {number} fingerprint "
                    "does not match its request — journal corrupt"
                )
            if fingerprint not in accepted:
                accepted[fingerprint] = request
                order.append(fingerprint)
        elif kind == "result":
            fingerprint = record.get("fingerprint")
            response = record.get("response")
            if not isinstance(fingerprint, str) or not isinstance(
                response, dict
            ):
                raise ServiceError(
                    f"service journal {path} line {number} is not a "
                    "well-formed result record"
                )
            state.cache[fingerprint] = response
        else:
            raise ServiceError(
                f"service journal {path} line {number} has unknown "
                f"record kind {kind!r}"
            )

    state.torn_tail = reader.torn_tail
    state.pending = [
        (fingerprint, accepted[fingerprint])
        for fingerprint in order
        if fingerprint not in state.cache
    ]
    return state


class ResultCache:
    """Thread-safe fingerprint -> response map with a hit counter."""

    def __init__(self, initial: Optional[Dict[str, Dict[str, Any]]] = None):
        self._lock = threading.Lock()
        self._responses: Dict[str, Dict[str, Any]] = dict(initial or {})
        self.hits = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._responses)

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            response = self._responses.get(fingerprint)
            if response is not None:
                self.hits += 1
            return response

    def peek(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """Like :meth:`get` but without counting a hit."""
        with self._lock:
            return self._responses.get(fingerprint)

    def put(self, fingerprint: str, response: Dict[str, Any]) -> None:
        with self._lock:
            self._responses[fingerprint] = response
