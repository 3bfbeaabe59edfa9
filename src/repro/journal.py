"""Append-only JSONL journals: the one writer and the one reader.

Every durable record stream in the package — the batch checkpoint and
its shard files, the fleet journal, the service journal and the trace
sink — is a JSONL file written by :class:`JournalWriter`: one
``json.dumps(record, sort_keys=True)`` line per record, written and
flushed (and optionally fsynced) under a lock, so a ``kill -9`` loses at
most the line in flight and concurrent writers never interleave lines.

:class:`JournalReader` reads the headed journals back: a torn *final*
line means an interrupted write (tolerated, counted, truncated off) and
a torn *interior* line means corruption (refused).  Record schemas and
header validation stay with the callers; :func:`read_header_line` is
the first-line parse they share.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Union

from .errors import WorkloadError

#: counter incremented (on an optional obs registry) whenever a torn
#: trailing line is recovered from — the observable trace of the
#: kill-mid-write path actually firing.  Shared by every headed journal,
#: distinguished by the ``journal`` label.
TORN_TAIL_COUNTER = "buffopt_checkpoint_torn_tail_recovered_total"


def record_torn_tail(metrics, journal: str) -> None:
    """Count one recovered torn tail on ``metrics`` (no-op when None)."""
    if metrics is None:
        return
    metrics.counter(
        TORN_TAIL_COUNTER,
        "torn trailing journal lines skipped during recovery",
    ).inc(journal=journal)


def repair_torn_tail(path: Union[str, Path], lines: List[str]) -> None:
    """Truncate a journal's torn final line off the file.

    Recovery *tolerating* the tear is not enough when the journal will
    be appended to afterwards: the next record would concatenate onto
    the unterminated fragment, turning an interrupted write into
    interior corruption on the incarnation after next.  ``lines`` is
    the full ``readlines()`` content whose last entry is the torn
    fragment.  A read-only file (e.g. an archived CI artifact being
    inspected) is left alone.
    """
    keep = sum(len(line.encode("utf-8")) for line in lines[:-1])
    try:
        with open(path, "rb+") as handle:
            handle.truncate(keep)
    except OSError:
        pass


def read_header_line(
    path: Union[str, Path], error: type, label: str
) -> Dict[str, Any]:
    """Parse a journal's first line; ``error`` unless it is a JSON object.

    ``label`` names the journal in the message (``"checkpoint"``,
    ``"service journal"``); what the header must contain is the
    caller's to check.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        first = handle.readline()
    try:
        header = json.loads(first)
    except json.JSONDecodeError:
        header = None
    if not isinstance(header, dict):
        raise error(f"{label} {path} has no readable header line")
    return header


class JournalReader:
    """Torn-tail-tolerant JSONL body reader shared by every headed journal.

    ``error`` is the exception class corruption raises
    (:class:`~repro.errors.WorkloadError` for batch journals,
    ``ServiceError`` for service ones); ``journal`` labels the shared
    torn-tail counter.
    """

    def __init__(
        self,
        path: Union[str, Path],
        metrics=None,
        journal: str = "batch",
        error: type = WorkloadError,
    ):
        self.path = Path(path)
        self.metrics = metrics
        self.journal = journal
        self.error = error
        #: set when a torn final line was skipped (and truncated off).
        self.torn_tail = False

    def records(self):
        """Yield ``(line_number, record)`` for every body record."""
        with self.path.open("r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for number, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if number == len(lines):
                    # torn final line: the writer was killed mid-write
                    record_torn_tail(self.metrics, journal=self.journal)
                    repair_torn_tail(self.path, lines)
                    self.torn_tail = True
                    return
                record = None
            if not isinstance(record, dict):
                raise self.error(
                    f"journal {self.path} line {number} is corrupt"
                )
            yield number, record


def open_fresh(path: Union[str, Path]) -> TextIO:
    """Truncate ``path`` (creating its directories) and open it O_APPEND.

    Every flushed line must land at the true end of file even if another
    handle (a sidecar writer, an operator tool) appended in between — a
    plain ``"w"`` handle would silently overwrite those records at its
    own position.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.open("w", encoding="utf-8").close()
    return path.open("a", encoding="utf-8")


class JournalWriter:
    """Append-only, thread-safe JSONL writer, flushed per record.

    ``fsync=True`` forces every record to stable storage, so a machine
    crash — not just a process kill — loses at most the record in
    flight.  ``fsync=False`` trades that durability for append
    throughput: the per-line flush still protects against process
    death, which is the only fault a same-machine restart can observe
    anyway.  ``error`` is the exception class a write after
    :meth:`close` raises.
    """

    def __init__(
        self,
        path: Union[str, Path],
        handle: TextIO,
        fsync: bool = True,
        error: type = WorkloadError,
    ):
        self.path = Path(path)
        self.error = error
        self._handle = handle
        self._fsync = fsync
        self._lock = threading.Lock()
        #: records written through this writer.
        self.written = 0

    @classmethod
    def create(
        cls,
        path: Union[str, Path],
        header: Optional[Dict[str, Any]] = None,
        fsync: bool = True,
        error: type = WorkloadError,
    ) -> "JournalWriter":
        """Start a fresh journal (truncating any previous file), with
        ``header`` as its first record when given."""
        writer = cls(path, open_fresh(path), fsync=fsync, error=error)
        if header is not None:
            writer.write(header)
        return writer

    @classmethod
    def reopen(
        cls,
        path: Union[str, Path],
        fsync: bool = True,
        error: type = WorkloadError,
    ) -> "JournalWriter":
        """Open an existing journal for appending (the caller has
        validated its header)."""
        handle = Path(path).open("a", encoding="utf-8")
        return cls(path, handle, fsync=fsync, error=error)

    def write(self, record: Dict[str, Any]) -> None:
        """Write one record as one flushed (and maybe fsynced) line."""
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            if self._handle.closed:
                raise self.error(
                    f"journal {self.path} is closed; no further records "
                    "can be written"
                )
            self._handle.write(line)
            self._handle.flush()
            if self._fsync:
                os.fsync(self._handle.fileno())
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

