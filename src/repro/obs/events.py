"""JSONL event sink: the durable backend of the tracing layer.

One :class:`EventSink` owns one JSONL file, written through the shared
:class:`~repro.journal.JournalWriter`: every record is a single
``json.dumps`` line flushed per write, so a ``kill -9`` loses at most
the record in flight; :func:`read_events` skips a torn *final* line but
raises on interior corruption, which indicates real damage rather than
an interrupted write.

Records are plain dicts; the tracing layer writes ``{"type": "span",
...}`` and ``{"type": "event", ...}`` records (see
:mod:`repro.obs.tracing`), but the sink itself is schema-agnostic so
other subsystems can journal through it too.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from ..errors import ObservabilityError
from ..journal import JournalWriter, open_fresh

#: bump when the trace record schema changes incompatibly.
TRACE_VERSION = 1


class EventSink(JournalWriter):
    """A trace file: a new sink starts ``path`` over, and records are
    flushed but not fsynced — traces are diagnostics, not recovery
    state.  Writes are serialized, so concurrent server handler threads
    can share one sink without interleaved or torn lines."""

    def __init__(self, path: Union[str, Path]):
        super().__init__(
            path, open_fresh(path), fsync=False, error=ObservabilityError
        )

    def emit(self, record: Dict[str, Any]) -> None:
        """Write one record as one flushed JSONL line."""
        self.write(record)

    @property
    def emitted(self) -> int:
        """Records emitted so far."""
        return self.written


def read_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load every record of a JSONL trace, tolerating a torn tail.

    A torn *final* line (the writer was killed mid-``write``) is
    silently dropped; a torn interior line, or any line that is not a
    JSON object, raises :class:`~repro.errors.ObservabilityError`
    because it means the file was corrupted, not merely interrupted.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        lines = handle.readlines()
    records: List[Dict[str, Any]] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if number == len(lines):
                break  # torn final line: the writer was killed mid-write
            record = None
        if not isinstance(record, dict):
            raise ObservabilityError(
                f"trace {path} line {number} is corrupt"
            )
        records.append(record)
    return records
