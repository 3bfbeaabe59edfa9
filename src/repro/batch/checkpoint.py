"""Checkpoint/resume for batch runs: a JSONL journal of finished nets.

A population run over millions of nets will be interrupted — preemption,
OOM, a deploy — and recomputing everything is the one cost a resilient
engine must not pay.  ``BatchOptimizer.optimize(..., checkpoint=path)``
appends one JSON line per completed :class:`~repro.batch.NetResult`
(success *or* structured failure), flushed per line so a ``kill -9``
loses at most the nets in flight; ``resume=True`` reloads the journal
and recomputes only the missing nets.

Format: line 1 is a header carrying a version and a *fingerprint* of the
solution-relevant configuration (mode, segmentation, count cap, pruning
rule, slack floor, workload seed).  Resuming under a different
fingerprint would silently mix incompatible solutions, so it raises
:class:`~repro.errors.WorkloadError` instead.  Every further line is one
result keyed by net name; if a net appears twice (e.g. a fallback pass
upgraded a failure), the *last* line wins.  A torn trailing line —  the
writer was killed mid-``write`` — is ignored on load.

Journaled results are deliberately lean: buffer assignments are stored
by buffer *name* and rebound against the optimizer's library on load;
trees and :class:`~repro.core.stats.EngineStats` are not persisted
(signatures — the determinism currency of the batch layer — survive the
round trip bit-identically, which the checkpoint tests pin down).
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..errors import WorkloadError
from ..journal import JournalReader, JournalWriter, read_header_line
from ..library.buffers import BufferLibrary

#: bump when the journal schema changes incompatibly.
CHECKPOINT_VERSION = 1

def result_to_json(result) -> Dict[str, Any]:
    """Plain-JSON view of a :class:`~repro.batch.NetResult` (no trees/stats)."""
    failure = None if result.failure is None else asdict(result.failure)
    assignment = (
        None
        if result.assignment is None
        else {node: buffer.name for node, buffer in result.assignment.items()}
    )
    record = {
        "kind": "result",
        "name": result.name,
        "sink_count": result.sink_count,
        "node_count": result.node_count,
        "seconds": result.seconds,
        "buffer_count": result.buffer_count,
        "slack": result.slack,
        "noise_feasible": result.noise_feasible,
        "assignment": assignment,
        "candidates_generated": result.candidates_generated,
        "candidates_kept_peak": result.candidates_kept_peak,
        "error": result.error,
        "attempts": result.attempts,
        "failure": failure,
        "certified": result.certified,
    }
    # power is journaled only when the run computed one, so power-off
    # journals stay byte-identical to the pre-power schema.
    if result.power is not None:
        record["power"] = result.power
    return record


def result_from_json(record: Dict[str, Any], library: BufferLibrary):
    """Rebuild a :class:`~repro.batch.NetResult` journaled by
    :func:`result_to_json`, rebinding buffer names against ``library``."""
    from .optimizer import FailureRecord, NetResult  # circular at import time

    by_name = {buffer.name: buffer for buffer in library}
    assignment = record["assignment"]
    if assignment is not None:
        try:
            assignment = {
                node: by_name[name] for node, name in assignment.items()
            }
        except KeyError as exc:
            raise WorkloadError(
                f"checkpoint for net {record['name']!r} references buffer "
                f"{exc.args[0]!r}, which this library does not define"
            ) from None
    failure = record.get("failure")
    if failure is not None:
        failure = FailureRecord(**failure)
    return NetResult(
        name=record["name"],
        sink_count=record["sink_count"],
        node_count=record["node_count"],
        seconds=record["seconds"],
        buffer_count=record["buffer_count"],
        slack=record["slack"],
        noise_feasible=record["noise_feasible"],
        assignment=assignment,
        candidates_generated=record["candidates_generated"],
        candidates_kept_peak=record["candidates_kept_peak"],
        error=record["error"],
        attempts=record.get("attempts", 1),
        failure=failure,
        certified=record.get("certified"),
        power=record.get("power"),
    )


class CheckpointJournal(JournalWriter):
    """The batch checkpoint: a :class:`~repro.journal.JournalWriter`
    whose records are journaled :class:`~repro.batch.NetResult` lines."""

    @classmethod
    def create(
        cls,
        path: Union[str, Path],
        fingerprint: Dict[str, Any],
        fsync: bool = True,
        header_extra: Optional[Dict[str, Any]] = None,
    ) -> "CheckpointJournal":
        """Start a fresh journal (truncating any previous file).

        ``header_extra`` merges additional keys into the header record —
        the sharded checkpoint stores its shard topology there, *next
        to* the fingerprint rather than inside it, so resuming under a
        different shard count stays legal.
        """
        header = {
            "kind": "header",
            "version": CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
        }
        if header_extra:
            header.update(header_extra)
        return super().create(path, header, fsync=fsync)

    @classmethod
    def append_to(
        cls,
        path: Union[str, Path],
        fingerprint: Dict[str, Any],
        fsync: bool = True,
    ) -> "CheckpointJournal":
        """Reopen an existing journal for appending (header must match)."""
        header = read_checkpoint_header(path)
        check_fingerprint(header["fingerprint"], fingerprint, path)
        return cls.reopen(path, fsync=fsync)

    def append(self, result, seq: Optional[int] = None) -> None:
        """Journal one result; ``seq`` (when given) stamps a global
        write sequence onto the record so loads spanning several shard
        files can order conflicting lines (within one file, line order
        already decides)."""
        record = result_to_json(result)
        if seq is not None:
            record["seq"] = seq
        self.write(record)


def read_checkpoint_header(path: Union[str, Path]) -> Dict[str, Any]:
    header = read_header_line(path, WorkloadError, "checkpoint")
    if header.get("kind") != "header":
        raise WorkloadError(
            f"checkpoint {path} does not start with a header record"
        )
    if header.get("version") != CHECKPOINT_VERSION:
        raise WorkloadError(
            f"checkpoint {path} is version {header.get('version')!r}; this "
            f"build reads version {CHECKPOINT_VERSION}"
        )
    return header


def check_fingerprint(
    found: Dict[str, Any], expected: Dict[str, Any], path: Union[str, Path]
) -> None:
    if found != expected:
        differing = sorted(
            key
            for key in set(found) | set(expected)
            if found.get(key) != expected.get(key)
        )
        raise WorkloadError(
            f"checkpoint {path} was written under a different batch "
            f"configuration (differs on: {', '.join(differing)}); resuming "
            "would mix incompatible solutions — delete the checkpoint or "
            "rerun with the original configuration"
        )


def load_checkpoint(
    path: Union[str, Path],
    library: BufferLibrary,
    fingerprint: Optional[Dict[str, Any]] = None,
    metrics=None,
) -> Dict[str, Any]:
    """Load completed results keyed by net name (last line per net wins).

    ``fingerprint`` (when given) must match the journal header.  Torn
    trailing lines are skipped; torn *interior* lines raise, because
    they indicate corruption rather than an interrupted write.  When a
    torn tail is skipped and ``metrics`` (a
    :class:`~repro.obs.MetricsRegistry`) is given, the recovery is
    counted on :data:`~repro.journal.TORN_TAIL_COUNTER` so crash-recovery
    paths stay observable in production.
    """
    path = Path(path)
    header = read_checkpoint_header(path)
    if fingerprint is not None:
        check_fingerprint(header["fingerprint"], fingerprint, path)
    results: Dict[str, Any] = {}
    reader = JournalReader(path, metrics=metrics, journal="batch")
    for number, record in reader.records():
        if record.get("kind") != "result":
            raise WorkloadError(
                f"checkpoint {path} line {number} has unexpected kind "
                f"{record.get('kind')!r}"
            )
        results[record["name"]] = result_from_json(record, library)
    return results
