"""Sharded checkpoint journals: one fleet, N independent JSONL shards.

A single append-only journal serializes every checkpoint write through
one file handle — at 10⁵–10⁶ nets the fsync line becomes the fleet's
heartbeat and its bottleneck.  A :class:`ShardedCheckpoint` splits the
journal into ``shards`` independent files inside one directory::

    fleet.ckpt/
      shard-0000.jsonl
      shard-0001.jsonl
      ...

Each shard is a standard :class:`~repro.batch.checkpoint.CheckpointJournal`
file whose header carries the shard topology *next to* — deliberately
not inside — the batch fingerprint, so a journal written with N shards
resumes cleanly under M shards.  Nets route to shards by
:func:`net_shard`, a stable SHA-256 of the net name modulo the shard
count (immune to ``PYTHONHASHSEED``), so a fixed topology always
appends a net to the same file.

Resharding is why loads are topology-blind: :func:`load_sharded_checkpoint`
reads **every** ``shard-*.jsonl`` present, not just the first ``shards``
of them.  After an N→M reshard the same net may legitimately appear in
two files (journalled under N, upgraded by a fallback pass under M);
within one file line order decides, across files the per-record ``seq``
stamp — a single writer-side counter continued across incarnations —
decides.  :func:`merge_sharded_checkpoint` collapses a shard directory
back into one canonical single-file journal, bit-identical in content
to what an unsharded run would have written (winning record per net, in
sequence order, ``seq`` stamps dropped).

Recovery parallelizes per shard (:mod:`concurrent.futures` threads —
the work is I/O plus ``json.loads``), counts recovered shards on
``buffopt_checkpoint_shards_recovered_total``, and tolerates a torn
final line *per shard* (each shard had its own writer position when the
process died), counted on the shared torn-tail counter with
``journal="batch-shard"``.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import WorkloadError
from ..journal import JournalReader
from ..library.buffers import BufferLibrary
from .checkpoint import (
    CheckpointJournal,
    check_fingerprint,
    read_checkpoint_header,
    result_from_json,
)

#: shard files inside a checkpoint directory match this pattern.
SHARD_GLOB = "shard-*.jsonl"

#: obs counter: shard files replayed during a sharded recovery.
SHARDS_RECOVERED_COUNTER = "buffopt_checkpoint_shards_recovered_total"


def shard_file(directory: Union[str, Path], index: int) -> Path:
    return Path(directory) / f"shard-{index:04d}.jsonl"


def net_shard(name: str, shards: int) -> int:
    """The shard a net routes to: stable across processes and runs.

    SHA-256 rather than ``hash()`` because the latter is salted per
    process (``PYTHONHASHSEED``); the modulo must agree between the run
    that writes and every run that resumes.
    """
    if shards < 1:
        raise WorkloadError(f"shards must be >= 1, got {shards}")
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


class ShardedCheckpoint:
    """Writer over N shard journals, presenting the single-journal API.

    ``append(result)`` routes by net name and stamps a global ``seq``;
    ``close()`` closes every shard.  The ``seq`` counter continues from
    the previous incarnation on resume (``start_seq``), keeping
    cross-file last-write-wins well defined after a reshard.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        journals: List[CheckpointJournal],
        start_seq: int = 0,
    ):
        self.directory = Path(directory)
        self._journals = journals
        self._seq = start_seq

    @property
    def shards(self) -> int:
        return len(self._journals)

    @classmethod
    def create(
        cls,
        directory: Union[str, Path],
        shards: int,
        fingerprint: Dict[str, Any],
        fsync: bool = True,
    ) -> "ShardedCheckpoint":
        """Start a fresh sharded checkpoint (wiping any previous shards,
        including leftovers from a run with a different shard count)."""
        if shards < 1:
            raise WorkloadError(f"shards must be >= 1, got {shards}")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for stale in directory.glob(SHARD_GLOB):
            stale.unlink()
        journals = [
            CheckpointJournal.create(
                shard_file(directory, index),
                fingerprint,
                fsync=fsync,
                # topology lives beside the fingerprint, never inside it:
                # resuming under a different shard count must stay legal.
                header_extra={"shard": {"index": index, "count": shards}},
            )
            for index in range(shards)
        ]
        return cls(directory, journals)

    @classmethod
    def append_to(
        cls,
        directory: Union[str, Path],
        shards: int,
        fingerprint: Dict[str, Any],
        fsync: bool = True,
        start_seq: int = 0,
    ) -> "ShardedCheckpoint":
        """Reopen (or, after an N→M reshard, part-create) shard writers.

        Existing shard files must carry a matching fingerprint; missing
        ones — the new topology has more shards than the old — are
        created.  Old shard files beyond ``shards`` are left untouched:
        loads read them, writers simply never route there again.
        """
        if shards < 1:
            raise WorkloadError(f"shards must be >= 1, got {shards}")
        directory = Path(directory)
        journals = []
        for index in range(shards):
            path = shard_file(directory, index)
            if path.exists():
                journals.append(
                    CheckpointJournal.append_to(path, fingerprint, fsync=fsync)
                )
            else:
                journals.append(CheckpointJournal.create(
                    path,
                    fingerprint,
                    fsync=fsync,
                    header_extra={"shard": {"index": index, "count": shards}},
                ))
        return cls(directory, journals, start_seq=start_seq)

    def append(self, result) -> None:
        self._seq += 1
        self._journals[net_shard(result.name, self.shards)].append(
            result, seq=self._seq
        )

    def close(self) -> None:
        for journal in self._journals:
            journal.close()

    def __enter__(self) -> "ShardedCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class ShardRecovery:
    """What a sharded load hands the resuming optimizer."""

    #: net name -> winning :class:`~repro.batch.NetResult`.
    results: Dict[str, Any] = field(default_factory=dict)
    #: highest ``seq`` stamp seen (the writer continues from here).
    max_seq: int = 0
    #: shard files replayed.
    shard_files: int = 0
    #: shards whose torn final line was repaired.
    torn_tails: int = 0


def _read_shard(
    path: Path,
    fingerprint: Optional[Dict[str, Any]],
    metrics,
) -> Tuple[List[Tuple[int, int, Dict[str, Any]]], bool]:
    """One shard's result records as ``(seq, line_number, record)``."""
    header = read_checkpoint_header(path)
    if fingerprint is not None:
        check_fingerprint(header["fingerprint"], fingerprint, path)
    reader = JournalReader(path, metrics=metrics, journal="batch-shard")
    records: List[Tuple[int, int, Dict[str, Any]]] = []
    for number, record in reader.records():
        if record.get("kind") != "result":
            raise WorkloadError(
                f"checkpoint shard {path} line {number} has unexpected "
                f"kind {record.get('kind')!r}"
            )
        records.append((int(record.get("seq", 0)), number, record))
    return records, reader.torn_tail


def _shard_paths(directory: Union[str, Path]) -> List[Path]:
    directory = Path(directory)
    paths = sorted(directory.glob(SHARD_GLOB))
    if not paths:
        raise WorkloadError(
            f"sharded checkpoint {directory} contains no shard files "
            f"(expected {SHARD_GLOB})"
        )
    return paths


def load_sharded_checkpoint(
    directory: Union[str, Path],
    library: BufferLibrary,
    fingerprint: Optional[Dict[str, Any]] = None,
    metrics=None,
    max_workers: Optional[int] = None,
) -> ShardRecovery:
    """Replay every shard file in ``directory`` into a :class:`ShardRecovery`.

    All ``shard-*.jsonl`` files participate regardless of the current
    shard count — that is what makes an N→M resharded resume land on
    exactly the single-journal result.  Per net, the record with the
    highest ``(seq, file order)`` wins, which inside one topology
    degenerates to the familiar last-line-wins.
    """
    paths = _shard_paths(directory)
    workers = max_workers or min(8, len(paths))
    recovery = ShardRecovery(shard_files=len(paths))
    winners: Dict[str, Tuple[Tuple[int, int, int], Dict[str, Any]]] = {}
    if workers > 1 and len(paths) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parsed = list(pool.map(
                lambda path: _read_shard(path, fingerprint, metrics), paths
            ))
    else:
        parsed = [_read_shard(path, fingerprint, metrics) for path in paths]
    for file_order, (records, torn) in enumerate(parsed):
        if torn:
            recovery.torn_tails += 1
        for seq, number, record in records:
            recovery.max_seq = max(recovery.max_seq, seq)
            rank = (seq, file_order, number)
            kept = winners.get(record["name"])
            if kept is None or rank > kept[0]:
                winners[record["name"]] = (rank, record)
    for name, (_, record) in winners.items():
        recovery.results[name] = result_from_json(record, library)
    if metrics is not None:
        metrics.counter(
            SHARDS_RECOVERED_COUNTER,
            "shard files replayed during sharded checkpoint recovery",
        ).inc(len(paths))
    return recovery


def merge_sharded_checkpoint(
    directory: Union[str, Path],
    output: Union[str, Path],
    fsync: bool = True,
) -> Path:
    """Collapse a shard directory into one canonical single-file journal.

    The output carries the shards' (shared) fingerprint and the winning
    record per net in global sequence order, with the ``seq`` stamps
    dropped — loading it with
    :func:`~repro.batch.checkpoint.load_checkpoint` yields exactly what
    :func:`load_sharded_checkpoint` recovers from the directory, and the
    file is indistinguishable from an unsharded run's checkpoint.
    """
    paths = _shard_paths(directory)
    fingerprint = read_checkpoint_header(paths[0])["fingerprint"]
    winners: Dict[str, Tuple[Tuple[int, int, int], Dict[str, Any]]] = {}
    for file_order, path in enumerate(paths):
        records, _ = _read_shard(path, fingerprint, metrics=None)
        for seq, number, record in records:
            rank = (seq, file_order, number)
            kept = winners.get(record["name"])
            if kept is None or rank > kept[0]:
                winners[record["name"]] = (rank, record)
    output = Path(output)
    journal = CheckpointJournal.create(output, fingerprint, fsync=fsync)
    try:
        for rank, record in sorted(winners.values(), key=lambda won: won[0]):
            clean = {key: value for key, value in record.items()
                     if key != "seq"}
            journal.write(clean)
    finally:
        journal.close()
    return output
