"""Stateful property test for the shared JSONL journal writer and reader.

A :class:`~hypothesis.stateful.RuleBasedStateMachine` drives one
:class:`~repro.journal.JournalWriter` file through arbitrary sequences
of creates, concurrent writes (1–3 threads), torn tails (a writer killed
mid-line), recovery reads with :class:`~repro.journal.JournalReader`,
reopen-then-append and closes, against a model of the complete records
the file must hold.  The invariants under any sequence:

* the reader yields exactly the model's complete records, in order
  (within one concurrent write, each thread's records keep their order);
* no line is ever interleaved with another: every terminated line is
  one whole record;
* a torn tail is counted once on the torn-tail counter and truncated
  off;
* records appended after a recovery read are read back whole.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import WorkloadError
from repro.journal import TORN_TAIL_COUNTER, JournalReader, JournalWriter
from repro.obs import MetricsRegistry
from repro.service import tear_journal_tail

HEADER = {"kind": "header", "journal": "stateful"}

#: unterminated, unparseable fragments a kill mid-``write`` leaves.
FRAGMENTS = ['{"kind": "rec", "id": 4', '{"kind', "{", '{"pad": "xx']


class JournalMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.workdir = Path(tempfile.mkdtemp(prefix="buffopt-journal-"))
        self.path = self.workdir / "journal.jsonl"
        self.writer = None
        #: the body as a list of write batches; each batch is a list of
        #: per-thread record sequences whose interleaving is free.
        self.batches = []
        #: the file ends in an unterminated fragment.
        self.torn = False
        self.metrics = MetricsRegistry()
        self.tears_recovered = 0
        self.next_id = 0

    def _open(self):
        return self.writer is not None and not self.writer.closed

    def _record(self, thread, width):
        self.next_id += 1
        return {"kind": "rec", "id": self.next_id, "thread": thread,
                "pad": "x" * width}

    # -- rules -------------------------------------------------------------

    @precondition(lambda self: not self._open())
    @rule()
    def create(self):
        self.writer = JournalWriter.create(self.path, HEADER, fsync=False)
        self.batches = []
        self.torn = False

    @precondition(lambda self: self._open())
    @rule(
        threads=st.integers(min_value=1, max_value=3),
        per_thread=st.integers(min_value=1, max_value=4),
        width=st.integers(min_value=0, max_value=9000),
    )
    def write(self, threads, per_thread, width):
        sequences = [
            [self._record(thread, width) for _ in range(per_thread)]
            for thread in range(threads)
        ]
        barrier = threading.Barrier(threads, timeout=30.0)

        def run(records):
            barrier.wait()
            for record in records:
                self.writer.write(record)

        workers = [
            threading.Thread(target=run, args=(records,))
            for records in sequences
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
            assert not worker.is_alive()
        self.batches.append(sequences)

    @precondition(lambda self: self.path.exists())
    @rule(fragment=st.sampled_from(FRAGMENTS))
    def tear(self, fragment):
        """The writer dies mid-line: its handle is gone, a fragment stays."""
        if self._open():
            self.writer.close()
        tear_journal_tail(self.path, fragment)
        self.torn = True

    @precondition(lambda self: self.path.exists())
    @rule()
    def read(self):
        reader = JournalReader(
            self.path, metrics=self.metrics, journal="stateful"
        )
        records = [record for _, record in reader.records()]
        self._check_body(records)
        assert reader.torn_tail is self.torn
        if self.torn:
            self.tears_recovered += 1
            self.torn = False
        counted = self.metrics.counter(TORN_TAIL_COUNTER).value(
            journal="stateful"
        )
        assert counted == self.tears_recovered

    @precondition(
        lambda self: self.path.exists() and not self._open()
        and not self.torn
    )
    @rule()
    def reopen(self):
        self.writer = JournalWriter.reopen(self.path, fsync=False)

    @precondition(lambda self: self._open())
    @rule()
    def close(self):
        self.writer.close()
        assert self.writer.closed
        with pytest.raises(WorkloadError, match="closed"):
            self.writer.write({"kind": "rec", "id": -1})

    # -- invariants --------------------------------------------------------

    def _check_body(self, records):
        """``records`` is the model: batch by batch, each batch a free
        interleaving of its threads' sequences, nothing else."""
        position = 0
        for sequences in self.batches:
            size = sum(len(records_) for records_ in sequences)
            chunk = records[position:position + size]
            position += size
            for thread, expected in enumerate(sequences):
                assert [r for r in chunk if r["thread"] == thread] == expected
            assert len(chunk) == size
        assert position == len(records)

    @invariant()
    def every_line_is_whole(self):
        if not self.path.exists():
            return
        text = self.path.read_text(encoding="utf-8")
        lines = text.split("\n")
        tail = lines.pop()  # "" when the file ends in a newline
        assert (tail != "") is self.torn
        assert json.loads(lines[0]) == HEADER
        body = [json.loads(line) for line in lines[1:]]
        self._check_body(body)

    def teardown(self):
        if self._open():
            self.writer.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


TestJournalMachine = JournalMachine.TestCase
TestJournalMachine.settings = settings(
    max_examples=15,
    stateful_step_count=12,
    deadline=None,
    derandomize=True,
)
