"""Spans recorded by the benchmark around its calls into each layer.

Nothing here changes the program: :func:`instrument` temporarily swaps
a layer's public function (as the caller looks it up) for a wrapper
that records a span around the original call, and restores it on exit.
Spans stay in memory until :meth:`SpanRecorder.write` at the end of a
traced run.  A layer's self time is its span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

import repro.batch.checkpoint as checkpoint_module
import repro.batch.optimizer as optimizer_module
import repro.core.dp as dp_module
import repro.service.cache as cache_module
import repro.verify.certificate as certificate_module
from repro.errors import BudgetExceededError

#: engine phases read from ``EngineStats.phase_seconds``.
DP_PHASES = ("merge", "buffering", "wire", "prune")


class SpanRecorder:
    """Thread-safe in-memory span list with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, unit: Optional[str] = None) -> Iterator[dict]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if unit is None and parent is not None:
            unit = parent["unit"]
        record = {
            "id": 0, "name": name, "parent": None if parent is None
            else parent["id"], "unit": unit, "start": perf_counter(),
            "end": None,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            stack.pop()

    def durations(self) -> Dict[str, float]:
        """Summed duration per span name."""
        out: Dict[str, float] = defaultdict(float)
        for record in self.spans:
            out[record["name"]] += record["end"] - record["start"]
        return out

    def self_times(self) -> Dict[str, float]:
        """Summed self time (duration minus direct children) per name."""
        out: Dict[str, float] = defaultdict(float)
        for record in self.spans:
            out[record["name"]] += record["end"] - record["start"]
            if record["parent"] is not None:
                parent = self.spans[record["parent"]]
                out[parent["name"]] -= record["end"] - record["start"]
        return out

    def child_durations(self, parent_name: str, names) -> float:
        """Summed duration of spans named ``names`` directly under a
        span named ``parent_name``."""
        return sum(
            record["end"] - record["start"]
            for record in self.spans
            if record["name"] in names
            and record["parent"] is not None
            and self.spans[record["parent"]]["name"] == parent_name
        )

    def total(self, name: str, key: str) -> float:
        return sum(r.get(key, 0) for r in self.spans if r["name"] == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _spanned(recorder: SpanRecorder, name: str, fn, unit_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        unit = unit_of(*args) if unit_of is not None else None
        with recorder.span(name, unit):
            return fn(*args, **kwargs)

    return wrapper


def _traced_dp(recorder: SpanRecorder, fn):
    """``dp_result`` with stats collection on, recording the engine's
    counters and phase times on its span (and, when the candidate budget
    trips, the candidates generated before it did)."""

    @functools.wraps(fn)
    def wrapper(tree, *args, **kwargs):
        kwargs["collect_stats"] = True
        with recorder.span("core.dp", tree.name) as record:
            try:
                result = fn(tree, *args, **kwargs)
            except BudgetExceededError:
                budget = kwargs.get("budget")
                if budget is not None and budget.max_candidates:
                    record["wasted"] = round(
                        budget.candidate_pressure * budget.max_candidates
                    )
                raise
            stats = result.stats
            record["candidates"] = stats.candidates_generated
            record["frontier_peak"] = stats.frontier_peak
            for phase in DP_PHASES:
                record[phase] = stats.phase_seconds.get(phase, 0.0)
            return result

    return wrapper


# (owner, attribute, span name, unit extractor) for the plain wrappers.
_LAYER_FUNCTIONS = (
    (optimizer_module, "generate_net_from_spec", "workloads.generate",
     lambda spec, *a: spec.name),
    (optimizer_module, "segment_tree", "tree.segment",
     lambda tree, *a: tree.name),
    (optimizer_module, "optimize_net", "batch.optimize_net",
     lambda tree, *a: tree.name),
    (dp_module.DPResult, "select", "core.select", None),
    (certificate_module, "certify_or_raise", "verify.certify", None),
    (checkpoint_module.CheckpointJournal, "append",
     "batch.checkpoint_append", None),
    (cache_module.ServiceJournal, "record_accepted",
     "service.journal_append", None),
    (cache_module.ServiceJournal, "record_result",
     "service.journal_append", None),
)


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Record spans around every layer function while the block runs."""
    saved = [(optimizer_module, "dp_result", optimizer_module.dp_result)]
    optimizer_module.dp_result = _traced_dp(
        recorder, optimizer_module.dp_result
    )
    try:
        for owner, attribute, name, unit_of in _LAYER_FUNCTIONS:
            original = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute,
                    _spanned(recorder, name, original, unit_of))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def layer_metrics(recorder: SpanRecorder, units: int) -> Dict[str, float]:
    """Per-layer figures from one traced pass over ``units`` nets or
    requests.  Times are self times in ms per unit; counts are exact."""
    self_s = recorder.self_times()
    per_unit = {
        "workloads.generate_ms": "workloads.generate",
        "tree.segment_ms": "tree.segment",
        "core.dp_ms": "core.dp",
        "core.select_ms": "core.select",
        "verify.certify_ms": "verify.certify",
        "batch.optimize_net_ms": "batch.optimize_net",
        "batch.checkpoint_append_ms": "batch.checkpoint_append",
        "service.journal_append_ms": "service.journal_append",
    }
    out = {
        metric: 1e3 * self_s.get(name, 0.0) / units
        for metric, name in per_unit.items()
    }
    for phase in DP_PHASES:
        out[f"core.dp.{phase}_ms"] = (
            1e3 * recorder.total("core.dp", phase) / units
        )
    candidates = recorder.total("core.dp", "candidates")
    wasted = recorder.total("core.dp", "wasted")
    dp_seconds = recorder.durations().get("core.dp", 0.0)
    out["core.dp.candidates"] = candidates
    out["core.dp.frontier_peak"] = max(
        (r.get("frontier_peak", 0) for r in recorder.spans), default=0
    )
    out["core.dp.candidates_per_s"] = (
        candidates / dp_seconds if dp_seconds else 0.0
    )
    out["core.dp.wasted_share"] = (
        wasted / (candidates + wasted) if candidates + wasted else 0.0
    )
    # Batch overhead: optimize() wall minus the worker body it ran
    # (spec generation + optimize_net), i.e. map, fold and checkpoint.
    out["batch.overhead_ms"] = 1e3 * (
        recorder.durations().get("batch.optimize", 0.0)
        - recorder.child_durations(
            "batch.optimize", ("workloads.generate", "batch.optimize_net")
        )
    ) / units
    return out
