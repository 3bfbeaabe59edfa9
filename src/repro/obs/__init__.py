"""Structured observability: tracing, metrics, trace digestion.

Zero-dependency instrumentation for the whole stack, carrying one hard
contract: **no overhead when off**.  Every hook is routed through
:data:`~repro.obs.tracing.NULL_TRACER` (batch / resilience / fuzz call
sites), and instrumentation never changes candidate arithmetic — traced
runs are bit-identical to untraced ones (pinned by the obs differential
tests and the bench overhead gate).  DP phase timing is not here: the
engines' one visit loop times its phases inline into
:class:`~repro.core.stats.EngineStats` when ``collect_stats`` is set.

Layers:

* :mod:`repro.obs.tracing` — :class:`Tracer` with nested spans (stacked
  or explicit for overlapping work), point events, EngineStats deltas
  captured at span boundaries;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters /
  gauges / histograms with Prometheus-text and JSON exporters (and a
  parser for round-trips);
* :mod:`repro.obs.events` — the JSONL :class:`EventSink` (the shared
  :class:`~repro.journal.JournalWriter`: flush per record, torn tails
  tolerated);
* :mod:`repro.obs.summary` — ``buffopt trace summarize`` digestion.

See ``docs/observability.md`` for the span taxonomy and metric names.
"""

from .events import TRACE_VERSION, EventSink, read_events
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
)
from .summary import SpanAggregate, TraceSummary, summarize_trace
from .tracing import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EventSink",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanAggregate",
    "TRACE_VERSION",
    "TraceSummary",
    "Tracer",
    "parse_prometheus",
    "read_events",
    "summarize_trace",
]
