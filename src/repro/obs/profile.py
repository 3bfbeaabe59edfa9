"""Opt-in phase profiling of the DP engines.

Both engines (:class:`repro.core.dp._Engine` and
:class:`repro.core.lishi_engine.LiShiEngine`) dispatch their per-node
phases through ``self._merge_children`` / ``self._insert_buffers`` /
``self._apply_wire`` / ``self._prune``, so a profiler can wrap the
*instance* attributes — shadowing the class methods on one engine
object — without touching the hot path of unprofiled runs at all:
:func:`repro.core.dp.run_dp` installs the profiler only when
``DPOptions.profile`` is set, and the engines are byte-for-byte
untouched otherwise (the bench gate pins the ≤2 % disabled-overhead
contract).

Wrapping never changes arguments or return values, so profiled runs
stay bit-identical to unprofiled ones (asserted by the differential
obs tests, for both engines).
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, Optional

#: engine method -> canonical phase name (matches
#: :data:`repro.core.stats.PHASES` minus "finalize", which is not a
#: per-node method).
PHASE_METHODS = (
    ("_merge_children", "merge"),
    ("_insert_buffers", "buffering"),
    ("_apply_wire", "wire"),
    ("_prune", "prune"),
)


class PhaseProfiler:
    """Accumulates per-phase wall time and call counts across runs.

    One profiler may be installed on many engine instances (e.g. every
    net of a batch); the counters aggregate.  When ``metrics`` is given,
    each run's per-phase totals are also observed into the
    ``buffopt_dp_phase_seconds`` histogram at :meth:`finish` time —
    per-call observation would distort the very phases being measured.
    """

    def __init__(self, metrics=None, histogram_name: str = "buffopt_dp_phase_seconds"):
        self.phase_seconds: Dict[str, float] = {
            phase: 0.0 for _, phase in PHASE_METHODS
        }
        self.calls: Dict[str, int] = {phase: 0 for _, phase in PHASE_METHODS}
        self.runs = 0
        self._histogram = (
            None
            if metrics is None
            else metrics.histogram(
                histogram_name,
                "wall-clock seconds per DP phase per run",
            )
        )
        self._run_marks: Optional[Dict[str, float]] = None

    def install(self, engine: Any) -> Any:
        """Wrap the phase methods of one engine instance; returns it.

        Called by :func:`repro.core.dp.run_dp` right after engine
        construction when ``DPOptions.profile`` is set.
        """
        for method_name, phase in PHASE_METHODS:
            setattr(
                engine, method_name,
                self._wrap(getattr(engine, method_name), phase),
            )
        self.runs += 1
        self._run_marks = dict(self.phase_seconds)
        return engine

    def _wrap(self, bound_method, phase: str):
        seconds = self.phase_seconds
        calls = self.calls

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return bound_method(*args, **kwargs)
            finally:
                seconds[phase] += perf_counter() - start
                calls[phase] += 1

        return timed

    def finish(self) -> Dict[str, float]:
        """Flush the latest run's per-phase totals to the histogram (if
        metered) and return them."""
        marks = self._run_marks or {phase: 0.0 for phase in self.phase_seconds}
        run = {
            phase: self.phase_seconds[phase] - marks.get(phase, 0.0)
            for phase in self.phase_seconds
        }
        self._run_marks = None
        if self._histogram is not None:
            for phase, spent in run.items():
                self._histogram.observe(spent, phase=phase)
        return run

    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def describe(self) -> str:
        total = self.total_seconds()
        lines = [
            f"profiled {self.runs} run(s), "
            f"{total * 1e3:.2f} ms in phase methods"
        ]
        for _, phase in PHASE_METHODS:
            spent = self.phase_seconds[phase]
            share = 0.0 if total <= 0 else 100.0 * spent / total
            lines.append(
                f"  {phase:10s} {spent * 1e3:9.2f} ms  ({share:5.1f}%)  "
                f"{self.calls[phase]} call(s)"
            )
        return "\n".join(lines)
