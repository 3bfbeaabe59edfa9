"""The stable public API: one session, one optimize call, one result.

PRs 1–4 grew four overlapping entry points (``run_dp``, two
per-mode result functions, ``BatchConfig`` + four CLI subcommands);
this module is the consolidation seam on top of them:

* :func:`dp_result` — the unified functional entry: one signature, one
  :class:`~repro.api.Objective` naming the DP mode (``"buffopt"`` /
  ``"delay"``) and the selection, every engine knob.  The batch layer
  calls it directly.
* :class:`Session` — the object facade owning the observability wiring
  (:class:`~repro.obs.Tracer`, :class:`~repro.obs.MetricsRegistry`,
  optional JSONL trace / Prometheus exports) plus the library /
  coupling / technology defaults, so ``Session(options).optimize(net)``
  is the whole quickstart::

      from repro.api import Objective, Session, SessionOptions

      objective = Objective(mode="buffopt", selection="fewest-buffers")
      with Session(SessionOptions(objective=objective, engine="lishi")) as s:
          result = s.optimize(tree)
          print(result.describe())

All observability is opt-in: a default ``Session`` traces nothing,
meters into an in-memory registry only, and runs the engines byte-for-
byte identically to the raw entry points (the bench gate enforces ≤2 %
facade overhead with instrumentation disabled).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Optional

from .core.budget import RunBudget
from .core.dp import ENGINE_CHOICES, DPOptions, DPOutcome, DPResult, run_dp
from .core.objective import Objective
from .core.solution import BufferSolution
from .errors import ReproError
from .library.buffers import BufferLibrary, default_buffer_library
from .library.cells import DriverCell
from .library.power import PowerModel, default_power_model
from .library.technology import Technology, default_technology
from .noise.coupling import CouplingModel
from .obs import NULL_TRACER, EventSink, MetricsRegistry, Tracer
from .tree.segmenting import segment_tree
from .tree.topology import RoutingTree
from .units import UM

def dp_result(
    tree: RoutingTree,
    library: BufferLibrary,
    coupling: Optional[CouplingModel] = None,
    *,
    objective: Objective = Objective(),
    driver: Optional[DriverCell] = None,
    max_buffers: Optional[int] = None,
    enforce_polarity: bool = True,
    prune: str = "timing",
    collect_stats: bool = False,
    budget: Optional[RunBudget] = None,
    engine: str = "reference",
    frontier_cache=None,
    site_prices=None,
    power: Optional[PowerModel] = None,
) -> DPResult:
    """One count-tracking DP run, returning every per-count outcome.

    ``objective`` is the structured spec (:class:`~repro.api.Objective`)
    naming the DP mode and the downstream selection; pick the outcome
    with ``dp_result(...).select(objective)``.  A buffopt-mode objective
    is the paper's Algorithm 3 (noise-aware; a ``coupling`` model is
    required), a delay-mode one the DelayOpt baseline (``coupling`` is
    ignored — the engine runs silent).

    ``power`` attaches a :class:`~repro.library.PowerModel`, making
    every outcome carry its accumulated buffer + wire power; when the
    objective needs power (``min-power`` / ``power-capped`` /
    ``pareto`` selections) and none is given, the default model is
    used.  ``collect_stats`` puts an
    :class:`~repro.core.stats.EngineStats` record on the result,
    per-phase wall time included.  ``frontier_cache`` (a
    :class:`~repro.core.eco.FrontierCache`) enables ECO subtree reuse
    across repeated runs of locally edited nets; reference engine only.  ``site_prices`` (node name ->
    nonnegative price) threads Lagrangian shared-site costs into the
    buffer-insertion cost term (see
    :attr:`~repro.core.dp.DPOptions.site_prices`); outcome slacks are
    then *priced* slacks, and ``None``/empty prices are bit-identical
    to an unpriced run.
    """
    if power is None and objective.power_aware:
        power = default_power_model()
    noise_aware = objective.noise_aware
    if noise_aware:
        if coupling is None:
            raise ValueError(
                "a buffopt objective requires a coupling model (pass "
                "CouplingModel.estimation_mode(technology) or similar)"
            )
    else:
        coupling = CouplingModel.silent()
    options = DPOptions(
        noise_aware=noise_aware,
        track_counts=True,
        max_buffers=max_buffers,
        enforce_polarity=enforce_polarity,
        prune=prune,
        collect_stats=collect_stats,
        budget=budget,
        engine=engine,
        frontier_cache=frontier_cache,
        site_prices=site_prices,
        power=power,
    )
    return run_dp(tree, library, coupling=coupling, options=options,
                  driver=driver)


@dataclass(frozen=True)
class SessionOptions:
    """Per-session optimization + observability policy.

    The optimization fields mirror :class:`~repro.batch.BatchConfig`
    (same names, same semantics) so a session and a batch configured
    alike produce identical solutions.
    """

    #: DP implementation: ``"reference"`` (the readable spec) or
    #: ``"lishi"`` (O(bn²), equivalent within float tolerance); the
    #: retired names ``"fast"`` and ``"auto"`` run lishi.
    engine: str = "reference"
    #: Lillis count cap (``None`` = uncapped).
    max_buffers: Optional[int] = None
    #: engine pruning rule: ``"timing"`` (paper) or ``"pareto"``.
    prune: str = "timing"
    #: wire segmentation applied before the DP; ``None`` skips it.
    max_segment_length: Optional[float] = 500 * UM
    enforce_polarity: bool = True
    #: collect :class:`~repro.core.stats.EngineStats` per net, which
    #: also fills :attr:`OptimizeResult.phase_seconds` and feeds the
    #: ``buffopt_dp_phase_seconds`` histogram.
    collect_stats: bool = False
    #: cooperative per-net deadline / candidate budget (as in batch).
    net_deadline: Optional[float] = None
    net_max_candidates: Optional[int] = None
    #: write a JSONL span/event trace of the session here (``None`` =
    #: no trace; in-memory spans are kept only when tracing is on).
    trace_path: Optional[str] = None
    #: write Prometheus text metrics here on :meth:`Session.close`.
    metrics_path: Optional[str] = None
    #: the structured optimization objective (mode, selection, slack
    #: floor); the default is the paper's BuffOpt tool configuration.
    objective: Objective = Objective()

    def __post_init__(self) -> None:
        if self.objective.selection == "pareto":
            raise ValueError(
                "Session.optimize selects a single outcome; the 'pareto' "
                "selection returns a frontier — use "
                "dp_result(...).pareto_outcomes() directly"
            )
        if self.engine not in ENGINE_CHOICES:
            raise ValueError(
                f"unknown engine {self.engine!r} "
                f"(expected one of {ENGINE_CHOICES})"
            )
        if self.prune not in ("timing", "pareto"):
            raise ValueError(f"unknown prune rule {self.prune!r}")
        if (
            self.max_segment_length is not None
            and self.max_segment_length <= 0
        ):
            raise ValueError(
                "max_segment_length must be positive or None, got "
                f"{self.max_segment_length}"
            )


@dataclass(frozen=True)
class OptimizeResult:
    """One net's outcome through the facade: selection plus provenance.

    Wraps the full per-count :class:`~repro.core.dp.DPResult` (so every
    outcome stays reachable) together with the mode's selected
    :class:`~repro.core.dp.DPOutcome` and the segmented work tree the
    assignment refers to.
    """

    name: str
    mode: str
    seconds: float
    tree: RoutingTree
    result: DPResult
    outcome: DPOutcome
    #: per-phase engine wall time (``EngineStats.phase_seconds``),
    #: present when the session collects stats.
    phase_seconds: Optional[Dict[str, float]] = None
    #: the objective the selection answered (provenance).
    objective: Optional[Objective] = None

    @property
    def buffer_count(self) -> int:
        return self.outcome.buffer_count

    @property
    def slack(self) -> float:
        return self.outcome.slack

    @property
    def noise_feasible(self) -> bool:
        return self.outcome.noise_feasible

    @property
    def power(self) -> float:
        """Accumulated solution power (0.0 on power-off runs)."""
        return self.outcome.power

    def solution(self) -> BufferSolution:
        """The selected assignment, materialized on the work tree."""
        return self.result.solution(self.outcome)

    def describe(self) -> str:
        lines = [
            f"{self.name} ({self.mode}): {self.buffer_count} buffer(s), "
            f"slack {self.slack:.4g}, "
            f"noise {'ok' if self.noise_feasible else 'violated'}, "
            f"{self.seconds * 1e3:.2f} ms"
        ]
        if self.phase_seconds:
            shares = "  ".join(
                f"{phase}: {spent * 1e3:.2f} ms"
                for phase, spent in self.phase_seconds.items()
                if spent > 0.0
            )
            if shares:
                lines.append(f"  phases: {shares}")
        return "\n".join(lines)


class Session:
    """The stable facade: defaults, observability, and one entry point.

    Parameters beyond ``options`` override the paper-default substrate
    (11-buffer library, estimation-mode coupling).  ``tracer`` /
    ``metrics`` inject externally owned instrumentation — e.g. the CLI
    shares one registry between a session and a batch — otherwise the
    session builds its own from ``options.trace_path`` /
    ``options.metrics_path``.

    Sessions are context managers; :meth:`close` flushes the Prometheus
    export and closes an owned trace sink.
    """

    def __init__(
        self,
        options: Optional[SessionOptions] = None,
        *,
        library: Optional[BufferLibrary] = None,
        coupling: Optional[CouplingModel] = None,
        technology: Optional[Technology] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        power_model: Optional[PowerModel] = None,
    ):
        self.options = options or SessionOptions()
        self.technology = technology or default_technology()
        self.library = library or default_buffer_library()
        self.coupling = coupling or CouplingModel.estimation_mode(
            self.technology
        )
        # A power-aware objective needs a model; the default one rides
        # the session's technology so overriding the technology is
        # enough to reparametrize power too.
        if power_model is None and self.options.objective.power_aware:
            power_model = default_power_model(self.technology)
        self.power_model = power_model
        self._owns_tracer = tracer is None
        if tracer is not None:
            self.tracer = tracer
        elif self.options.trace_path is not None:
            self.tracer = Tracer(sink=EventSink(self.options.trace_path))
        else:
            self.tracer = NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._phase_histogram = (
            self.metrics.histogram(
                "buffopt_dp_phase_seconds",
                "wall-clock seconds per DP phase per run",
            )
            if self.options.collect_stats
            else None
        )
        self._nets = self.metrics.counter(
            "buffopt_session_nets_total",
            "nets optimized through the session facade",
        )
        self._seconds = self.metrics.histogram(
            "buffopt_session_optimize_seconds",
            "wall-clock seconds per Session.optimize call",
        )
        self._closed = False

    def _budget(self) -> Optional[RunBudget]:
        if (
            self.options.net_deadline is None
            and self.options.net_max_candidates is None
        ):
            return None
        budget = RunBudget(
            deadline_seconds=self.options.net_deadline,
            max_candidates=self.options.net_max_candidates,
        )
        budget.start()
        return budget

    def optimize(
        self,
        tree: RoutingTree,
        driver: Optional[DriverCell] = None,
    ) -> OptimizeResult:
        """Segment, run the DP, select the mode's outcome, meter it all.

        Raises the engine's own errors (:class:`InfeasibleError`,
        budget/deadline errors) unchanged — the facade adds telemetry,
        never failure semantics.
        """
        options = self.options
        objective = options.objective
        start = perf_counter()
        with self.tracer.span(
            "session.optimize",
            net=tree.name,
            mode=objective.mode,
            engine=options.engine,
        ) as span:
            try:
                budget = self._budget()
                if options.max_segment_length is not None:
                    work_tree = segment_tree(
                        tree, options.max_segment_length
                    )
                else:
                    work_tree = tree
                result = dp_result(
                    work_tree,
                    self.library,
                    self.coupling if objective.noise_aware else None,
                    objective=objective,
                    driver=driver,
                    max_buffers=options.max_buffers,
                    enforce_polarity=options.enforce_polarity,
                    prune=options.prune,
                    collect_stats=options.collect_stats,
                    budget=budget,
                    engine=options.engine,
                    power=self.power_model,
                )
                outcome = result.select(objective)
            except ReproError as exc:
                self._nets.inc(
                    mode=objective.mode, engine=options.engine,
                    status=type(exc).__name__,
                )
                raise
            seconds = perf_counter() - start
            phase_seconds = None
            if result.stats is not None:
                phase_seconds = dict(result.stats.phase_seconds)
                for phase, spent in phase_seconds.items():
                    self._phase_histogram.observe(spent, phase=phase)
            span.annotate(
                buffer_count=outcome.buffer_count,
                slack=outcome.slack,
                noise_feasible=outcome.noise_feasible,
                candidates_generated=result.candidates_generated,
            )
        self._nets.inc(mode=objective.mode, engine=options.engine, status="ok")
        self._seconds.observe(
            seconds, mode=objective.mode, engine=options.engine
        )
        return OptimizeResult(
            name=work_tree.name,
            mode=objective.mode,
            seconds=seconds,
            tree=work_tree,
            result=result,
            outcome=outcome,
            phase_seconds=phase_seconds,
            objective=objective,
        )

    def export_metrics(self) -> str:
        """The session's metrics in Prometheus text format."""
        return self.metrics.to_prometheus()

    def close(self) -> None:
        """Write the Prometheus export (if configured), close the trace."""
        if self._closed:
            return
        self._closed = True
        if self.options.metrics_path is not None:
            self.metrics.write_prometheus(self.options.metrics_path)
        if self._owns_tracer:
            self.tracer.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
