"""Fleet-scale buffer optimization: many nets, one call.

:class:`BatchOptimizer` runs the DP engine over an iterable of nets —
pre-built :class:`~repro.tree.topology.RoutingTree`s /
:class:`~repro.workloads.GeneratedNet`s, or deferred
:class:`~repro.workloads.NetSpec`s materialized inside the workers — with
a pluggable executor (:mod:`repro.batch.executors`), and returns per-net
results plus an aggregate :class:`BatchReport`.

Design points:

* **Bit-identical to single-net calls.**  Each worker runs exactly
  :func:`optimize_net`, which wraps the same public entry point
  (:func:`repro.api.dp_result`) a caller would use directly; the
  differential harness asserts equality for every executor.
* **Observable.**  Passing a :class:`~repro.obs.Tracer` and/or
  :class:`~repro.obs.MetricsRegistry` to :class:`BatchOptimizer` emits
  batch/map/fallback spans, one event per completed net, and
  fleet-level counters/histograms (``buffopt batch --trace/--metrics``
  rides this); omitting both keeps every call site on the no-op path.
* **Deterministic under multiprocessing.**  Spec items carry explicit
  per-net seeds (:class:`~repro.workloads.NetSpec`), so worker-side
  generation never depends on inherited RNG state or scheduling order.
* **Telemetry.**  With ``BatchConfig(collect_stats=True)`` every result
  carries an :class:`~repro.core.stats.EngineStats` record and the report
  aggregates them, making ``prune="timing"`` vs ``prune="pareto"``
  ablations measurable at population scale.
* **Light on the wire.**  Workers return assignments and telemetry, not
  solutions-with-trees, unless ``keep_trees`` asks for reconstruction
  material; infeasible nets come back as recorded errors instead of
  poisoning the whole batch.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..api import dp_result
from ..core.budget import RunBudget
from ..core.dp import ENGINE_CHOICES
from ..core.objective import Objective
from ..core.solution import BufferSolution
from ..core.stats import EngineStats
from ..errors import (
    BudgetExceededError,
    CertificateError,
    InfeasibleError,
    ReproError,
    TimeoutError,
    WorkloadError,
)
from ..library.buffers import BufferLibrary, BufferType, default_buffer_library
from ..library.cells import CellLibrary, default_cell_library
from ..library.technology import Technology, default_technology
from ..noise.coupling import CouplingModel
from ..obs import NULL_TRACER, MetricsRegistry, Tracer
from ..tree.segmenting import segment_tree
from ..tree.topology import RoutingTree
from ..units import UM
from ..workloads.generator import (
    GeneratedNet,
    NetSpec,
    WorkloadConfig,
    generate_net_from_spec,
    population_specs,
)
from .checkpoint import CheckpointJournal, load_checkpoint
from .executors import SerialExecutor
from .faults import FaultPlan
from .report import ReportFold
from .resilience import RetryPolicy, WorkItemFailure
from .sharding import SHARD_GLOB, ShardedCheckpoint, load_sharded_checkpoint

#: accepted item types for :meth:`BatchOptimizer.optimize`.
BatchItem = Union[RoutingTree, GeneratedNet, NetSpec]


class _FoldedResult:
    """Placeholder left in the results list once a streaming run has
    folded a result into its :class:`~repro.batch.report.ReportFold` and
    dropped the object (the whole point: constant memory at fleet
    scale).  Failed results are *parked* — left unfolded — until the
    fallback pass has had its final say, because a fold cannot be
    undone (histograms only increment)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<folded>"


_FOLDED = _FoldedResult()


@dataclass(frozen=True)
class BatchConfig:
    """Per-net optimization policy shared across the whole batch."""

    #: wire segmentation applied before the DP; ``None`` skips it (the
    #: trees are then expected to be segmented already).
    max_segment_length: Optional[float] = 500 * UM
    #: Lillis count cap forwarded to the engine (``None`` = uncapped).
    max_buffers: Optional[int] = None
    #: engine pruning rule: ``"timing"`` (paper) or ``"pareto"`` (ablation).
    prune: str = "timing"
    #: collect :class:`~repro.core.stats.EngineStats` per net.
    collect_stats: bool = False
    #: ship each (segmented) tree back so solutions can be materialized.
    keep_trees: bool = True
    #: cooperative per-net wall-clock deadline in seconds (``None`` =
    #: unbounded); enforced inside the DP loop via
    #: :class:`~repro.core.budget.RunBudget`, recorded as a structured
    #: ``TimeoutError`` failure instead of aborting the batch.
    net_deadline: Optional[float] = None
    #: per-net generated-candidate budget, the engine's memory proxy
    #: (``None`` = uncapped); overruns become ``BudgetExceededError``
    #: failures.
    net_max_candidates: Optional[int] = None
    #: retry/fallback policy the optimizer applies after the map (and
    #: that callers typically share with a
    #: :class:`~repro.batch.ResilientExecutor`); ``None`` disables the
    #: fallback pass.
    retry: Optional[RetryPolicy] = None
    #: independently re-derive each selected outcome's claims with the
    #: certificate checker (:mod:`repro.verify`); a refuted claim becomes
    #: a structured ``CertificateError`` failure in the ``"certify"``
    #: phase instead of a silently wrong solution.
    certify: bool = False
    #: DP implementation: ``"reference"`` or ``"lishi"`` (semantically
    #: equivalent within float tolerance; see
    #: :mod:`repro.core.lishi_engine`); the retired names ``"fast"`` and
    #: ``"auto"`` run lishi.  Excluded from the checkpoint fingerprint,
    #: so a resumed batch may switch engines.
    engine: str = "reference"
    #: the structured optimization objective (mode, selection, slack
    #: floor); the default is the paper's BuffOpt tool configuration.
    #: Legacy-shaped objectives keep the pre-objective checkpoint
    #: fingerprint schema so old journals still resume.
    objective: Objective = Objective()

    def __post_init__(self) -> None:
        if self.objective.selection == "pareto":
            raise WorkloadError(
                "a batch selects a single outcome per net; the 'pareto' "
                "selection returns a frontier — use "
                "dp_result(...).pareto_outcomes() directly"
            )
        if self.engine not in ENGINE_CHOICES:
            raise WorkloadError(
                f"unknown engine {self.engine!r} "
                f"(expected one of {ENGINE_CHOICES})"
            )
        if (
            self.max_segment_length is not None
            and self.max_segment_length <= 0
        ):
            raise WorkloadError(
                "max_segment_length must be positive or None, got "
                f"{self.max_segment_length}"
            )
        if self.net_deadline is not None and self.net_deadline <= 0:
            raise WorkloadError(
                "net_deadline must be a positive number of seconds or "
                f"None, got {self.net_deadline}"
            )
        if self.net_max_candidates is not None and self.net_max_candidates < 1:
            raise WorkloadError(
                "net_max_candidates must be >= 1 or None, got "
                f"{self.net_max_candidates}"
            )
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            # RetryPolicy itself rejects zero max-attempts and negative
            # backoffs; this catches the wrong-type case early.
            raise WorkloadError(
                f"retry must be a RetryPolicy or None, got {self.retry!r}"
            )

    def run_budget(self) -> Optional[RunBudget]:
        """A fresh per-run budget from this config (``None`` if unbounded).

        Budgets are stateful, so every net gets its own instance."""
        if self.net_deadline is None and self.net_max_candidates is None:
            return None
        return RunBudget(
            deadline_seconds=self.net_deadline,
            max_candidates=self.net_max_candidates,
        )


def objective_fingerprint(objective: Objective) -> Dict[str, Any]:
    """The objective's share of a batch or fleet checkpoint fingerprint.

    Legacy-shaped objectives (exactly what the old ``mode`` strings
    meant) emit the pre-objective schema — ``mode`` and ``min_slack``,
    no ``"objective"`` key — so journals checkpointed before the
    Objective API existed still resume; any other objective is part of
    the solution and must match exactly.
    """
    fingerprint: Dict[str, Any] = {
        "mode": objective.mode,
        "min_slack": objective.min_slack,
    }
    if not objective.is_legacy():
        fingerprint["objective"] = objective.to_json()
    return fingerprint


#: pipeline phases a failure can be attributed to: ``"generate"`` (spec
#: materialization), ``"optimize"`` (the DP / outcome selection),
#: ``"certify"`` (the independent certificate checker refuted a claim),
#: ``"worker"`` (an unexpected exception inside the worker),
#: ``"dispatch"`` (the worker process crashed or was killed by the
#: supervisor), ``"fallback"`` (the post-map fallback pass itself failed).
FAILURE_PHASES = (
    "generate", "optimize", "certify", "worker", "dispatch", "fallback"
)


@dataclass(frozen=True)
class FailureRecord:
    """Structured description of why (and how) one net failed.

    Failures are data, not exceptions: a fleet run aggregates these into
    a taxonomy (:meth:`BatchReport.failure_taxonomy`) instead of dying on
    the first pathological net.
    """

    #: exception class name (``"InfeasibleError"``, ``"TimeoutError"``,
    #: ``"BudgetExceededError"``, ``"WorkerCrashError"``, ...).
    error: str
    #: the human-readable message.
    message: str
    #: one of :data:`FAILURE_PHASES`.
    phase: str
    #: attempts consumed when the failure was recorded (>= 1).
    attempts: int = 1
    #: wall-clock seconds spent across those attempts.
    elapsed: float = 0.0

    def describe(self) -> str:
        return (
            f"{self.error} in {self.phase} after {self.attempts} "
            f"attempt(s), {self.elapsed:.3f} s: {self.message}"
        )


@dataclass(frozen=True)
class NetResult:
    """One net's outcome, picklable and tree-free unless trees were kept.

    ``failure`` (mirrored by the legacy ``error`` message) records a
    structured :class:`FailureRecord` when the net did not produce a
    solution — infeasibility, budget/deadline overrun, worker crash —
    with ``ok`` False and the solution fields ``None``.  ``attempts``
    counts the tries the resilience layer spent on this net (1 on the
    happy path).
    """

    name: str
    sink_count: int
    node_count: int
    seconds: float
    buffer_count: Optional[int]
    slack: Optional[float]
    noise_feasible: Optional[bool]
    assignment: Optional[Mapping[str, BufferType]]
    candidates_generated: int
    candidates_kept_peak: int
    stats: Optional[EngineStats] = None
    error: Optional[str] = None
    tree: Optional[RoutingTree] = None
    attempts: int = 1
    failure: Optional[FailureRecord] = None
    #: ``True`` when the outcome passed independent certification,
    #: ``None`` when certification was not requested (excluded from
    #: :meth:`signature` — it re-derives, never changes, the solution).
    certified: Optional[bool] = None
    #: accumulated solution power (watts) when the batch ran under a
    #: power-aware objective; ``None`` on power-off runs (and in every
    #: journal written before power existed).
    power: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.failure is None

    def solution(self, tree: Optional[RoutingTree] = None) -> BufferSolution:
        """Materialize the :class:`BufferSolution` on ``tree`` (defaults
        to the result's own kept tree)."""
        if not self.ok:
            raise InfeasibleError(f"net {self.name!r}: {self.error}")
        target = tree if tree is not None else self.tree
        if target is None:
            raise WorkloadError(
                f"net {self.name!r}: no tree kept (keep_trees=False); "
                "pass the segmented tree explicitly"
            )
        assert self.assignment is not None
        return BufferSolution(target, dict(self.assignment))

    def signature(self) -> Tuple:
        """Deterministic comparison key (excludes wall-clock and trees).

        Two runs of the same batch — any executor, any process count —
        must produce equal signatures; the determinism tests assert this.
        """
        buffers = (
            None
            if self.assignment is None
            else tuple(
                (node, buffer.name)
                for node, buffer in sorted(self.assignment.items())
            )
        )
        return (
            self.name,
            self.sink_count,
            self.node_count,
            self.buffer_count,
            self.slack,
            self.noise_feasible,
            buffers,
            self.candidates_generated,
            self.candidates_kept_peak,
            self.error,
            self.power,
        )


@dataclass
class BatchReport:
    """Per-net results plus batch-level aggregates.

    Aggregates always come from a :class:`~repro.batch.report.ReportFold`
    — retained mode builds one from ``results`` on construction, a
    streaming run (``optimize(..., stream_report=True)``) passes the
    fold it maintained and leaves ``results`` empty.  That single code
    path is what makes a streamed report's :meth:`to_json` identical to
    the in-memory one.  Per-result views (:attr:`ok_results`,
    :meth:`signatures`, :meth:`solutions`) exist only in retained mode
    and raise :class:`~repro.errors.WorkloadError` on a streamed report.
    """

    results: List[NetResult]
    wall_seconds: float
    executor: str
    mode: str
    #: summed single-net optimization time (excludes dispatch/pickling).
    net_seconds: float = field(init=False)
    fold: Optional[ReportFold] = None

    def __post_init__(self) -> None:
        if self.fold is None:
            fold = ReportFold(mode=self.mode)
            for result in self.results:
                fold.fold(result)
            self.fold = fold
        self.net_seconds = self.fold.net_seconds

    @property
    def streamed(self) -> bool:
        """Whether per-net results were folded away instead of retained."""
        return len(self.results) != self.fold.nets

    def _require_retained(self, what: str) -> None:
        if self.streamed:
            raise WorkloadError(
                f"{what} requires retained per-net results; this report "
                "was streamed (stream_report=True) and only carries "
                "aggregates"
            )

    def __len__(self) -> int:
        return self.fold.nets

    @property
    def ok_results(self) -> List[NetResult]:
        self._require_retained("ok_results")
        return [r for r in self.results if r.ok]

    @property
    def failure_count(self) -> int:
        return self.fold.failed

    def failure_taxonomy(self) -> Dict[str, int]:
        """Failed-net counts keyed by error class name.

        Structured failures use their recorded class; legacy
        error-message-only results count as ``"InfeasibleError"`` (the
        only failure the pre-resilience layer could record).
        """
        return self.fold.failure_taxonomy()

    def retry_count(self) -> int:
        """Total attempts spent beyond each net's first try."""
        return self.fold.retries

    @property
    def certified_count(self) -> int:
        """Nets whose outcome passed independent certification."""
        return self.fold.certified

    def nets_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return float("inf")
        return self.fold.nets / self.wall_seconds

    def total_buffers(self) -> int:
        return self.fold.total_buffers

    def buffer_histogram(self) -> Dict[int, int]:
        return self.fold.buffer_histogram()

    def total_candidates(self) -> int:
        return self.fold.total_candidates

    def aggregate_stats(self) -> Optional[EngineStats]:
        """Every net's telemetry folded into one record (None if absent)."""
        return self.fold.stats

    def solutions(self) -> Dict[str, BufferSolution]:
        """Materialized solutions for every feasible net (needs kept trees)."""
        self._require_retained("solutions()")
        return {r.name: r.solution() for r in self.ok_results}

    def signatures(self) -> Tuple[Tuple, ...]:
        self._require_retained("signatures()")
        return tuple(r.signature() for r in self.results)

    def to_json(self) -> Dict[str, Any]:
        """Machine-readable fleet summary (``buffopt batch --json``)."""
        fold = self.fold
        return {
            "kind": "buffopt-batch-report",
            "mode": self.mode,
            "executor": self.executor,
            "nets": fold.nets,
            "ok": fold.ok,
            "failed": fold.failed,
            "failure_taxonomy": fold.failure_taxonomy(),
            "retries": fold.retries,
            "wall_seconds": self.wall_seconds,
            "net_seconds": self.net_seconds,
            "nets_per_second": self.nets_per_second(),
            "total_buffers": fold.total_buffers,
            "buffer_histogram": {
                str(count): nets
                for count, nets in fold.buffer_histogram().items()
            },
            "total_candidates": fold.total_candidates,
            "certified": fold.certified if fold.certified_seen else None,
        }

    def describe(self) -> str:
        fold = self.fold
        lines = [
            f"batch: {fold.nets} nets, mode={self.mode}, "
            f"executor={self.executor}",
            f"throughput: {self.nets_per_second():.2f} nets/s "
            f"({self.wall_seconds:.2f} s wall, {self.net_seconds:.2f} s "
            "summed net time)",
            f"buffers inserted: {fold.total_buffers} "
            f"(histogram {fold.buffer_histogram()})",
            f"candidates generated: {fold.total_candidates}",
        ]
        if fold.certified_seen:
            lines.append(
                f"certified: {fold.certified}/{fold.nets} "
                "nets passed independent re-derivation"
            )
        if fold.failed:
            taxonomy = ", ".join(
                f"{count} {error}"
                for error, count in fold.failure_taxonomy().items()
            )
            lines.append(f"failed nets: {fold.failed} ({taxonomy})")
        if fold.retries:
            lines.append(f"retries: {fold.retries} extra attempt(s)")
        if fold.stats is not None:
            lines.append("telemetry:")
            lines.extend(
                "  " + line for line in fold.stats.describe().splitlines()
            )
        return "\n".join(lines)


def optimize_net(
    tree: RoutingTree,
    library: BufferLibrary,
    coupling: CouplingModel,
    config: BatchConfig,
    attempt: int = 1,
    site_prices: Optional[Mapping[str, float]] = None,
) -> NetResult:
    """Optimize one net under ``config`` — the exact per-item worker body.

    This is public on purpose: `BatchOptimizer(...).optimize([tree])` and
    `optimize_net(tree, ...)` run the same code path, which is what the
    differential harness pins down.

    ``site_prices`` (node name -> nonnegative Lagrangian price, see
    :attr:`~repro.core.dp.DPOptions.site_prices`) is how the fleet
    coordinator threads shared-site congestion costs through this exact
    worker body; the result's ``slack`` is then the *priced* slack.
    ``None``/empty is bit-identical to today's unpriced run.  Prices key
    on the *segmented* tree's node names — pass a pre-segmented tree
    (and ``max_segment_length=None``) when pricing segmentation nodes.

    Engine-level failures — infeasibility, a tripped
    :class:`~repro.core.budget.RunBudget` deadline or candidate budget —
    are *recorded* as structured :class:`FailureRecord`\\ s, never
    raised; unexpected exceptions still propagate (the resilience layer
    handles those at the process boundary).
    """
    start = perf_counter()
    budget = config.run_budget()
    if budget is not None:
        budget.start()  # the deadline covers segmentation too
    if config.max_segment_length is not None:
        work_tree = segment_tree(tree, config.max_segment_length)
    else:
        work_tree = tree
    failure: Optional[FailureRecord] = None
    outcome = None
    result = None
    objective = config.objective
    try:
        result = dp_result(
            work_tree,
            library,
            coupling if objective.noise_aware else None,
            objective=objective,
            max_buffers=config.max_buffers,
            prune=config.prune,
            collect_stats=config.collect_stats,
            budget=budget,
            engine=config.engine,
            site_prices=site_prices,
        )
        outcome = result.select(objective)
    except (InfeasibleError, BudgetExceededError, TimeoutError) as exc:
        failure = FailureRecord(
            error=type(exc).__name__,
            message=str(exc),
            phase="optimize",
            attempts=attempt,
            elapsed=perf_counter() - start,
        )
    certified: Optional[bool] = None
    if config.certify and outcome is not None:
        from ..library.power import default_power_model
        from ..verify.certificate import certify_or_raise, evaluate_assignment

        # DelayOpt runs the engine with silent coupling; certify against
        # the same physics the claims were computed under.
        cert_coupling = (
            coupling if objective.noise_aware else CouplingModel.silent()
        )
        # Power-aware objectives run under the default model (the same
        # resolution dp_result applied); the certifier re-derives the
        # power claim from it independently.
        power_model = default_power_model() if objective.power_aware else None
        # The certificate re-derives *physical* slack; a priced run's
        # claimed slack carries Lagrangian penalties on each sink path
        # (non-critical-branch penalties are absorbed by the min at
        # merges, so they cannot be added back arithmetically).  Derive
        # the physical claim with the same evaluator — the slack leg is
        # then tautological for priced runs, but the structural, noise,
        # and count checks keep their teeth; the fleet audit
        # (:func:`repro.fleet.verify.audit_fleet`) owns the independent
        # slack check for priced runs.
        claimed = outcome.slack
        if site_prices and any(
            ins.node in site_prices for ins in outcome.insertions
        ):
            claimed = evaluate_assignment(
                work_tree,
                {ins.node: ins.buffer for ins in outcome.insertions},
                cert_coupling,
            ).slack
        try:
            certify_or_raise(
                work_tree,
                {ins.node: ins.buffer for ins in outcome.insertions},
                cert_coupling,
                claimed_slack=claimed,
                claimed_noise_feasible=outcome.noise_feasible,
                claimed_buffer_count=outcome.buffer_count,
                require_noise=objective.noise_aware,
                claimed_power=(
                    outcome.power if power_model is not None else None
                ),
                power_model=power_model,
            )
            certified = True
        except CertificateError as exc:
            certified = False
            outcome = None
            failure = FailureRecord(
                error=type(exc).__name__,
                message=str(exc),
                phase="certify",
                attempts=attempt,
                elapsed=perf_counter() - start,
            )
    seconds = perf_counter() - start
    return NetResult(
        name=work_tree.name,
        sink_count=len(work_tree.sinks),
        node_count=sum(1 for _ in work_tree.nodes()),
        seconds=seconds,
        buffer_count=None if outcome is None else outcome.buffer_count,
        slack=None if outcome is None else outcome.slack,
        noise_feasible=None if outcome is None else outcome.noise_feasible,
        assignment=(
            None
            if outcome is None
            else {ins.node: ins.buffer for ins in outcome.insertions}
        ),
        candidates_generated=0 if result is None else result.candidates_generated,
        candidates_kept_peak=0 if result is None else result.candidates_kept_peak,
        stats=None if result is None else result.stats,
        error=None if failure is None else failure.message,
        tree=work_tree if config.keep_trees else None,
        attempts=attempt,
        failure=failure,
        certified=certified,
        power=(
            outcome.power
            if outcome is not None and objective.power_aware
            else None
        ),
    )


@dataclass(frozen=True)
class _WorkerSetup:
    """Everything a worker needs beyond the item itself (pickled once per
    dispatch chunk, not once per net)."""

    library: BufferLibrary
    coupling: CouplingModel
    config: BatchConfig
    workload: WorkloadConfig
    technology: Technology
    cells: CellLibrary
    faults: Optional[FaultPlan] = None


def item_identity(item: BatchItem) -> Tuple[str, int, int]:
    """``(name, sink_count, node_count)`` without materializing specs
    (a spec's node count is unknown until generation; reported as 0)."""
    if isinstance(item, NetSpec):
        return item.name, item.sink_count, 0
    tree = item.tree if isinstance(item, GeneratedNet) else item
    return tree.name, len(tree.sinks), sum(1 for _ in tree.nodes())


def failure_net_result(
    item: BatchItem, failure: FailureRecord
) -> NetResult:
    """A solution-less :class:`NetResult` carrying a structured failure."""
    name, sink_count, node_count = item_identity(item)
    return NetResult(
        name=name,
        sink_count=sink_count,
        node_count=node_count,
        seconds=failure.elapsed,
        buffer_count=None,
        slack=None,
        noise_feasible=None,
        assignment=None,
        candidates_generated=0,
        candidates_kept_peak=0,
        stats=None,
        error=failure.message,
        tree=None,
        attempts=failure.attempts,
        failure=failure,
    )


def _optimize_item(
    setup: _WorkerSetup, item: BatchItem, attempt: int = 1
) -> NetResult:
    """Module-level worker entry (must stay picklable for Pool.map).

    Fires any scheduled fault first (so injected raises/hangs/exits look
    like real worker misbehavior, upstream of all handling), records
    generation-phase :class:`~repro.errors.ReproError`\\ s as structured
    failures, and lets unexpected exceptions propagate to the executor —
    fail-fast on the plain executors, retried/quarantined under
    :class:`~repro.batch.ResilientExecutor`.
    """
    name, _, _ = item_identity(item)
    if setup.faults is not None:
        setup.faults.fire(name, attempt)
    start = perf_counter()
    if isinstance(item, NetSpec):
        try:
            item = generate_net_from_spec(
                item, setup.workload, setup.technology, setup.cells
            )
        except ReproError as exc:
            return failure_net_result(item, FailureRecord(
                error=type(exc).__name__,
                message=str(exc),
                phase="generate",
                attempts=attempt,
                elapsed=perf_counter() - start,
            ))
    tree = item.tree if isinstance(item, GeneratedNet) else item
    return optimize_net(
        tree, setup.library, setup.coupling, setup.config, attempt=attempt
    )


class BatchOptimizer:
    """Optimize a fleet of nets with one engine configuration.

    Parameters default to the paper's estimation-mode setup: the 11-buffer
    library, ``lambda = 0.7`` coupling, and the synthetic workload's
    technology/cells for spec materialization.
    """

    def __init__(
        self,
        library: Optional[BufferLibrary] = None,
        coupling: Optional[CouplingModel] = None,
        config: Optional[BatchConfig] = None,
        executor=None,
        technology: Optional[Technology] = None,
        cells: Optional[CellLibrary] = None,
        workload: Optional[WorkloadConfig] = None,
        faults: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.technology = technology or default_technology()
        self.library = library or default_buffer_library()
        self.coupling = coupling or CouplingModel.estimation_mode(
            self.technology
        )
        self.config = config or BatchConfig()
        self.executor = executor or SerialExecutor()
        self.workload = workload or WorkloadConfig()
        self.cells = cells or default_cell_library(
            noise_margin=self.workload.noise_margin
        )
        #: deterministic fault-injection schedule (tests / chaos drills).
        self.faults = faults
        #: span/event collector; ``None`` collapses to the no-op tracer.
        self.tracer = tracer or NULL_TRACER
        #: fleet metrics registry; ``None`` disables metering entirely.
        self.metrics = metrics

    def _setup(
        self, config: Optional[BatchConfig] = None
    ) -> _WorkerSetup:
        return _WorkerSetup(
            library=self.library,
            coupling=self.coupling,
            config=config or self.config,
            workload=self.workload,
            technology=self.technology,
            cells=self.cells,
            faults=self.faults,
        )

    def _fingerprint(self) -> Dict[str, Any]:
        """Solution-relevant configuration, for checkpoint compatibility."""
        return {
            **objective_fingerprint(self.config.objective),
            "max_segment_length": self.config.max_segment_length,
            "max_buffers": self.config.max_buffers,
            "prune": self.config.prune,
            "certify": self.config.certify,
            "workload_seed": self.workload.seed,
            "workload_nets": self.workload.nets,
        }

    def optimize(
        self,
        items: Iterable[BatchItem],
        checkpoint: Optional[Union[str, Path]] = None,
        resume: bool = False,
        checkpoint_fsync: bool = True,
        stream_report: bool = False,
        shards: Optional[int] = None,
    ) -> BatchReport:
        """Run the configured optimization over every item, in order.

        Items may mix trees, generated nets, and specs; specs are
        materialized inside the workers from their explicit seeds.

        ``checkpoint`` journals every completed :class:`NetResult`
        (success or structured failure) to a JSONL file, flushed per
        line; ``resume=True`` reloads that journal first and recomputes
        only the nets it does not cover.  Resumed results are placed at
        their original positions, so the report's order — and every
        recomputed net's signature — matches an uninterrupted run
        (resumed entries carry no trees or stats).
        ``checkpoint_fsync=False`` trades fsync-per-record durability
        for append throughput (see :class:`CheckpointJournal`).

        ``shards`` (with ``checkpoint`` naming a *directory*) splits the
        journal into that many independent shard files
        (:class:`~repro.batch.ShardedCheckpoint`); resume reads every
        shard file present regardless of the current count, so an N→M
        reshard between incarnations is legal and lands on the same
        results as a single-journal run.

        ``stream_report=True`` folds each result into a constant-memory
        :class:`~repro.batch.ReportFold` as it completes instead of
        retaining it — the memory posture for 10⁵–10⁶-net fleets.  The
        returned report's aggregates (``to_json``, taxonomy, histograms)
        are identical to a retained run's; only the per-result views
        (``solutions()``, ``signatures()``, ``ok_results``) are
        unavailable and raise.
        """
        units = list(items)
        if resume and checkpoint is None:
            raise WorkloadError("resume=True requires a checkpoint path")
        if shards is not None and checkpoint is None:
            raise WorkloadError(
                "shards requires a checkpoint directory to shard into"
            )
        fingerprint = self._fingerprint()
        done: Dict[str, NetResult] = {}
        journal: Optional[
            Union[CheckpointJournal, ShardedCheckpoint]
        ] = None
        if checkpoint is not None:
            path = Path(checkpoint)
            if shards is not None:
                has_shards = path.is_dir() and any(path.glob(SHARD_GLOB))
                if resume and has_shards:
                    recovery = load_sharded_checkpoint(
                        path, self.library, fingerprint, metrics=self.metrics
                    )
                    done = recovery.results
                    journal = ShardedCheckpoint.append_to(
                        path,
                        shards,
                        fingerprint,
                        fsync=checkpoint_fsync,
                        start_seq=recovery.max_seq,
                    )
                else:
                    journal = ShardedCheckpoint.create(
                        path, shards, fingerprint, fsync=checkpoint_fsync
                    )
            elif resume and path.exists():
                done = load_checkpoint(
                    path, self.library, fingerprint, metrics=self.metrics
                )
                journal = CheckpointJournal.append_to(
                    path, fingerprint, fsync=checkpoint_fsync
                )
            else:
                journal = CheckpointJournal.create(
                    path, fingerprint, fsync=checkpoint_fsync
                )

        mode = self.config.objective.mode
        fold = ReportFold(mode=mode) if stream_report else None
        names = [item_identity(unit)[0] for unit in units]
        results: List[Optional[NetResult]] = [
            done.get(name) for name in names
        ]
        pending = [
            index for index, name in enumerate(names) if name not in done
        ]
        if fold is not None:
            # Resumed successes fold immediately; resumed failures stay
            # parked so the fallback pass can still upgrade them.
            for index, result in enumerate(results):
                if result is not None and result.ok:
                    fold.fold(result)
                    results[index] = _FOLDED
        worker = functools.partial(_optimize_item, self._setup())
        executor_name = getattr(
            self.executor, "name", type(self.executor).__name__
        )
        # Adopt an un-wired observability-aware executor (the resilient
        # one) into this run's telemetry: per-attempt spans then nest
        # under batch.map and retry counters land in the same registry.
        if (
            getattr(self.executor, "tracer", None) is NULL_TRACER
            and self.tracer is not NULL_TRACER
        ):
            self.executor.tracer = self.tracer
        if (
            hasattr(self.executor, "metrics")
            and self.executor.metrics is None
        ):
            self.executor.metrics = self.metrics
        phase_seconds = {"map": 0.0, "fallback": 0.0}
        start = perf_counter()
        with self.tracer.span(
            "batch",
            nets=len(units),
            pending=len(pending),
            mode=mode,
            engine=self.config.engine,
            executor=executor_name,
        ):
            try:
                if pending:
                    with self.tracer.span("batch.map", nets=len(pending)):
                        t0 = perf_counter()
                        self._run_pending(
                            worker, units, pending, results, journal, fold
                        )
                        phase_seconds["map"] = perf_counter() - t0
                with self.tracer.span("batch.fallback"):
                    t0 = perf_counter()
                    self._fallback_pass(units, results, journal)
                    phase_seconds["fallback"] = perf_counter() - t0
            finally:
                if journal is not None:
                    journal.close()
        wall = perf_counter() - start
        # Overhead closes the accounting: checkpoint/journal glue and
        # dispatch bookkeeping, so the exported phases sum to the wall.
        phase_seconds["overhead"] = max(
            0.0, wall - phase_seconds["map"] - phase_seconds["fallback"]
        )
        if self.metrics is not None:
            self.metrics.gauge(
                "buffopt_batch_wall_seconds",
                "total wall-clock of the last batch run",
            ).set(wall, mode=mode, executor=executor_name)
            phase_gauge = self.metrics.gauge(
                "buffopt_batch_phase_seconds",
                "wall-clock of the last batch run, split by phase "
                "(phases sum to buffopt_batch_wall_seconds)",
            )
            for phase, seconds in phase_seconds.items():
                phase_gauge.set(seconds, phase=phase)
        assert all(result is not None for result in results)
        if fold is not None:
            # Fold the parked failures — now final, fallback included.
            for result in results:
                if result is not _FOLDED:
                    fold.fold(result)
            return BatchReport(
                results=[],
                wall_seconds=wall,
                executor=executor_name,
                mode=mode,
                fold=fold,
            )
        return BatchReport(
            results=results,
            wall_seconds=wall,
            executor=executor_name,
            mode=mode,
        )

    def _run_pending(
        self,
        worker,
        units: List[BatchItem],
        pending: List[int],
        results: List[Optional[NetResult]],
        journal: Optional[Union[CheckpointJournal, ShardedCheckpoint]],
        fold: Optional[ReportFold] = None,
    ) -> None:
        """Map the outstanding items, recording (and journaling) each
        result as it completes; executor sentinels become failures.
        With a streaming ``fold``, successes are folded and dropped on
        arrival; failures are parked for the fallback pass."""

        def record(sub_index: int, value) -> None:
            index = pending[sub_index]
            if isinstance(value, WorkItemFailure):
                value = self._wrap_sentinel(units[index], value)
            results[index] = value
            if journal is not None:
                journal.append(value)
            self._observe_result(value)
            if fold is not None and value.ok:
                fold.fold(value)
                results[index] = _FOLDED

        payload = [units[index] for index in pending]
        if "on_result" in inspect.signature(self.executor.map).parameters:
            self.executor.map(worker, payload, on_result=record)
        else:
            # Third-party executor without streaming: journal afterwards.
            for sub_index, value in enumerate(
                self.executor.map(worker, payload)
            ):
                record(sub_index, value)

    def _observe_result(
        self, result: NetResult, phase: str = "map"
    ) -> None:
        """One completed net: a trace event plus fleet-level metrics.

        Collapses to an early return when neither a tracer nor a
        registry was configured, keeping the unobserved path free."""
        metrics = self.metrics
        if self.tracer is NULL_TRACER and metrics is None:
            return
        status = (
            "ok" if result.ok
            else result.failure.error if result.failure is not None
            else "error"
        )
        self.tracer.event(
            "batch.net",
            net=result.name,
            phase=phase,
            status=status,
            seconds=result.seconds,
            attempts=result.attempts,
            buffer_count=result.buffer_count,
            candidates_generated=result.candidates_generated,
        )
        if metrics is None:
            return
        metrics.counter(
            "buffopt_nets_total",
            "nets completed, by mode and terminal status",
        ).inc(mode=self.config.objective.mode, status=status)
        metrics.histogram(
            "buffopt_net_seconds",
            "single-net optimization wall-clock",
        ).observe(result.seconds, mode=self.config.objective.mode)
        metrics.counter(
            "buffopt_candidates_generated_total",
            "DP candidates generated across the fleet",
        ).inc(result.candidates_generated)
        if result.attempts > 1:
            metrics.counter(
                "buffopt_net_retries_total",
                "extra attempts spent beyond each net's first try",
            ).inc(result.attempts - 1)
        if result.stats is not None:
            pressure = metrics.gauge(
                "buffopt_budget_pressure_peak",
                "peak budget pressure across the fleet (fraction of "
                "the candidate budget / deadline consumed)",
            )
            pressure.set_max(
                result.stats.budget_candidate_pressure, resource="candidates"
            )
            pressure.set_max(
                result.stats.budget_time_pressure, resource="deadline"
            )

    @staticmethod
    def _wrap_sentinel(
        item: BatchItem, sentinel: WorkItemFailure
    ) -> NetResult:
        """Turn an executor-side failure sentinel into a structured
        :class:`NetResult` (crash/hang -> ``dispatch`` phase, worker
        exception -> ``worker`` phase)."""
        phase = "worker" if sentinel.kind == "error" else "dispatch"
        error = (
            "WorkerCrashError" if sentinel.kind == "crash"
            else "TimeoutError" if sentinel.kind == "hang"
            else sentinel.error
        )
        return failure_net_result(item, FailureRecord(
            error=error,
            message=sentinel.message,
            phase=phase,
            attempts=sentinel.attempts,
            elapsed=sentinel.elapsed,
        ))

    def _fallback_pass(
        self,
        units: List[BatchItem],
        results: List[Optional[NetResult]],
        journal: Optional[Union[CheckpointJournal, ShardedCheckpoint]],
    ) -> None:
        """Last-resort recovery after the map, per ``config.retry.fallback``.

        ``"serial"`` re-runs crash/hang/worker-exception failures inline
        in the calling process (useful when the pool itself — not the
        net — was the problem; beware that a net which genuinely kills
        its process will now do so here).  ``"aggressive"`` re-runs
        budget- and deadline-failures with a degraded engine
        configuration that slashes the candidate population: the
        ``"pareto"`` rule falls back to ``"timing"``; already-``timing``
        runs fall back to a single-buffer count cap.
        """
        retry = self.config.retry
        if retry is None or retry.fallback is None:
            return
        if retry.fallback == "serial":
            eligible_phases = ("worker", "dispatch")
            setup = self._setup()
        else:  # "aggressive"
            eligible_phases = ("optimize",)
            degraded = replace(
                self.config,
                prune="timing",
                max_buffers=(
                    1 if self.config.prune == "timing"
                    else self.config.max_buffers
                ),
                net_max_candidates=(
                    retry.fallback_max_candidates
                    or self.config.net_max_candidates
                ),
            )
            setup = self._setup(degraded)
        for index, result in enumerate(results):
            if result is None or result is _FOLDED:
                continue  # streaming already folded this success away
            if result.failure is None:
                continue
            failure = result.failure
            if failure.phase not in eligible_phases:
                continue
            if retry.fallback == "aggressive" and failure.error not in (
                "BudgetExceededError", "TimeoutError"
            ):
                continue
            attempt = result.attempts + 1
            try:
                replacement = _optimize_item(
                    setup, units[index], attempt=attempt
                )
            except Exception as exc:  # noqa: BLE001 - keep the fleet alive
                replacement = failure_net_result(units[index], FailureRecord(
                    error=type(exc).__name__,
                    message=str(exc),
                    phase="fallback",
                    attempts=attempt,
                    elapsed=failure.elapsed,
                ))
            results[index] = replacement
            if journal is not None:
                journal.append(replacement)
            self._observe_result(replacement, phase="fallback")

    def optimize_specs(
        self,
        specs: Optional[Sequence[NetSpec]] = None,
        checkpoint: Optional[Union[str, Path]] = None,
        resume: bool = False,
        checkpoint_fsync: bool = True,
        stream_report: bool = False,
        shards: Optional[int] = None,
    ) -> BatchReport:
        """Optimize the workload population from deferred specs.

        ``specs`` defaults to :func:`~repro.workloads.population_specs` of
        this optimizer's workload config — generation then happens inside
        the workers, seeded explicitly per net.  ``checkpoint`` /
        ``resume`` / ``checkpoint_fsync`` / ``stream_report`` / ``shards``
        behave as in :meth:`optimize`.
        """
        if specs is None:
            specs = population_specs(self.workload)
        return self.optimize(
            specs,
            checkpoint=checkpoint,
            resume=resume,
            checkpoint_fsync=checkpoint_fsync,
            stream_report=stream_report,
            shards=shards,
        )
