"""The fleet round driver: price, re-optimize, repeat until feasible.

:class:`FleetCoordinator` couples the independent per-net DP runs of the
batch layer through shared buffer-site capacities.  Each **round**:

1. the violating nets (round 0: every net) re-optimize through the
   exact batch worker body (:func:`~repro.batch.optimizer.optimize_net`)
   with the current Lagrangian prices threaded in as per-node
   ``site_prices`` — any batch executor, same bit-identical worker;
2. the shared-site usage of the whole fleet is re-tallied and compared
   against capacity;
3. prices move one projected-subgradient step
   (:func:`~repro.fleet.pricing.update_prices`), with the step escalated
   on stall per the :class:`~repro.fleet.pricing.PriceSchedule`.

The loop stops at the first capacity-feasible round or after
``max_rounds``; an optional **repair pass** then forces feasibility by
deterministically banning (net, site) pairs — most-overloaded site,
heaviest user, name tiebreaks — and re-running just those nets.

Round state is checkpointable in the batch journal dialect (header +
JSONL; ``fleet_net`` records then one closing ``round`` record per
round).  Resume replays *closed* rounds only — net records of an
unfinished round are dropped and recomputed — so an interrupted run
converges to the bit-identical final state; the determinism currency is
:meth:`FleetNetState.net_result_signature`, byte-compatible with
:meth:`~repro.batch.optimizer.NetResult.signature`.

Every quantity the coordinator *claims* (usage, feasibility, prices,
penalties, the dual bound) is independently re-derivable by
:func:`~repro.fleet.verify.audit_fleet`, which is what keeps the three
planted coordinator mutants (:mod:`~repro.fleet.mutations`) detectable.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..batch.checkpoint import (
    CheckpointJournal,
    check_fingerprint,
    read_checkpoint_header,
    result_from_json,
    result_to_json,
)
from ..batch.executors import SerialExecutor
from ..batch.optimizer import (
    BatchConfig,
    BatchItem,
    FailureRecord,
    NetResult,
    failure_net_result,
    item_identity,
    objective_fingerprint,
    optimize_net,
)
from ..errors import ReproError, WorkloadError
from ..journal import JournalReader
from ..library.buffers import BufferLibrary, default_buffer_library
from ..library.cells import CellLibrary, default_cell_library
from ..library.technology import Technology, default_technology
from ..noise.coupling import CouplingModel
from ..obs import NULL_TRACER, MetricsRegistry, Tracer
from ..tree.segmenting import segment_tree
from ..units import PS
from ..workloads.generator import (
    GeneratedNet,
    NetSpec,
    WorkloadConfig,
    generate_net_from_spec,
)
from .pricing import PriceSchedule, lagrangian_bound, update_prices
from .sites import SiteMap, derive_site_map, node_prices_for

#: obs names for the fleet loop (rows in docs/observability.md).
FLEET_ROUNDS_COUNTER = "buffopt_fleet_rounds_total"
FLEET_REOPT_COUNTER = "buffopt_fleet_reoptimized_nets_total"
FLEET_VIOLATION_HISTOGRAM = "buffopt_fleet_site_violation"
FLEET_PRICE_HISTOGRAM = "buffopt_fleet_site_price"
FLEET_MAX_VIOLATION_GAUGE = "buffopt_fleet_max_violation"

#: site-overload counts are small integers.
VIOLATION_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
#: prices live on the slack scale (seconds); ps-centered decades.
PRICE_BUCKETS = (1e-15, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-6)

_DEFAULT_SCHEDULE = PriceSchedule(step=1 * PS)


@dataclass(frozen=True)
class FleetConfig:
    """Shared-fabric model plus the coordination loop's knobs.

    ``batch`` is the per-net policy every DP run uses — the same object
    a :class:`~repro.batch.BatchOptimizer` would take, so a fleet with
    zero contention reproduces the uncoordinated batch bit-for-bit.
    """

    batch: BatchConfig = field(default_factory=BatchConfig)
    #: shared buffer sites per net family.
    sites_per_family: int = 8
    #: independent contention domains (nets hash into one each).
    families: int = 1
    #: buffers each site holds, before the salted spread.
    base_capacity: int = 2
    #: max salted extra capacity per site (0 = uniform fabric).
    capacity_spread: int = 0
    #: price-update rounds before giving up (round 0 included).
    max_rounds: int = 25
    #: subgradient step policy.
    schedule: PriceSchedule = _DEFAULT_SCHEDULE
    #: force feasibility by banning (net, site) pairs after the rounds.
    repair: bool = True
    #: after convergence, spend one full-fleet priced pass tightening
    #: the dual bound at the final prices (delay mode only).
    tight_bound: bool = False

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise WorkloadError(
                f"max_rounds must be >= 1, got {self.max_rounds}"
            )
        # sites/families/capacity knobs are validated by derive_site_map;
        # validate eagerly so bad configs fail at construction.
        derive_site_map(
            (),
            self.sites_per_family,
            self.families,
            self.base_capacity,
            self.capacity_spread,
        )


@dataclass(frozen=True)
class _FleetTask:
    """One net's work order for a round (picklable for Pool.map)."""

    item: BatchItem
    prices: Tuple[float, ...]
    banned: Tuple[int, ...]


@dataclass(frozen=True)
class _FleetSetup:
    """Worker-side context (pickled once per dispatch, not per net)."""

    library: BufferLibrary
    coupling: CouplingModel
    batch: BatchConfig
    workload: WorkloadConfig
    technology: Technology
    cells: CellLibrary
    site_map: SiteMap


@dataclass(frozen=True)
class _FleetNetOutcome:
    """What a fleet worker hands back: the priced DP result plus the
    certificate-derived *physical* slack of the chosen assignment.

    The two differ exactly when a priced node hosts a buffer: penalties
    ride the slack recurrence, where branch merges (min over children)
    absorb the non-critical side, so the physical slack cannot be
    recovered from the priced one arithmetically — it has to be
    re-derived on the tree, and the worker is the last place that still
    holds the tree.
    """

    result: NetResult
    #: physical slack (``None`` for failed nets); equals
    #: ``result.slack`` bit-for-bit on the unpriced path.
    true_slack: Optional[float]


def _fleet_item(setup: _FleetSetup, task: _FleetTask) -> _FleetNetOutcome:
    """Module-level worker body: materialize, segment, price, optimize.

    Segmentation happens *here* (then ``max_segment_length=None`` goes
    into :func:`optimize_net`) because prices key on the segmented
    tree's node names.  With empty prices and no bans this is the exact
    arithmetic of the batch worker, which is what makes round 0
    signature-identical to an uncoordinated :class:`BatchOptimizer` run.
    """
    item = task.item
    start = perf_counter()
    if isinstance(item, NetSpec):
        try:
            item = generate_net_from_spec(
                item, setup.workload, setup.technology, setup.cells
            )
        except ReproError as exc:
            return _FleetNetOutcome(
                result=failure_net_result(item, FailureRecord(
                    error=type(exc).__name__,
                    message=str(exc),
                    phase="generate",
                    attempts=1,
                    elapsed=perf_counter() - start,
                )),
                true_slack=None,
            )
    tree = item.tree if isinstance(item, GeneratedNet) else item
    if setup.batch.max_segment_length is not None:
        work_tree = segment_tree(tree, setup.batch.max_segment_length)
    else:
        work_tree = tree
    node_prices = node_prices_for(
        setup.site_map, work_tree.name, work_tree, task.prices, task.banned
    )
    per_net = replace(setup.batch, max_segment_length=None, keep_trees=False)
    result = optimize_net(
        work_tree,
        setup.library,
        setup.coupling,
        per_net,
        site_prices=node_prices or None,
    )
    true_slack = result.slack
    if (
        result.ok
        and result.assignment
        and any(node in node_prices for node in result.assignment)
    ):
        from ..verify.certificate import evaluate_assignment

        cert_coupling = (
            setup.coupling
            if setup.batch.objective.mode == "buffopt"
            else CouplingModel.silent()
        )
        true_slack = evaluate_assignment(
            work_tree,
            dict(result.assignment),
            cert_coupling,
        ).slack
    return _FleetNetOutcome(result=result, true_slack=true_slack)


@dataclass(frozen=True)
class FleetNetState:
    """One net's latest coordinated outcome.

    ``result.slack`` is the *priced* slack the DP maximized;
    :attr:`true_slack` is the certificate-derived physical slack of the
    same assignment.  The two differ when priced nodes host buffers —
    and not by exactly the summed prices: branch merges take a min over
    children, absorbing penalties paid on the non-critical side, so the
    delta (:attr:`penalty`) is only *bounded* by the summed node prices.
    """

    result: NetResult
    #: the round whose prices this result was computed under.
    round_index: int
    #: physical slack re-derived on the tree (None for failed nets).
    true_slack: Optional[float]
    #: shared site of each buffered node, sorted, with multiplicity.
    sites_used: Tuple[int, ...]
    #: sites banned for this net by the repair pass.
    banned: Tuple[int, ...]

    @property
    def name(self) -> str:
        return self.result.name

    @property
    def ok(self) -> bool:
        return self.result.ok

    @property
    def priced_slack(self) -> Optional[float]:
        return self.result.slack

    @property
    def penalty(self) -> float:
        """Lagrangian penalty the DP actually paid: physical minus
        priced slack.  Satisfies ``0 <= penalty <= sum(node prices over
        buffered nodes)`` — both bounds are audited."""
        if self.result.slack is None or self.true_slack is None:
            return 0.0
        return self.true_slack - self.result.slack

    def net_result_signature(self) -> Tuple:
        """Exactly :meth:`NetResult.signature` — the cross-layer
        bit-identity currency (zero prices ≡ uncoordinated batch)."""
        return self.result.signature()

    def signature(self) -> Tuple:
        """Deterministic comparison key for the whole coordinated state."""
        return (
            self.net_result_signature(),
            self.round_index,
            self.true_slack,
            self.sites_used,
            self.banned,
        )


def _make_state(
    site_map: SiteMap,
    outcome: _FleetNetOutcome,
    round_index: int,
    banned: Tuple[int, ...],
) -> FleetNetState:
    result = outcome.result
    sites_used: List[int] = []
    if result.assignment:
        for node in sorted(result.assignment):
            sites_used.append(site_map.site_of(result.name, node))
    return FleetNetState(
        result=result,
        round_index=round_index,
        true_slack=outcome.true_slack,
        sites_used=tuple(sorted(sites_used)),
        banned=tuple(sorted(set(banned))),
    )


@dataclass(frozen=True)
class RoundRecord:
    """One closed round's claims (journaled; audited)."""

    index: int
    #: prices every re-optimized net ran under this round.
    prices: Tuple[float, ...]
    #: subgradient step in effect when this round's update fires.
    step: float
    #: nets re-optimized this round.
    reoptimized: int
    #: post-round fleet usage per site.
    usage: Tuple[int, ...]
    max_violation: int
    total_violation: int
    #: failed (no-solution) nets after this round, fleet-wide.
    failed: int
    #: priced slack summed over feasible nets.
    priced_total: float
    #: physical slack summed over feasible nets.
    true_total: float

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": "round",
            "index": self.index,
            "prices": list(self.prices),
            "step": self.step,
            "reoptimized": self.reoptimized,
            "usage": list(self.usage),
            "max_violation": self.max_violation,
            "total_violation": self.total_violation,
            "failed": self.failed,
            "priced_total": self.priced_total,
            "true_total": self.true_total,
        }

    @classmethod
    def from_json(cls, record: Mapping[str, Any]) -> "RoundRecord":
        return cls(
            index=int(record["index"]),
            prices=tuple(float(p) for p in record["prices"]),
            step=float(record["step"]),
            reoptimized=int(record["reoptimized"]),
            usage=tuple(int(u) for u in record["usage"]),
            max_violation=int(record["max_violation"]),
            total_violation=int(record["total_violation"]),
            failed=int(record["failed"]),
            priced_total=float(record["priced_total"]),
            true_total=float(record["true_total"]),
        )


@dataclass(frozen=True)
class _LoopState:
    """Everything the next round needs from the rounds before it."""

    prices: Tuple[float, ...]
    step: float
    stall: int
    best_violation: Optional[int]


@dataclass
class FleetResult:
    """The coordinated fleet: per-net states plus the loop's audit trail."""

    states: Dict[str, FleetNetState]
    site_map: SiteMap
    rounds: Tuple[RoundRecord, ...]
    #: a round ended capacity-feasible (before any repair).
    converged: bool
    #: the final usage respects capacity (possibly via repair).
    feasible: bool
    #: (net, site) bans the repair pass applied, in order.
    repaired: Tuple[Tuple[str, int], ...]
    #: final fleet usage per site.
    usage: Tuple[int, ...]
    #: prices the surviving states were computed under.
    prices: Tuple[float, ...]
    #: physical slack summed over feasible nets (None when none are).
    primal_total: Optional[float]
    #: Lagrangian upper bound on any feasible fleet's total slack
    #: (delay mode with a clean round 0 only).
    dual_bound: Optional[float]
    wall_seconds: float
    executor: str
    mode: str

    @property
    def ok_states(self) -> List[FleetNetState]:
        return [s for s in self.states.values() if s.ok]

    @property
    def failed_count(self) -> int:
        return sum(1 for s in self.states.values() if not s.ok)

    def schedule_log(self) -> Tuple[int, ...]:
        """Running-min max-violation per round — monotone non-increasing
        by construction (the property tests pin this down)."""
        log: List[int] = []
        best: Optional[int] = None
        for record in self.rounds:
            best = (
                record.max_violation
                if best is None
                else min(best, record.max_violation)
            )
            log.append(best)
        return tuple(log)

    def duality_gap(self) -> Optional[float]:
        if self.primal_total is None or self.dual_bound is None:
            return None
        return self.dual_bound - self.primal_total

    def signatures(self) -> Tuple[Tuple, ...]:
        return tuple(
            self.states[name].signature() for name in sorted(self.states)
        )

    def net_result_signatures(self) -> Tuple[Tuple, ...]:
        return tuple(
            self.states[name].net_result_signature()
            for name in sorted(self.states)
        )

    def to_json(self) -> Dict[str, Any]:
        """Machine-readable summary (``buffopt fleet --json``)."""
        return {
            "kind": "buffopt-fleet-report",
            "mode": self.mode,
            "executor": self.executor,
            "nets": len(self.states),
            "failed": self.failed_count,
            "sites": self.site_map.sites,
            "capacities": list(self.site_map.capacities),
            "usage": list(self.usage),
            "rounds": len(self.rounds),
            "reoptimizations": sum(r.reoptimized for r in self.rounds),
            "converged": self.converged,
            "feasible": self.feasible,
            "repaired": [list(pair) for pair in self.repaired],
            "prices": list(self.prices),
            "primal_total": self.primal_total,
            "dual_bound": self.dual_bound,
            "duality_gap": self.duality_gap(),
            "wall_seconds": self.wall_seconds,
        }

    def describe(self) -> str:
        lines = [
            f"fleet: {len(self.states)} nets over {self.site_map.sites} "
            f"shared sites, mode={self.mode}, executor={self.executor}",
            f"rounds: {len(self.rounds)} "
            f"({sum(r.reoptimized for r in self.rounds)} re-optimizations), "
            f"converged={self.converged}, feasible={self.feasible}",
            f"usage/capacity: {list(self.usage)} / "
            f"{list(self.site_map.capacities)}",
        ]
        if self.repaired:
            bans = ", ".join(f"{net}@s{site}" for net, site in self.repaired)
            lines.append(f"repair bans: {bans}")
        if self.primal_total is not None:
            lines.append(f"total slack: {self.primal_total:.3e} s")
        gap = self.duality_gap()
        if gap is not None:
            lines.append(
                f"dual bound: {self.dual_bound:.3e} s (gap {gap:.3e} s)"
            )
        if self.failed_count:
            lines.append(f"failed nets: {self.failed_count}")
        return "\n".join(lines)


class FleetCoordinator:
    """Price-coordinate a fleet of nets over shared buffer sites.

    Construction mirrors :class:`~repro.batch.BatchOptimizer` (the same
    defaults: 11-buffer library, estimation-mode coupling, synthetic
    workload context for spec materialization), plus the fleet knobs in
    :class:`FleetConfig`.

    The three protected hooks — :meth:`_dispatch_prices`,
    :meth:`_capacities`, :meth:`_accounted` — are identity functions
    here; :mod:`repro.fleet.mutations` overrides them to plant the
    coordinator bugs the audit battery must catch.  They are the *only*
    sanctioned override points.
    """

    def __init__(
        self,
        library: Optional[BufferLibrary] = None,
        coupling: Optional[CouplingModel] = None,
        config: Optional[FleetConfig] = None,
        executor=None,
        technology: Optional[Technology] = None,
        cells: Optional[CellLibrary] = None,
        workload: Optional[WorkloadConfig] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.technology = technology or default_technology()
        self.library = library or default_buffer_library()
        self.coupling = coupling or CouplingModel.estimation_mode(
            self.technology
        )
        self.config = config or FleetConfig()
        self.executor = executor or SerialExecutor()
        self.workload = workload or WorkloadConfig()
        self.cells = cells or default_cell_library(
            noise_margin=self.workload.noise_margin
        )
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics

    # -- mutation seams (see repro.fleet.mutations) ------------------------

    def _dispatch_prices(
        self, prices: Tuple[float, ...]
    ) -> Tuple[float, ...]:
        """The price vector handed to this round's workers."""
        return prices

    def _capacities(self, site_map: SiteMap) -> Tuple[int, ...]:
        """The capacity vector the loop checks violations against."""
        return site_map.capacities

    def _accounted(
        self, ok_states: Dict[str, FleetNetState]
    ) -> Dict[str, FleetNetState]:
        """The feasible states that participate in usage accounting and
        re-optimization targeting."""
        return ok_states

    # ----------------------------------------------------------------------

    def site_map_for(self, items: Iterable[BatchItem]) -> SiteMap:
        """The deterministic site map this fleet coordinates over."""
        return derive_site_map(
            list(items),
            self.config.sites_per_family,
            self.config.families,
            self.config.base_capacity,
            self.config.capacity_spread,
        )

    def _fingerprint(self, site_map: SiteMap) -> Dict[str, Any]:
        """Solution-relevant configuration for checkpoint compatibility
        (batch policy + fabric + schedule; the engine is excluded for
        the same reason as in the batch fingerprint)."""
        batch = self.config.batch
        return {
            **objective_fingerprint(batch.objective),
            "max_segment_length": batch.max_segment_length,
            "max_buffers": batch.max_buffers,
            "prune": batch.prune,
            "certify": batch.certify,
            "workload_seed": self.workload.seed,
            "sites_per_family": self.config.sites_per_family,
            "families": self.config.families,
            "capacities": list(site_map.capacities),
            "salt": site_map.salt,
            "max_rounds": self.config.max_rounds,
            "step": self.config.schedule.step,
            "growth": self.config.schedule.growth,
            "patience": self.config.schedule.patience,
        }

    def _setup(self, site_map: SiteMap) -> _FleetSetup:
        return _FleetSetup(
            library=self.library,
            coupling=self.coupling,
            batch=self.config.batch,
            workload=self.workload,
            technology=self.technology,
            cells=self.cells,
            site_map=site_map,
        )

    def _advance(self, loop: _LoopState, record: RoundRecord) -> _LoopState:
        """The deterministic loop-state transition after a closed round.

        Factored out so a resumed run folds it over the replayed round
        records and lands on the exact live-loop state.
        """
        schedule = self.config.schedule
        improved = (
            loop.best_violation is None
            or record.max_violation < loop.best_violation
        )
        best = (
            record.max_violation
            if improved
            else loop.best_violation
        )
        stall = 0 if improved else loop.stall + 1
        step = loop.step
        if stall >= schedule.patience:
            step *= schedule.growth
            stall = 0
        prices = update_prices(
            record.prices,
            record.usage,
            self._capacities_cached,
            step,
        )
        return _LoopState(
            prices=prices, step=step, stall=stall, best_violation=best
        )

    def _usage(
        self, site_map: SiteMap, states: Dict[str, FleetNetState]
    ) -> Tuple[int, ...]:
        counts = [0] * site_map.sites
        for state in states.values():
            for site in state.sites_used:
                counts[site] += 1
        return tuple(counts)

    def _round_record(
        self,
        index: int,
        loop: _LoopState,
        reoptimized: int,
        site_map: SiteMap,
        states: Dict[str, FleetNetState],
    ) -> RoundRecord:
        ok = {n: s for n, s in states.items() if s.ok}
        usage = self._usage(site_map, self._accounted(ok))
        caps = self._capacities_cached
        violations = [max(0, u - c) for u, c in zip(usage, caps)]
        priced_total = sum(s.priced_slack for s in ok.values())
        true_total = sum(s.true_slack for s in ok.values())
        return RoundRecord(
            index=index,
            prices=loop.prices,
            step=loop.step,
            reoptimized=reoptimized,
            usage=usage,
            max_violation=max(violations, default=0),
            total_violation=sum(violations),
            failed=len(states) - len(ok),
            priced_total=priced_total,
            true_total=true_total,
        )

    def _observe_round(self, record: RoundRecord) -> None:
        self.tracer.event(
            "fleet.round",
            index=record.index,
            reoptimized=record.reoptimized,
            max_violation=record.max_violation,
            total_violation=record.total_violation,
        )
        metrics = self.metrics
        if metrics is None:
            return
        mode = self.config.batch.objective.mode
        metrics.counter(
            FLEET_ROUNDS_COUNTER,
            "fleet price-update rounds executed",
        ).inc(mode=mode)
        metrics.counter(
            FLEET_REOPT_COUNTER,
            "per-net DP re-optimizations spent by the fleet loop",
        ).inc(record.reoptimized, mode=mode)
        violation_hist = metrics.histogram(
            FLEET_VIOLATION_HISTOGRAM,
            "per-site overload (usage minus capacity, floored at 0) "
            "observed at each round close",
            buckets=VIOLATION_BUCKETS,
        )
        price_hist = metrics.histogram(
            FLEET_PRICE_HISTOGRAM,
            "per-site Lagrangian prices in effect at each round",
            buckets=PRICE_BUCKETS,
        )
        caps = self._capacities_cached
        for site, used in enumerate(record.usage):
            violation_hist.observe(max(0, used - caps[site]), mode=mode)
            price_hist.observe(record.prices[site], mode=mode)
        metrics.gauge(
            FLEET_MAX_VIOLATION_GAUGE,
            "worst per-site overload after the latest round",
        ).set(record.max_violation, mode=mode)

    def _run_targets(
        self,
        setup: _FleetSetup,
        by_name: Dict[str, BatchItem],
        targets: List[str],
        prices: Tuple[float, ...],
        banned: Dict[str, Tuple[int, ...]],
    ) -> List[_FleetNetOutcome]:
        tasks = [
            _FleetTask(
                item=by_name[name],
                prices=prices,
                banned=banned.get(name, ()),
            )
            for name in targets
        ]
        worker = functools.partial(_fleet_item, setup)
        if "on_result" in inspect.signature(self.executor.map).parameters:
            return self.executor.map(worker, tasks)
        return list(self.executor.map(worker, tasks))

    def coordinate(
        self,
        items: Iterable[BatchItem],
        checkpoint: Optional[Union[str, Path]] = None,
        resume: bool = False,
        checkpoint_fsync: bool = True,
    ) -> FleetResult:
        """Run the price-coordination loop over every item.

        ``checkpoint`` journals each completed net (``fleet_net``
        records) and each closed round (``round`` records) to a JSONL
        file in the batch checkpoint dialect; ``resume=True`` replays
        the journal's closed rounds and continues the loop from the
        next one.  The repair pass is deliberately *not* journaled —
        it is recomputed deterministically after resume, so the final
        states match an uninterrupted run bit-for-bit.
        """
        units = list(items)
        names = [item_identity(unit)[0] for unit in units]
        if len(set(names)) != len(names):
            raise WorkloadError("fleet items must have unique net names")
        by_name = dict(zip(names, units))
        site_map = self.site_map_for(units)
        self._capacities_cached = self._capacities(site_map)
        caps = self._capacities_cached
        setup = self._setup(site_map)
        schedule = self.config.schedule
        fingerprint = self._fingerprint(site_map)

        journal: Optional[CheckpointJournal] = None
        replayed_rounds: List[RoundRecord] = []
        replayed_results: List[Tuple[int, _FleetNetOutcome]] = []
        if resume and checkpoint is None:
            raise WorkloadError("resume=True requires a checkpoint path")
        if checkpoint is not None:
            path = Path(checkpoint)
            if resume and path.exists():
                replayed_rounds, replayed_results = _load_fleet_checkpoint(
                    path, self.library, fingerprint, metrics=self.metrics
                )
                journal = CheckpointJournal.append_to(
                    path, fingerprint, fsync=checkpoint_fsync
                )
            else:
                journal = CheckpointJournal.create(
                    path,
                    fingerprint,
                    fsync=checkpoint_fsync,
                    header_extra={"journal": "fleet"},
                )

        states: Dict[str, FleetNetState] = {}
        rounds: List[RoundRecord] = []
        loop = _LoopState(
            prices=(0.0,) * site_map.sites,
            step=schedule.step,
            stall=0,
            best_violation=None,
        )
        for record in replayed_rounds:
            rounds.append(record)
        # Replayed net records carry their journaled physical slack, so
        # a resumed state equals the live one field-for-field.
        for round_index, outcome in replayed_results:
            states[outcome.result.name] = _make_state(
                site_map, outcome, round_index, banned=()
            )
        for record in rounds:
            loop = self._advance(loop, record)

        executor_name = getattr(
            self.executor, "name", type(self.executor).__name__
        )
        start = perf_counter()
        converged = bool(rounds) and rounds[-1].max_violation == 0
        banned: Dict[str, Tuple[int, ...]] = {}
        with self.tracer.span(
            "fleet",
            nets=len(units),
            sites=site_map.sites,
            mode=self.config.batch.objective.mode,
            executor=executor_name,
        ):
            try:
                index = len(rounds)
                while not converged and index < self.config.max_rounds:
                    targets = self._round_targets(names, rounds, states)
                    if not targets:
                        break
                    dispatch = self._dispatch_prices(loop.prices)
                    with self.tracer.span(
                        "fleet.round", index=index, nets=len(targets)
                    ):
                        results = self._run_targets(
                            setup, by_name, targets, dispatch, banned
                        )
                    for outcome in results:
                        states[outcome.result.name] = _make_state(
                            site_map, outcome, index, banned=()
                        )
                        if journal is not None:
                            record = result_to_json(outcome.result)
                            record["kind"] = "fleet_net"
                            record["round"] = index
                            record["true_slack"] = outcome.true_slack
                            journal.write(record)
                    record = self._round_record(
                        index, loop, len(targets), site_map, states
                    )
                    if journal is not None:
                        journal.write(record.to_json())
                    rounds.append(record)
                    self._observe_round(record)
                    converged = record.max_violation == 0
                    loop = self._advance(loop, record)
                    index += 1
            finally:
                if journal is not None:
                    journal.close()

            repaired: List[Tuple[str, int]] = []
            feasible = converged
            if not converged and self.config.repair and rounds:
                feasible = self._repair(
                    setup, by_name, site_map, states, rounds, banned, repaired
                )

            dual_bound = self._dual_bound(
                setup, by_name, names, site_map, rounds, loop
            )

        ok = {n: s for n, s in states.items() if s.ok}
        usage = self._usage(site_map, self._accounted(ok))
        final_prices = rounds[-1].prices if rounds else loop.prices
        primal_total = (
            sum(s.true_slack for s in ok.values()) if ok else None
        )
        return FleetResult(
            states=states,
            site_map=site_map,
            rounds=tuple(rounds),
            converged=converged,
            feasible=feasible,
            repaired=tuple(repaired),
            usage=usage,
            prices=final_prices,
            primal_total=primal_total,
            dual_bound=dual_bound,
            wall_seconds=perf_counter() - start,
            executor=executor_name,
            mode=self.config.batch.objective.mode,
        )

    def _round_targets(
        self,
        names: List[str],
        rounds: List[RoundRecord],
        states: Dict[str, FleetNetState],
    ) -> List[str]:
        """The nets to re-optimize this round: everyone on round 0,
        afterwards the accounted feasible nets touching an overloaded
        site (sorted by name, so dispatch order is deterministic)."""
        if not rounds:
            return list(names)
        usage = rounds[-1].usage
        caps = self._capacities_cached
        overloaded = {
            site
            for site, used in enumerate(usage)
            if used > caps[site]
        }
        if not overloaded:
            return []
        ok = {n: s for n, s in states.items() if s.ok}
        accounted = self._accounted(ok)
        return sorted(
            name
            for name, state in accounted.items()
            if any(site in overloaded for site in state.sites_used)
        )

    def _repair(
        self,
        setup: _FleetSetup,
        by_name: Dict[str, BatchItem],
        site_map: SiteMap,
        states: Dict[str, FleetNetState],
        rounds: List[RoundRecord],
        banned: Dict[str, Tuple[int, ...]],
        repaired: List[Tuple[str, int]],
    ) -> bool:
        """Force feasibility by banning (net, site) pairs, worst first.

        Deterministic and serial: pick the most-overloaded site (lowest
        index on ties), ban it for its heaviest accounted user (smallest
        name on ties), re-run just that net under the final prices, and
        repeat.  Bounded by nets x sites bans; in delay mode the
        zero-buffer option guarantees progress, in buffopt mode a ban
        can turn a net infeasible (recorded, not raised).
        """
        caps = self._capacities_cached
        final_prices = rounds[-1].prices
        limit = len(by_name) * site_map.sites
        for _ in range(limit):
            ok = {n: s for n, s in states.items() if s.ok}
            accounted = self._accounted(ok)
            usage = self._usage(site_map, accounted)
            worst_site = None
            worst_overload = 0
            for site, used in enumerate(usage):
                overload = used - caps[site]
                if overload > worst_overload:
                    worst_site = site
                    worst_overload = overload
            if worst_site is None:
                return True
            users = sorted(
                (
                    (-state.sites_used.count(worst_site), name)
                    for name, state in accounted.items()
                    if worst_site in state.sites_used
                ),
            )
            if not users:
                return False  # claimed overload with no accounted user
            _, name = users[0]
            banned[name] = tuple(
                sorted(set(banned.get(name, ())) | {worst_site})
            )
            repaired.append((name, worst_site))
            outcome = _fleet_item(
                setup,
                _FleetTask(
                    item=by_name[name],
                    prices=final_prices,
                    banned=banned[name],
                ),
            )
            states[name] = _make_state(
                site_map,
                outcome,
                rounds[-1].index,
                banned=banned[name],
            )
        ok = {n: s for n, s in states.items() if s.ok}
        usage = self._usage(site_map, self._accounted(ok))
        return all(u <= c for u, c in zip(usage, caps))

    def _dual_bound(
        self,
        setup: _FleetSetup,
        by_name: Dict[str, BatchItem],
        names: List[str],
        site_map: SiteMap,
        rounds: List[RoundRecord],
        loop: _LoopState,
    ) -> Optional[float]:
        """L(lambda): free at lambda=0 from a clean round 0, optionally
        tightened with one full-fleet pass at the final prices.

        Delay mode only — the inner DP is an exact slack maximizer
        there, which is what makes the relaxation a true bound.
        """
        if self.config.batch.objective.mode != "delay":
            return None
        if not rounds or rounds[0].index != 0:
            return None
        first = rounds[0]
        if first.failed or first.reoptimized != len(names):
            return None
        # lambda = 0: the uncoordinated total IS the Lagrangian bound.
        bound = lagrangian_bound(
            first.priced_total, first.prices, site_map.capacities
        )
        if not self.config.tight_bound:
            return bound
        final_prices = rounds[-1].prices
        results = self._run_targets(
            setup, by_name, list(names), final_prices, {}
        )
        if any(not outcome.result.ok for outcome in results):
            return bound
        priced_total = sum(outcome.result.slack for outcome in results)
        tight = lagrangian_bound(
            priced_total, final_prices, site_map.capacities
        )
        return min(bound, tight)


def _load_fleet_checkpoint(
    path: Union[str, Path],
    library: BufferLibrary,
    fingerprint: Dict[str, Any],
    metrics=None,
) -> Tuple[List[RoundRecord], List[Tuple[int, _FleetNetOutcome]]]:
    """Replay a fleet journal: closed rounds plus their net records.

    Only rounds closed by a ``round`` record (contiguous from 0) count;
    ``fleet_net`` records of an unfinished round are dropped — the
    resumed loop recomputes that round from scratch, deterministically.
    """
    path = Path(path)
    header = read_checkpoint_header(path)
    # Dialect before fingerprint: a batch journal would also fail the
    # fingerprint check, but "this is not a fleet journal" is the error
    # the operator can act on.
    if header.get("journal") != "fleet":
        raise WorkloadError(
            f"checkpoint {path} is not a fleet journal (its records "
            "describe a plain batch run); coordinate() cannot resume it"
        )
    check_fingerprint(header["fingerprint"], fingerprint, path)
    round_records: Dict[int, RoundRecord] = {}
    net_records: List[Tuple[int, _FleetNetOutcome]] = []
    reader = JournalReader(path, metrics=metrics, journal="fleet")
    for number, record in reader.records():
        kind = record.get("kind")
        if kind == "round":
            parsed = RoundRecord.from_json(record)
            round_records[parsed.index] = parsed
        elif kind == "fleet_net":
            raw_true = record.get("true_slack")
            net_records.append((
                int(record["round"]),
                _FleetNetOutcome(
                    result=result_from_json(record, library),
                    true_slack=(
                        None if raw_true is None else float(raw_true)
                    ),
                ),
            ))
        else:
            raise WorkloadError(
                f"checkpoint {path} line {number} has unexpected kind "
                f"{kind!r}"
            )
    closed: List[RoundRecord] = []
    index = 0
    while index in round_records:
        closed.append(round_records[index])
        index += 1
    horizon = len(closed)
    kept = [
        (round_index, result)
        for round_index, result in net_records
        if round_index < horizon
    ]
    return closed, kept
