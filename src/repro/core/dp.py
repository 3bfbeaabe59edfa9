"""The Van Ginneken dynamic-programming engine (paper Sections II-D and IV).

One engine implements both algorithms:

* **DelayOpt** — the classic Van Ginneken/Lillis DP (``noise_aware=False``):
  candidates ``(C, q, M)`` propagate bottom-up; buffers maximize slack.
* **BuffOpt / Algorithm 3** — the paper's extension (``noise_aware=True``):
  candidates grow to ``(C, q, I, NS, M)`` and a buffer (or the final
  driver) is only accepted when its output noise ``R * I`` fits within the
  downstream noise slack ``NS``.  Candidates whose ``NS`` falls below zero
  are dead (no gate could ever legally drive them) and are dropped, which
  is why BuffOpt generates *fewer* candidates than DelayOpt (Section V-B).

Supported extensions, all from the paper's toolbox:

* **buffer-count tracking** (Lillis [18]) — keep one candidate frontier per
  inserted-buffer count, enabling DelayOpt(k) and Problem 3;
* **polarity tracking** (Lillis [18]) — inverting buffers flip a polarity
  bit; merges require equal polarity and the source must see parity 0;
* **pruning rules** — the paper prunes on ``(C, q)`` only (``prune=
  "timing"``, the Theorem-5 setting); ``prune="pareto"`` keeps the full
  4-field Pareto frontier (ablation).

The noise state uses exactly the update rules of the Devgan metric module,
so an engine result re-analyzed by :mod:`repro.noise.devgan` agrees with
the candidate arithmetic (tested).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import InfeasibleError
from ..library.buffers import BufferLibrary, BufferType
from ..library.cells import DriverCell
from ..library.power import PowerModel
from ..noise.coupling import CouplingModel
from ..tree.topology import Node, RoutingTree, Wire
from ._chain import Chain
from .budget import RunBudget
from .objective import Objective
from .solution import BufferSolution
from .stats import EngineStats
from .wire_sizing import WireChoice, WireSizingSpec, apply_wire_widths


@dataclass(frozen=True)
class Insertion:
    """One buffer assigned to one (existing, feasible) tree node."""

    node: str
    buffer: BufferType


@dataclass(frozen=True)
class DPCandidate:
    """The paper's candidate tuple ``(C, q, I, NS, M)`` plus polarity.

    ``wire_chain`` records wire-width decisions when the engine runs with
    a :class:`~repro.core.wire_sizing.WireSizingSpec` (Lillis-style
    simultaneous sizing); only non-default widths are recorded.
    """

    load: float
    slack: float
    current: float
    noise_slack: float
    polarity: int
    chain: Optional[Chain[Insertion]]
    wire_chain: Optional[Chain[WireChoice]] = None
    #: monotone power accumulator: summed buffer + wire switching power
    #: of the decisions this candidate committed.  Stays exactly ``0.0``
    #: when the run carries no :class:`~repro.library.PowerModel`, so
    #: power-off runs are bit-identical to the pre-power engine (the
    #: ``site_prices`` zero-cost-identity discipline).
    power: float = 0.0

    @property
    def count(self) -> int:
        return Chain.size(self.chain)

    def insertions(self) -> Tuple[Insertion, ...]:
        return Chain.to_tuple(self.chain)

    def wire_choices(self) -> Tuple[WireChoice, ...]:
        return Chain.to_tuple(self.wire_chain)


#: the concrete DP implementations: the readable executable spec
#: (this module) and the production engine (:mod:`repro.core.lishi_engine`).
ENGINES = ("reference", "lishi")
#: retired engine names, still accepted for one release so stored
#: requests and journals that carry them keep running; both run lishi.
_ENGINE_ALIASES = {"fast": "lishi", "auto": "lishi"}
#: everything :class:`DPOptions.engine` accepts.
ENGINE_CHOICES = ENGINES + tuple(_ENGINE_ALIASES)


@dataclass(frozen=True)
class DPOptions:
    """Engine configuration; defaults give the plain Van Ginneken setup.

    ``collect_stats``, ``budget`` and ``frontier_cache`` control how a
    run is observed, bounded and reused; none of them changes its
    outcomes or candidate counters.
    """

    noise_aware: bool = False
    track_counts: bool = False
    max_buffers: Optional[int] = None
    prune: str = "timing"  # "timing" (paper) or "pareto" (4-field ablation)
    enforce_polarity: bool = True
    #: which DP implementation runs the recurrence: ``"reference"`` (this
    #: module, the readable dataclass-per-candidate engine) or
    #: ``"lishi"`` (:mod:`repro.core.lishi_engine`, the genuine O(bn²)
    #: algorithm — semantically equivalent within float tolerance, *not*
    #: bit-identical).  The retired names ``"fast"`` and ``"auto"`` are
    #: kept as-is here and run lishi.
    engine: str = "reference"
    #: enable Lillis-style simultaneous wire sizing with this width menu.
    sizing: Optional[WireSizingSpec] = None
    #: collect an :class:`~repro.core.stats.EngineStats` record on the
    #: result: per-node counters and the wall time of each phase (merge,
    #: buffering, wire, prune, finalize), timed inline by the one visit
    #: loop both engines run.  This is the only DP phase timer; off, the
    #: loop pays one ``is None`` check per phase.  Never changes the
    #: candidate arithmetic: outcomes and counters are bit-identical
    #: either way.
    collect_stats: bool = False
    #: cooperative deadline / candidate budget, checked once per node
    #: visit; ``None`` runs unguarded.  Budgets are stateful — pass a
    #: fresh (or restarted) one per run.
    budget: Optional[RunBudget] = None
    #: opt-in ECO frontier cache (:class:`~repro.core.eco.FrontierCache`).
    #: The visit loop restores whole unchanged subtrees from it (with
    #: their candidate-accounting deltas) and stores a snapshot at every
    #: node it does visit, making incremental re-runs after a local edit
    #: bit-identical to cold runs at a fraction of the work.  Reference
    #: engine only: the lishi engine uses an incompatible internal
    #: frontier representation.  Excludes ``collect_stats``: skipped
    #: subtrees have no per-node records.
    frontier_cache: Optional[object] = None
    #: per-node Lagrangian buffer-site prices (node name -> nonnegative
    #: finite price, in slack units).  A buffer inserted at a priced node
    #: pays the price as extra slack cost — exactly like an added
    #: intrinsic delay — which is how the fleet coordinator
    #: (:mod:`repro.fleet`) threads shared-site congestion costs into the
    #: per-net DP.  Because the price is uniform across all candidates
    #: and buffer types at one node, the per-buffer argmax (and the lishi
    #: engine's hull walk) is unchanged; only the *buffered* candidate's
    #: slack shifts, steering competition between buffering at different
    #: nodes.  ``None``/empty, or a price of exactly ``0.0``, takes the
    #: original arithmetic path bit-for-bit (``x - 0.0 == x`` in IEEE
    #: round-to-nearest), so unpriced runs stay bit-identical on both
    #: engines.
    #:
    #: Semantics caveat: penalties ride the *slack* recurrence, so a
    #: branch merge (min over children) absorbs penalties paid on the
    #: non-critical branch.  The engine therefore maximizes the
    #: min-over-sinks *path-priced* slack ``v(x)``, which satisfies
    #: ``slack(x) - sum(prices over all buffers) <= v(x) <= slack(x)``
    #: — enough for valid Lagrangian bounds (see
    #: :mod:`repro.fleet.pricing`), but the root slack of a priced run
    #: is *not* simply the physical slack minus the total penalty.
    site_prices: Optional[Mapping[str, float]] = None
    #: opt-in power accumulator (:class:`~repro.library.PowerModel`).
    #: When set, every candidate carries its committed switching +
    #: short-circuit power, the merge generates the full cross product
    #: (the staircase walk is 2-D-only), buffering keeps one candidate
    #: per (drive-slack, power)-Pareto donor instead of the scalar
    #: argmax, pruning extends dominance with the power axis, and the
    #: result keeps a per-count (slack, power) frontier — everything
    #: :meth:`DPResult.min_power` / :meth:`DPResult.power_capped` /
    #: :meth:`DPResult.pareto_outcomes` need.  ``None`` — the default —
    #: carries ``0.0`` through arithmetic that is bit-identical to the
    #: pre-power engine on both implementations (tested).
    #: Incompatible with ``sizing``: without sizing the wire power of a
    #: net is assignment-independent, which is what keeps the
    #: certificate re-derivation exact.
    power: Optional[PowerModel] = None

    def __post_init__(self) -> None:
        if self.prune not in ("timing", "pareto"):
            raise ValueError(f"unknown prune rule {self.prune!r}")
        if self.engine not in ENGINE_CHOICES:
            raise ValueError(
                f"unknown engine {self.engine!r} "
                f"(expected one of {', '.join(map(repr, ENGINE_CHOICES))})"
            )
        if self.budget is not None and not isinstance(self.budget, RunBudget):
            raise ValueError(
                f"budget must be a RunBudget or None, got {self.budget!r}"
            )
        if self.max_buffers is not None and self.max_buffers < 0:
            raise ValueError(f"max_buffers must be >= 0, got {self.max_buffers}")
        if self.max_buffers is not None and not self.track_counts:
            raise ValueError(
                "max_buffers requires track_counts=True (candidate counts "
                "must be part of the frontier to cap them soundly)"
            )
        if self.frontier_cache is not None:
            if self.engine != "reference":
                raise ValueError(
                    "frontier_cache requires engine='reference' (the lishi "
                    "engine cannot snapshot/restore reference frontiers), "
                    f"got engine={self.engine!r}"
                )
            if self.collect_stats:
                raise ValueError(
                    "frontier_cache is incompatible with collect_stats "
                    "(per-node telemetry cannot be recorded for skipped "
                    "subtrees)"
                )
            if not callable(
                getattr(self.frontier_cache, "lookup", None)
            ) or not callable(getattr(self.frontier_cache, "store", None)):
                raise ValueError(
                    "frontier_cache must expose lookup(fingerprint) and "
                    "store(fingerprint, snapshot) (use "
                    f"repro.core.eco.FrontierCache), got "
                    f"{self.frontier_cache!r}"
                )
        if self.site_prices is not None:
            if not isinstance(self.site_prices, Mapping):
                raise ValueError(
                    "site_prices must be a mapping of node name -> price "
                    f"or None, got {self.site_prices!r}"
                )
            for name, price in self.site_prices.items():
                if not isinstance(name, str):
                    raise ValueError(
                        f"site_prices keys must be node names, got {name!r}"
                    )
                if not isinstance(price, (int, float)) or isinstance(
                    price, bool
                ):
                    raise ValueError(
                        f"site_prices[{name!r}] must be a number, "
                        f"got {price!r}"
                    )
                if not math.isfinite(price) or price < 0.0:
                    raise ValueError(
                        f"site_prices[{name!r}] must be finite and >= 0, "
                        f"got {price!r}"
                    )
        if self.power is not None:
            if not callable(
                getattr(self.power, "buffer_power", None)
            ) or not callable(getattr(self.power, "wire_power", None)):
                raise ValueError(
                    "power must expose buffer_power(buffer) and "
                    "wire_power(capacitance) (use repro.library.PowerModel), "
                    f"got {self.power!r}"
                )
            if self.sizing is not None:
                raise ValueError(
                    "power is incompatible with wire sizing: the power "
                    "certificate re-derives wire power from the drawn "
                    "widths, which sizing makes assignment-dependent"
                )


@dataclass(frozen=True)
class DPOutcome:
    """One finalized source candidate (driver delay and noise applied)."""

    buffer_count: int
    slack: float
    noise_feasible: bool
    insertions: Tuple[Insertion, ...]
    wire_choices: Tuple[WireChoice, ...] = ()
    #: accumulated buffer + wire power of the inserted solution; exactly
    #: ``0.0`` when the run carried no power model.
    power: float = 0.0


@dataclass(frozen=True)
class DPResult:
    """All finalized outcomes.

    Without a power model: the best outcome per buffer count.  With one
    (``options.power``): the per-count *(slack, power)* frontier —
    several outcomes may share a count, ordered by rising power (and
    hence rising slack) within it.

    Outcome selection is unified behind :meth:`select`, which consumes a
    structured :class:`~repro.core.objective.Objective`.
    :meth:`minimize_cost` stays beside it for arbitrary per-buffer
    weights, which no objective expresses.
    """

    tree: RoutingTree
    outcomes: Tuple[DPOutcome, ...]
    options: DPOptions
    #: total candidates generated / surviving prunes (for the ablations).
    candidates_generated: int
    candidates_kept_peak: int
    #: telemetry record, present when run with ``collect_stats=True``.
    stats: Optional[EngineStats] = None

    def select(self, objective: Objective):
        """Pick the outcome(s) the objective asks for.

        Returns one :class:`DPOutcome` for every selection rule except
        ``"pareto"``, which returns the nondominated tuple from
        :meth:`pareto_outcomes`.  The rule-specific helpers below
        document each rule's exact tie-breaks.
        """
        if objective.selection == "max-slack":
            return self._best(objective.require_noise)
        if objective.selection == "fewest-buffers":
            return self._fewest_buffers(
                objective.min_slack, objective.require_noise
            )
        if objective.selection == "min-power":
            return self.min_power(
                objective.min_slack, objective.require_noise
            )
        if objective.selection == "power-capped":
            return self.power_capped(
                objective.power_cap, objective.require_noise
            )
        if objective.selection == "pareto":
            return self.pareto_outcomes(objective.require_noise)
        raise ValueError(
            f"unknown objective selection {objective.selection!r}"
        )

    def _best(self, require_noise: Optional[bool] = None) -> DPOutcome:
        """Maximum-slack outcome (Problem 2 when ``require_noise``).

        ``require_noise`` defaults to the engine's ``noise_aware`` flag.
        Ties go to fewer buffers, then (power runs) to less power.
        """
        pool = self._noise_pool(require_noise)
        return max(pool, key=lambda o: (o.slack, -o.buffer_count, -o.power))

    def _fewest_buffers(
        self, min_slack: float = 0.0, require_noise: Optional[bool] = None
    ) -> DPOutcome:
        """Problem 3: fewest buffers with noise met and slack >= min_slack.

        Falls back to the maximum-slack outcome when no outcome reaches
        ``min_slack`` (timing-infeasible nets still get their best fix,
        mirroring how BuffOpt is deployed in Section IV-C).
        """
        pool = self._noise_pool(require_noise)
        meeting = [o for o in pool if o.slack >= min_slack]
        if meeting:
            return min(meeting, key=lambda o: (o.buffer_count, -o.slack))
        return max(pool, key=lambda o: (o.slack, -o.buffer_count))

    def minimize_cost(
        self,
        cost,
        min_slack: float = 0.0,
        require_noise: Optional[bool] = None,
    ) -> DPOutcome:
        """Lillis-style cost objective over the per-count frontier.

        ``cost`` maps a :class:`~repro.library.BufferType` to a
        non-negative weight (area, leakage, ...); the outcome minimizing
        the summed weight of its insertions is returned, among outcomes
        meeting ``min_slack`` (falling back to the max-slack outcome when
        none does, like :meth:`_fewest_buffers`).  With ``cost = lambda b:
        1`` this reduces to Problem 3 exactly.

        Note the search runs over the count-indexed best-slack frontier —
        the DP optimizes slack per count, so a same-count solution with
        lower cost but worse (still sufficient) slack is not represented;
        for uniform costs this is exact, for non-uniform costs it is the
        standard frontier heuristic.  The ``min-power`` selection over a
        power-model run does not share this caveat: the engine keeps the
        per-count (slack, power) frontier.
        """
        require = self.options.noise_aware if require_noise is None else require_noise
        pool = [o for o in self.outcomes if o.noise_feasible or not require]
        if not pool:
            raise InfeasibleError(
                f"net {self.tree.name!r}: no noise-feasible solution exists"
            )
        meeting = [o for o in pool if o.slack >= min_slack]
        if not meeting:
            return max(pool, key=lambda o: (o.slack, -o.buffer_count))

        def total(outcome: DPOutcome) -> float:
            return sum(cost(ins.buffer) for ins in outcome.insertions)

        return min(meeting, key=lambda o: (total(o), -o.slack))

    def min_power(
        self, min_slack: float = 0.0, require_noise: Optional[bool] = None
    ) -> DPOutcome:
        """Least-power outcome meeting ``min_slack`` (power-model runs).

        Ties go to more slack, then fewer buffers.  Falls back to the
        maximum-slack outcome (ties to less power) when nothing reaches
        ``min_slack``, mirroring :meth:`_fewest_buffers` — a
        timing-infeasible net still gets its best fix.
        """
        self._require_power_model("min-power")
        pool = self._noise_pool(require_noise)
        meeting = [o for o in pool if o.slack >= min_slack]
        if meeting:
            return min(
                meeting, key=lambda o: (o.power, -o.slack, o.buffer_count)
            )
        return max(pool, key=lambda o: (o.slack, -o.power, -o.buffer_count))

    def power_capped(
        self, power_cap: float, require_noise: Optional[bool] = None
    ) -> DPOutcome:
        """Best-slack outcome within ``power_cap`` watts (power-model runs).

        Ties go to less power, then fewer buffers.  Unlike the slack
        floor of the other rules, the cap is hard: when no outcome fits
        it the net is infeasible under this objective and
        :class:`~repro.errors.InfeasibleError` is raised.
        """
        self._require_power_model("power-capped")
        pool = self._noise_pool(require_noise)
        meeting = [o for o in pool if o.power <= power_cap]
        if not meeting:
            raise InfeasibleError(
                f"net {self.tree.name!r}: no solution within power cap "
                f"{power_cap!r} (least-power outcome needs "
                f"{min(o.power for o in pool)!r})"
            )
        return max(meeting, key=lambda o: (o.slack, -o.power, -o.buffer_count))

    def pareto_outcomes(
        self, require_noise: Optional[bool] = None
    ) -> Tuple[DPOutcome, ...]:
        """The nondominated (slack, power, buffer-count) frontier.

        An outcome survives unless another has >= slack, <= power and
        <= buffers (one strictly better).  Returned best-slack-first.
        """
        self._require_power_model("pareto")
        pool = self._noise_pool(require_noise)
        ordered = sorted(
            pool, key=lambda o: (-o.slack, o.power, o.buffer_count)
        )
        kept: List[DPOutcome] = []
        for outcome in ordered:
            dominated = any(
                other.slack >= outcome.slack
                and other.power <= outcome.power
                and other.buffer_count <= outcome.buffer_count
                and (
                    other.slack > outcome.slack
                    or other.power < outcome.power
                    or other.buffer_count < outcome.buffer_count
                )
                for other in kept
            )
            if not dominated:
                kept.append(outcome)
        return tuple(kept)

    def _noise_pool(
        self, require_noise: Optional[bool]
    ) -> List[DPOutcome]:
        require = (
            self.options.noise_aware if require_noise is None else require_noise
        )
        pool = [o for o in self.outcomes if o.noise_feasible or not require]
        if not pool:
            raise InfeasibleError(
                f"net {self.tree.name!r}: no noise-feasible solution exists "
                "for this buffer library and segmentation"
            )
        return pool

    def _require_power_model(self, selection: str) -> None:
        if self.options.power is None:
            raise ValueError(
                f"the {selection!r} selection needs a power-model run: "
                "pass DPOptions(power=repro.library.default_power_model())"
            )

    def solution(self, outcome: DPOutcome) -> BufferSolution:
        """Materialize an outcome as a :class:`BufferSolution`.

        For sizing-enabled runs the assignment refers to the *drawn-width*
        tree; use :meth:`sized_solution` to also realize the wire widths.
        """
        return BufferSolution(
            self.tree, {ins.node: ins.buffer for ins in outcome.insertions}
        )

    def sized_solution(
        self, outcome: DPOutcome
    ) -> Tuple[RoutingTree, BufferSolution]:
        """Realize an outcome's wire widths and buffers as a new tree.

        Returns ``(resized tree, buffer solution on it)``; for runs
        without sizing this is just a copy plus :meth:`solution`.
        """
        spec = self.options.sizing or WireSizingSpec(widths=(1.0,))
        widths = {
            (choice.parent, choice.child): choice.width
            for choice in outcome.wire_choices
        }
        resized = apply_wire_widths(self.tree, widths, spec)
        return resized, BufferSolution(
            resized, {ins.node: ins.buffer for ins in outcome.insertions}
        )


# groups: (polarity, count_key) -> candidate list sorted by load ascending.
_Groups = Dict[Tuple[int, int], List[DPCandidate]]


def _presorted_timing_frontier(
    candidates: List[DPCandidate],
) -> Optional[List[DPCandidate]]:
    """The (load, slack) frontier of an already-sorted candidate list.

    Merge outputs and wire updates keep frontiers load-sorted, so most
    prune passes see a list already ordered by ``(load, -slack)`` — this
    scans it once, pruning on the fly, and returns ``None`` the moment
    an out-of-order pair shows up (the caller then falls back to the
    full sort).  The returned frontier is exactly what sort-then-scan
    would keep: ``sorted`` is stable, so a list already ordered by the
    key comes back unchanged.
    """
    kept: List[DPCandidate] = []
    append = kept.append
    best_slack = -math.inf
    prev_load = -math.inf
    prev_slack = math.inf
    for cand in candidates:
        load = cand.load
        slack = cand.slack
        if load < prev_load or (load == prev_load and slack > prev_slack):
            return None
        prev_load = load
        prev_slack = slack
        if slack > best_slack:
            append(cand)
            best_slack = slack
    return kept


def _power_staircase(rows: List[Tuple[float, float, float, Any]]) -> List[Any]:
    """The (load, slack, power) frontier of ``(load, slack, power, item)``.

    The 3-D dominance rule of both engines' power-timing prune: an item
    is dropped when an earlier kept one has load <=, slack >= and
    power <= (first-seen wins exact ties).  The rows are sorted in
    place by ``(load, -slack, power)``, so every kept item already has
    load <= the scanned one and dominance reduces to the 2-D question
    "does a kept item with power <= p have slack >= s?".  The sweep for
    3-D maxima (Kung, Luccio and Preparata, J. ACM 1975) answers it
    from a staircase of the kept (power, slack) pairs that no other
    kept pair dominates — power and slack both strictly rising — with
    one bisect: the best slack at power <= p sits on the last step at
    or below p.  A kept item replaces, in one slice assignment, the
    steps it dominates: an equal-power step just below it and the
    steps above it whose slack is <= its own.  Dominance is transitive
    and every removed step is dominated by the new one, so the
    staircase answers exactly as a scan of every kept item would, in
    O(n log n) comparisons instead of O(n*k).
    """
    rows.sort(key=lambda row: (row[0], -row[1], row[2]))
    powers: List[float] = []
    slacks: List[float] = []
    kept: List[Any] = []
    for _, slack, power, item in rows:
        step = bisect_right(powers, power)
        if step and slacks[step - 1] >= slack:
            continue
        low = step - 1 if step and powers[step - 1] == power else step
        high = bisect_right(slacks, slack, step)
        powers[low:high] = (power,)
        slacks[low:high] = (slack,)
        kept.append(item)
    return kept


def _power_donors(
    by_power: Sequence[int],
    powers: Sequence[float],
    slacks: Sequence[float],
    loads: Sequence[float],
    limits: Optional[Sequence[float]],
    resistance: float,
) -> List[Tuple[float, int]]:
    """``(drive slack, index)`` of each (drive-slack, power)-Pareto donor.

    The power-active buffering step of both engines: with power as a
    frontier axis the scalar argmax of ``slack - R * load`` would drop
    donors that trade slack for power, so every donor whose drive slack
    beats all donors of lower power buffers a candidate.  ``by_power``
    is the group's indices stable-sorted by power once, shared by every
    buffer type.  Within a run of equal power only the largest drive
    slack can win (the lowest index on exact ties), and it is emitted
    when it beats every lower-power run — the same donors, in the same
    order, as sorting the feasible entries by ``(power, -drive slack)``
    per buffer.  ``limits`` (noise-aware runs) skips the candidates the
    buffer could not drive noise-clean (Step 5).
    """
    donors: List[Tuple[float, int]] = []
    best_seen = -math.inf
    run_power = run_slack = 0.0
    run_index = -1
    for index in by_power:
        if limits is not None and resistance > limits[index]:
            continue  # Step 5: never create a noisy candidate.
        drive_slack = slacks[index] - resistance * loads[index]
        power = powers[index]
        if run_index >= 0:
            if power == run_power:
                if drive_slack > run_slack:
                    run_slack = drive_slack
                    run_index = index
                continue
            if run_slack > best_seen:
                donors.append((run_slack, run_index))
                best_seen = run_slack
        run_power = power
        run_slack = drive_slack
        run_index = index
    if run_index >= 0 and run_slack > best_seen:
        donors.append((run_slack, run_index))
    return donors


class _EngineBase:
    """Construction, counters and the one bottom-up visit loop.

    Both engines run the paper's Fig. 10 recurrence in the same order —
    children before parents, and at each node the sink base (or the
    merge of the children's frontiers plus buffer insertion), then the
    parent wire, the prune and the budget charge — and differ only in
    how a frontier is represented.  Subclasses supply the phases
    (``_sink_base``, ``_merge_children``, ``_insert_buffers``,
    ``_apply_wire``, ``_prune`` returning ``(dropped, surviving)`` and
    ``_finalize``) and the :attr:`name` their telemetry carries.
    """

    #: the :attr:`~repro.core.stats.EngineStats.engine` label.
    name = ""

    def __init__(
        self,
        tree: RoutingTree,
        library: BufferLibrary,
        coupling: CouplingModel,
        options: DPOptions,
        driver: DriverCell,
    ):
        self.tree = tree
        self.library = library
        self.coupling = coupling
        self.options = options
        self.driver = driver
        self.power = options.power
        self.generated = 0
        self.kept_peak = 0
        self.dead = 0
        self.merge_forks = 0
        self.prune_presorted = 0
        self.prune_sorts = 0
        self.stats: Optional[EngineStats] = (
            EngineStats(engine=self.name) if options.collect_stats else None
        )

    def run(self) -> DPResult:
        """Visit every node once, children first; finalize at the source.

        An explicit stack (deep trees must not recurse) pops each node
        twice: on the first pop it is expanded, on the second visited.
        With ``options.collect_stats`` each visit opens a
        :class:`~repro.core.stats.NodeStats` record and times its phases
        inline.  With ``options.frontier_cache`` (reference engine only)
        the expansion first asks the cache for the whole subtree and, on
        a hit, restores its frontier *and* its candidate-accounting
        deltas instead of descending, so outcomes,
        ``candidates_generated`` and ``candidates_kept_peak`` stay
        bit-identical to a cold run; every visited node is stored back,
        so a cold run with an empty cache doubles as the populate pass.
        """
        options = self.options
        budget = options.budget
        stats = self.stats
        cache = options.frontier_cache
        if cache is not None:
            from .eco import FrontierSnapshot, context_key, subtree_fingerprints

            fingerprints = subtree_fingerprints(
                self.tree, context_key(self.library, self.coupling, options)
            )
            counters_at_start: Dict[str, Tuple[int, int, int, int, int]] = {}
            subtree_nodes: Dict[str, int] = {}
            subtree_peak: Dict[str, int] = {}
        lists: Dict[str, object] = {}
        stack: List[Tuple[Node, bool]] = [(self.tree.source, False)]
        while stack:
            node, expanded = stack.pop()
            if not expanded:
                if cache is not None:
                    snapshot = cache.lookup(fingerprints[node.name])
                    if snapshot is not None:
                        lists[node.name] = snapshot.restore_groups()
                        self.generated += snapshot.generated
                        self.dead += snapshot.dead
                        self.merge_forks += snapshot.merge_forks
                        self.prune_presorted += snapshot.prune_presorted
                        self.prune_sorts += snapshot.prune_sorts
                        self.kept_peak = max(self.kept_peak, snapshot.kept_peak)
                        subtree_nodes[node.name] = snapshot.node_count
                        subtree_peak[node.name] = snapshot.kept_peak
                        if budget is not None:
                            budget.charge(
                                self.generated, self.tree.name, node.name
                            )
                        continue
                    counters_at_start[node.name] = (
                        self.generated, self.dead, self.merge_forks,
                        self.prune_presorted, self.prune_sorts,
                    )
                stack.append((node, True))
                stack.extend(
                    [(child, False) for child in reversed(node.children)]
                )
                continue
            if stats is not None:
                record = stats.open_node(node.name)
                before = (self.generated, self.dead, self.merge_forks)
                start = perf_counter()
            if node.is_sink:
                frontier = self._sink_base(node)
            else:
                frontier = self._merge_children(node, lists)
                if stats is not None:
                    start = stats.lap("merge", start)
                self._insert_buffers(node, frontier)
                if stats is not None:
                    start = stats.lap("buffering", start)
                for child in node.children:
                    del lists[child.name]
            if node.parent_wire is not None:
                self._apply_wire(node.parent_wire, frontier)
                if stats is not None:
                    start = stats.lap("wire", start)
            dropped, surviving = self._prune(frontier)
            if stats is not None:
                stats.lap("prune", start)
                record.generated = self.generated - before[0]
                record.dead = self.dead - before[1]
                record.merge_forks = self.merge_forks - before[2]
                record.pruned = dropped
                record.frontier = surviving
                stats.candidates_pruned += dropped
                stats.frontier_peak = max(stats.frontier_peak, surviving)
            if budget is not None:
                budget.charge(self.generated, self.tree.name, node.name)
            lists[node.name] = frontier
            if cache is not None:
                node_count = 1
                peak = surviving
                for child in node.children:
                    node_count += subtree_nodes.pop(child.name)
                    peak = max(peak, subtree_peak.pop(child.name))
                subtree_nodes[node.name] = node_count
                subtree_peak[node.name] = peak
                before_node = counters_at_start.pop(node.name)
                # The tuples freeze the list *contents* of the reference
                # engine's groups; the candidates and their chains are
                # immutable and shared, never copied.
                cache.store(fingerprints[node.name], FrontierSnapshot(
                    groups=tuple(
                        (key, tuple(candidates))
                        for key, candidates in frontier.items()
                    ),
                    node_count=node_count,
                    generated=self.generated - before_node[0],
                    dead=self.dead - before_node[1],
                    merge_forks=self.merge_forks - before_node[2],
                    prune_presorted=self.prune_presorted - before_node[3],
                    prune_sorts=self.prune_sorts - before_node[4],
                    kept_peak=peak,
                ))
        if stats is not None:
            start = perf_counter()
        result = self._finalize(lists[self.tree.source.name])
        if stats is None:
            return result
        stats.lap("finalize", start)
        stats.candidates_generated = self.generated
        stats.candidates_dead = self.dead
        stats.merge_forks = self.merge_forks
        stats.prune_presorted = self.prune_presorted
        stats.prune_sorts = self.prune_sorts
        if budget is not None:
            stats.budget_checks = budget.checks
            stats.budget_candidate_pressure = budget.candidate_pressure
            stats.budget_time_pressure = budget.time_pressure
        return result


class _Engine(_EngineBase):
    """The reference engine: one frozen :class:`DPCandidate` per candidate.

    Frontiers are ``_Groups`` dicts; every phase materializes its
    outputs, which keeps the recurrence readable line by line against
    the paper.
    """

    name = "reference"

    # -- candidate algebra ---------------------------------------------------

    def _count_key(self, count: int) -> int:
        return count if self.options.track_counts else 0

    def _sink_base(self, node: Node) -> _Groups:
        assert node.sink is not None
        cand = DPCandidate(
            load=node.sink.capacitance,
            slack=node.sink.required_arrival,
            current=0.0,
            noise_slack=node.sink.noise_margin,
            polarity=0,
            chain=None,
        )
        self.generated += 1
        return {(0, 0): [cand]}

    def _merge_children(
        self, node: Node, lists: Mapping[str, _Groups]
    ) -> _Groups:
        children = node.children
        assert children, f"internal node {node.name!r} without children"
        groups = lists[children[0].name]
        for child in children[1:]:
            groups = self._merge_pair(groups, lists[child.name])
        return groups

    def _merge_pair(self, left: _Groups, right: _Groups) -> _Groups:
        merged: _Groups = {}
        merge = self._cross_merge if self.power is not None else self._linear_merge
        for (pol_l, count_l), list_l in left.items():
            for (pol_r, count_r), list_r in right.items():
                if self.options.enforce_polarity and pol_l != pol_r:
                    continue
                count = count_l + count_r
                if (
                    self.options.max_buffers is not None
                    and self.options.track_counts
                    and count > self.options.max_buffers
                ):
                    continue
                polarity = pol_l if self.options.enforce_polarity else 0
                key = (polarity, self._count_key(count))
                self.merge_forks += 1
                merged.setdefault(key, []).extend(merge(list_l, list_r))
        return merged

    def _linear_merge(
        self, left: List[DPCandidate], right: List[DPCandidate]
    ) -> List[DPCandidate]:
        """Van Ginneken's |L|+|R| merge over two load-sorted frontiers."""
        out: List[DPCandidate] = []
        i = j = 0
        while i < len(left) and j < len(right):
            a, b = left[i], right[j]
            out.append(
                DPCandidate(
                    load=a.load + b.load,
                    slack=min(a.slack, b.slack),
                    current=a.current + b.current,
                    noise_slack=min(a.noise_slack, b.noise_slack),
                    polarity=a.polarity,
                    chain=Chain.concat(a.chain, b.chain),
                    wire_chain=Chain.concat(a.wire_chain, b.wire_chain),
                )
            )
            self.generated += 1
            # Advance the side whose slack binds; it can only improve by
            # paying more load.  Advancing the other side cannot help.
            if a.slack < b.slack:
                i += 1
            elif b.slack < a.slack:
                j += 1
            else:
                i += 1
                j += 1
        return out

    def _cross_merge(
        self, left: List[DPCandidate], right: List[DPCandidate]
    ) -> List[DPCandidate]:
        """Full |L|x|R| merge, used when the power accumulator is live.

        The staircase walk of :meth:`_linear_merge` is only exact for a
        two-dimensional (load, slack) frontier: it pairs each candidate
        with the single partner whose slack binds.  With power as a
        third axis the optimal partner may instead trade slack for
        power, so every pairing is generated and the following prune
        pass keeps the three-dimensional frontier.
        """
        out: List[DPCandidate] = []
        for a in left:
            for b in right:
                out.append(
                    DPCandidate(
                        load=a.load + b.load,
                        slack=min(a.slack, b.slack),
                        current=a.current + b.current,
                        noise_slack=min(a.noise_slack, b.noise_slack),
                        polarity=a.polarity,
                        chain=Chain.concat(a.chain, b.chain),
                        wire_chain=Chain.concat(a.wire_chain, b.wire_chain),
                        power=a.power + b.power,
                    )
                )
                self.generated += 1
        return out

    def _insert_buffers(self, node: Node, groups: _Groups) -> None:
        if not node.feasible or node.is_source:
            return
        track = self.options.track_counts
        noise_aware = self.options.noise_aware
        max_buffers = self.options.max_buffers
        prices = self.options.site_prices
        power_model = self.power
        # Uniform across candidates and buffer types at this node, so the
        # argmax below is unaffected; subtracting 0.0 is bit-identical.
        penalty = prices.get(node.name, 0.0) if prices else 0.0
        inf = math.inf
        additions: List[Tuple[Tuple[int, int], DPCandidate]] = []
        for (polarity, group_count), candidates in groups.items():
            if track and max_buffers is not None and group_count + 1 > max_buffers:
                continue
            # Per-candidate scalars, hoisted out of the per-buffer loop.
            loads = [c.load for c in candidates]
            slacks = [c.slack for c in candidates]
            # Largest gate resistance each candidate tolerates: NS / I.
            if noise_aware:
                limits = [
                    (c.noise_slack / c.current) if c.current > 0 else inf
                    for c in candidates
                ]
            else:
                limits = None
            counts = None if track else [c.count for c in candidates]
            if power_model is not None:
                powers = [c.power for c in candidates]
                by_power = sorted(
                    range(len(candidates)), key=powers.__getitem__
                )
            else:
                powers = None
            for buffer in self.library:
                resistance = buffer.resistance
                if powers is None:
                    best_slack = -inf
                    best_index = -1
                    for index in range(len(candidates)):
                        if limits is not None and resistance > limits[index]:
                            continue  # Step 5: never create a noisy candidate.
                        slack = slacks[index] - resistance * loads[index]
                        if slack > best_slack:
                            best_slack = slack
                            best_index = index
                    if best_index < 0:
                        continue
                    donors: List[Tuple[float, int]] = [(best_slack, best_index)]
                    buffer_power = 0.0
                else:
                    # Power-active: the scalar argmax would discard donors
                    # that trade slack for power, so keep one buffered
                    # candidate per (drive-slack, power)-Pareto donor.
                    donors = _power_donors(
                        by_power, powers, slacks, loads, limits, resistance
                    )
                    if not donors:
                        continue
                    buffer_power = power_model.buffer_power(buffer)
                new_pol = (
                    polarity ^ (1 if buffer.inverting else 0)
                    if self.options.enforce_polarity
                    else 0
                )
                for best_slack, best_index in donors:
                    cand = candidates[best_index]
                    new_count = (
                        group_count if track else counts[best_index]
                    ) + 1
                    new = DPCandidate(
                        load=buffer.input_capacitance,
                        slack=best_slack - buffer.intrinsic_delay - penalty,
                        current=0.0,
                        noise_slack=buffer.noise_margin,
                        polarity=new_pol,
                        chain=Chain.push(
                            cand.chain, Insertion(node.name, buffer)
                        ),
                        wire_chain=cand.wire_chain,
                        power=cand.power + buffer_power,
                    )
                    self.generated += 1
                    additions.append(
                        ((new_pol, self._count_key(new_count)), new)
                    )
        for key, cand in additions:
            groups.setdefault(key, []).append(cand)

    def _apply_wire(self, wire: Wire, groups: _Groups) -> None:
        base_i = self.coupling.wire_current(wire)
        sizing = self.options.sizing
        power_model = self.power
        if sizing is None:
            variants = [(None, wire.resistance, wire.capacitance, base_i)]
        else:
            # Lillis: realize the wire at every menu width; the pruning
            # pass keeps the (load, slack) frontier of the variants.
            variants = []
            for width in sizing.widths:
                scale = sizing.capacitance_scale(width)
                variants.append(
                    (
                        None if width == 1.0 else width,
                        sizing.resistance(wire.resistance, width),
                        sizing.capacitance(wire.capacitance, width),
                        base_i * scale,
                    )
                )
        # The segment switches no matter how the subtree is buffered, so
        # its power is uniform across the node's candidates; it still
        # rides each accumulator so branch totals merge by addition.
        variants = [
            (
                width,
                resistance,
                capacitance,
                wire_i,
                power_model.wire_power(capacitance)
                if power_model is not None
                else 0.0,
            )
            for width, resistance, capacitance, wire_i in variants
        ]
        for key, candidates in list(groups.items()):
            updated: List[DPCandidate] = []
            for cand in candidates:
                for width, resistance, capacitance, wire_i, wire_power in variants:
                    noise_slack = cand.noise_slack - resistance * (
                        wire_i / 2.0 + cand.current
                    )
                    if self.options.noise_aware and noise_slack < 0.0:
                        self.dead += 1
                        continue  # dead: no gate can ever drive it
                    wire_chain = cand.wire_chain
                    if width is not None:
                        wire_chain = Chain.push(
                            wire_chain,
                            WireChoice(wire.parent.name, wire.child.name, width),
                        )
                    updated.append(
                        DPCandidate(
                            load=cand.load + capacitance,
                            slack=cand.slack
                            - resistance * (capacitance / 2.0 + cand.load),
                            current=cand.current + wire_i,
                            noise_slack=noise_slack,
                            polarity=cand.polarity,
                            chain=cand.chain,
                            wire_chain=wire_chain,
                            power=cand.power + wire_power,
                        )
                    )
                    if sizing is not None:
                        self.generated += 1
            if updated:
                groups[key] = updated
            else:
                del groups[key]

    def _prune(self, groups: _Groups) -> Tuple[int, int]:
        """Prune every group in place; return (dropped, surviving) counts."""
        total = 0
        dropped = 0
        timing = self.options.prune == "timing"
        power_active = self.power is not None
        for key, candidates in list(groups.items()):
            if power_active:
                # Power joins the dominance key only here — power-off
                # runs never reach these branches, preserving bit
                # identity and the presorted-scan fast path.
                self.prune_sorts += 1
                kept = (
                    self._power_timing_frontier(candidates)
                    if timing
                    else self._prune_pareto_power(candidates)
                )
            elif timing:
                kept = _presorted_timing_frontier(candidates)
                if kept is None:
                    self.prune_sorts += 1
                    kept = self._sorted_timing_frontier(candidates)
                else:
                    self.prune_presorted += 1
            else:
                kept = self._prune_pareto(candidates)
            dropped += len(candidates) - len(kept)
            groups[key] = kept
            total += len(kept)
        self.kept_peak = max(self.kept_peak, total)
        return dropped, total

    @staticmethod
    def _prune_timing(candidates: List[DPCandidate]) -> List[DPCandidate]:
        """Keep the (load, slack) frontier: rising load must buy rising slack.

        Frontiers are maintained load-sorted by the merge and wire
        passes, so the common case is a single pruning scan with no sort
        at all (:func:`_presorted_timing_frontier`); only lists thrown
        out of order — buffered candidates appended at the tail, or
        equal-load ties reordered by a wire update — pay the sort.
        """
        kept = _presorted_timing_frontier(candidates)
        if kept is not None:
            return kept
        return _Engine._sorted_timing_frontier(candidates)

    @staticmethod
    def _sorted_timing_frontier(
        candidates: List[DPCandidate],
    ) -> List[DPCandidate]:
        """The sort-then-scan fallback for out-of-order candidate lists."""
        ordered = sorted(candidates, key=lambda c: (c.load, -c.slack))
        kept: List[DPCandidate] = []
        best_slack = -math.inf
        for cand in ordered:
            if cand.slack > best_slack:
                kept.append(cand)
                best_slack = cand.slack
        return kept

    @staticmethod
    def _power_timing_frontier(
        candidates: List[DPCandidate],
    ) -> List[DPCandidate]:
        """(load, slack, power) dominance — the timing rule's power axis.

        A candidate is dropped when another has load <=, slack >= and
        power <= (first-seen wins exact ties).  Power frontiers reach
        thousands of candidates, so :func:`_power_staircase` answers
        each dominance query with one bisect instead of a scan of the
        kept list: O(n log n) per group.
        """
        return _power_staircase(
            [(c.load, c.slack, c.power, c) for c in candidates]
        )

    @staticmethod
    def _prune_pareto_power(
        candidates: List[DPCandidate],
    ) -> List[DPCandidate]:
        """5-field dominance: the pareto ablation plus the power axis."""
        ordered = sorted(
            candidates,
            key=lambda c: (c.load, -c.slack, c.current, -c.noise_slack, c.power),
        )
        kept: List[DPCandidate] = []
        for cand in ordered:
            dominated = any(
                other.load <= cand.load
                and other.slack >= cand.slack
                and other.current <= cand.current
                and other.noise_slack >= cand.noise_slack
                and other.power <= cand.power
                for other in kept
            )
            if not dominated:
                kept.append(cand)
        return kept

    @staticmethod
    def _prune_pareto(candidates: List[DPCandidate]) -> List[DPCandidate]:
        """4-field dominance (load, slack, current, noise slack) — ablation."""
        ordered = sorted(
            candidates,
            key=lambda c: (c.load, -c.slack, c.current, -c.noise_slack),
        )
        kept: List[DPCandidate] = []
        for cand in ordered:
            dominated = any(
                other.load <= cand.load
                and other.slack >= cand.slack
                and other.current <= cand.current
                and other.noise_slack >= cand.noise_slack
                for other in kept
            )
            if not dominated:
                kept.append(cand)
        return kept

    def _finalize(self, groups: _Groups) -> DPResult:
        has_inverters = any(b.inverting for b in self.library)
        finalized: List[DPOutcome] = []
        for (polarity, _), candidates in groups.items():
            if self.options.enforce_polarity and has_inverters and polarity != 0:
                continue
            for cand in candidates:
                slack = cand.slack - self.driver.gate_delay(cand.load)
                noise_ok = (
                    self.driver.resistance * cand.current <= cand.noise_slack
                )
                if self.options.noise_aware and not noise_ok:
                    continue  # Step 3/4 of Fig. 10: reject noisy finals.
                finalized.append(
                    DPOutcome(
                        buffer_count=cand.count,
                        slack=slack,
                        noise_feasible=noise_ok,
                        insertions=cand.insertions(),
                        wire_choices=cand.wire_choices(),
                        power=cand.power,
                    )
                )
        if self.power is not None:
            # Per-count (slack, power) frontier, ordered by rising power
            # (and hence rising slack) within each count.
            per_count: Dict[int, List[DPOutcome]] = {}
            for outcome in finalized:
                per_count.setdefault(outcome.buffer_count, []).append(outcome)
            frontier: List[DPOutcome] = []
            for count in sorted(per_count):
                best_seen = -math.inf
                for outcome in sorted(
                    per_count[count], key=lambda o: (o.power, -o.slack)
                ):
                    if outcome.slack > best_seen:
                        frontier.append(outcome)
                        best_seen = outcome.slack
            ordered = tuple(frontier)
        else:
            outcomes: Dict[int, DPOutcome] = {}
            for outcome in finalized:
                kept = outcomes.get(outcome.buffer_count)
                if kept is None or outcome.slack > kept.slack:
                    outcomes[outcome.buffer_count] = outcome
            ordered = tuple(outcomes[k] for k in sorted(outcomes))
        return DPResult(
            tree=self.tree,
            outcomes=ordered,
            options=self.options,
            candidates_generated=self.generated,
            candidates_kept_peak=self.kept_peak,
            stats=self.stats,
        )


def run_dp(
    tree: RoutingTree,
    library: BufferLibrary,
    coupling: Optional[CouplingModel] = None,
    options: Optional[DPOptions] = None,
    driver: Optional[DriverCell] = None,
) -> DPResult:
    """Run the DP over ``tree`` and return per-count best outcomes.

    ``coupling`` defaults to the silent model (all noise currents zero),
    which is the right setting for pure DelayOpt; ``driver`` defaults to
    ``tree.driver``.  ``options.engine`` selects the implementation:
    ``"reference"`` (this module) or ``"lishi"``
    (:mod:`repro.core.lishi_engine`, semantically equivalent within float
    tolerance).  The retired names ``"fast"`` and ``"auto"`` run lishi.
    """
    options = options or DPOptions()
    coupling = coupling or CouplingModel.silent()
    if driver is None:
        if tree.driver is None:
            raise InfeasibleError(
                f"tree {tree.name!r} has no driver cell; pass driver="
            )
        driver = tree.driver
    if _ENGINE_ALIASES.get(options.engine, options.engine) == "lishi":
        from .lishi_engine import LiShiEngine

        engine = LiShiEngine(tree, library, coupling, options, driver)
    else:
        engine = _Engine(tree, library, coupling, options, driver)
    return engine.run()
