"""Engine instrumentation: candidate and pruning telemetry.

The paper explains BuffOpt's speed by candidate-population effects
(Section V-B: dead-candidate dropping makes the noise-aware DP *generate
fewer* candidates than DelayOpt), and Li & Shi's O(bn^2) analysis shows
the asymptotics live in how hard each pruning pass bites.  This module
makes those quantities observable instead of anecdotal: an optional
:class:`EngineStats` collector rides along a DP run (``DPOptions(
collect_stats=True)``) and records, per node and in aggregate,

* how many candidates were generated,
* how many each pruning pass removed,
* how many died to the noise-slack test (``NS < 0``, noise-aware only),
* frontier sizes after pruning, and
* wall-clock per engine phase (merge / buffering / wire / prune).

Everything here is plain picklable data so batch workers can ship the
telemetry back across process boundaries.  Collection never changes the
candidate arithmetic — a run with stats enabled returns bit-identical
solutions to one without (covered by the differential harness).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

#: engine phase names, in execution order within a node visit.
PHASES = ("merge", "buffering", "wire", "prune", "finalize")


@dataclass
class NodeStats:
    """Telemetry for one tree node's visit.

    ``generated`` counts candidates created while processing this node
    (sink bases, merge outputs, buffered variants, sizing variants);
    ``pruned`` counts candidates the pruning pass removed *at* this node
    — which may exceed ``generated`` at pass-through nodes whose frontier
    was generated further down.  ``dead`` counts noise-dead drops
    (``NS < 0``) during the wire update; ``frontier`` is the surviving
    candidate count after pruning; ``merge_forks`` the number of
    (polarity, count)-group pair combinations merged here.
    """

    name: str
    generated: int = 0
    pruned: int = 0
    dead: int = 0
    frontier: int = 0
    merge_forks: int = 0


@dataclass
class EngineStats:
    """Aggregate telemetry of one DP run.

    Attributes
    ----------
    candidates_generated:
        Total candidates created, identical in meaning to
        :attr:`~repro.core.dp.DPResult.candidates_generated`.
    candidates_pruned:
        Total candidates removed by the pruning passes.
    candidates_dead:
        Total noise-dead candidates dropped during wire updates
        (``NS < 0``; always 0 for delay-only runs).
    frontier_peak:
        Largest post-prune frontier (all groups of one node summed).
    merge_forks:
        Total (polarity, count)-group pair combinations merged.
    phase_seconds:
        Wall-clock spent per engine phase, keyed by :data:`PHASES`.
    nodes:
        Per-node breakdowns in postorder visit order.
    budget_checks:
        How many cooperative :class:`~repro.core.budget.RunBudget`
        checks ran (0 when the run was unguarded).
    budget_candidate_pressure:
        Peak generated-candidate count as a fraction of the candidate
        budget — how close the run came to a
        :class:`~repro.errors.BudgetExceededError` (0 when uncapped).
    budget_time_pressure:
        Peak observed elapsed time as a fraction of the deadline — how
        close the run came to a :class:`~repro.errors.TimeoutError`
        (0 when no deadline).
    engine:
        Which DP engine produced this record (``"reference"`` or
        ``"lishi"``; ``"mixed"`` after aggregating across engines).
    prune_presorted:
        Timing-prune passes that found their frontier already
        ``(load, -slack)``-sorted and skipped the sort entirely — the
        incremental-sorted-frontier fast path.  Both engines report the
        same counter, so their pruning behaviour is directly
        comparable.
    prune_sorts:
        Timing-prune passes that had to fall back to a full sort.
    """

    candidates_generated: int = 0
    candidates_pruned: int = 0
    candidates_dead: int = 0
    frontier_peak: int = 0
    merge_forks: int = 0
    budget_checks: int = 0
    budget_candidate_pressure: float = 0.0
    budget_time_pressure: float = 0.0
    engine: str = ""
    prune_presorted: int = 0
    prune_sorts: int = 0
    phase_seconds: Dict[str, float] = field(
        default_factory=lambda: {phase: 0.0 for phase in PHASES}
    )
    nodes: List[NodeStats] = field(default_factory=list)

    # -- collection hooks (called by the engine) ---------------------------

    def open_node(self, name: str) -> NodeStats:
        node = NodeStats(name=name)
        self.nodes.append(node)
        return node

    def add_phase(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def lap(self, phase: str, start: float) -> float:
        """Charge the time since ``start`` to ``phase``; return now.

        The engine's visit loop chains laps through a node's phases, so
        one clock read both ends a phase and starts the next.
        """
        now = perf_counter()
        self.add_phase(phase, now - start)
        return now

    # -- derived views -----------------------------------------------------

    @property
    def candidates_kept(self) -> int:
        """Candidates that survived everything (generated - pruned - dead)."""
        return (
            self.candidates_generated
            - self.candidates_pruned
            - self.candidates_dead
        )

    @property
    def prune_rate(self) -> float:
        """Fraction of generated candidates removed by pruning passes."""
        if self.candidates_generated == 0:
            return 0.0
        return self.candidates_pruned / self.candidates_generated

    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def merge_with(self, other: "EngineStats") -> None:
        """Fold another run's telemetry into this one (batch aggregation).

        Per-node breakdowns are concatenated; ``frontier_peak`` takes the
        max (it is a peak, not a sum).
        """
        self.candidates_generated += other.candidates_generated
        self.candidates_pruned += other.candidates_pruned
        self.candidates_dead += other.candidates_dead
        self.frontier_peak = max(self.frontier_peak, other.frontier_peak)
        self.merge_forks += other.merge_forks
        self.prune_presorted += other.prune_presorted
        self.prune_sorts += other.prune_sorts
        if not self.engine:
            self.engine = other.engine
        elif other.engine and other.engine != self.engine:
            self.engine = "mixed"
        self.budget_checks += other.budget_checks
        self.budget_candidate_pressure = max(
            self.budget_candidate_pressure, other.budget_candidate_pressure
        )
        self.budget_time_pressure = max(
            self.budget_time_pressure, other.budget_time_pressure
        )
        for phase, seconds in other.phase_seconds.items():
            self.add_phase(phase, seconds)
        self.nodes.extend(other.nodes)

    def describe(self) -> str:
        engine = f" [{self.engine}]" if self.engine else ""
        lines = [
            f"candidates{engine}: {self.candidates_generated} generated, "
            f"{self.candidates_pruned} pruned "
            f"({100.0 * self.prune_rate:.1f}%), "
            f"{self.candidates_dead} noise-dead, "
            f"{self.candidates_kept} kept",
            f"frontier peak: {self.frontier_peak}   "
            f"merge forks: {self.merge_forks}",
        ]
        if self.prune_presorted or self.prune_sorts:
            lines.append(
                f"timing prunes: {self.prune_presorted} presorted "
                f"(sort skipped), {self.prune_sorts} sorted"
            )
        if self.budget_checks:
            lines.append(
                f"budget: {self.budget_checks} checks, peak pressure "
                f"{100.0 * self.budget_candidate_pressure:.1f}% of "
                "candidate budget, "
                f"{100.0 * self.budget_time_pressure:.1f}% of deadline"
            )
        timed = {p: s for p, s in self.phase_seconds.items() if s > 0.0}
        if timed:
            total = self.total_seconds()
            shares = "  ".join(
                f"{phase}: {seconds * 1e3:.2f} ms"
                f" ({100.0 * seconds / total:.0f}%)"
                for phase, seconds in sorted(
                    timed.items(), key=lambda kv: -kv[1]
                )
            )
            lines.append(f"phase wall-clock: {shares}")
        return "\n".join(lines)
