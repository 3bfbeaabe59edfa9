"""Exhaustive small-net oracle for the buffer-insertion DP.

On nets with few feasible buffer sites, the *whole* solution space can
be enumerated: every assignment of (no buffer | one of ``b`` library
buffers) to each of ``s`` sites is ``(b+1)^s`` cases, each evaluated by
the independent certificate recursion (:mod:`.certificate`), never by
the engine under test.  The resulting :class:`OracleResult` mirrors
:class:`~repro.core.dp.DPResult`'s selection rules (max-slack as
``best``, fewest-buffers, ``minimize_cost``, and the power rules) so
the DP's answers can be checked for *optimality*, not mere
feasibility.

What may be asserted, and when:

* **Delay mode** (``noise_aware=False``): the DP is exact (van
  Ginneken's optimality), so every selection must *equal* the oracle's.
* **Noise-aware mode**: BuffOpt's linear merge and timing-first pruning
  make it a heuristic on multi-buffer libraries (the paper reports a
  <2% gap); the sound direction always holds — the DP can never *beat*
  the exhaustive optimum, and any solution it claims must be legal.
  :func:`compare_result_to_oracle` asserts equality when ``exact=True``
  and soundness otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.objective import Objective
from ..core.wire_sizing import WireSizingSpec, apply_wire_widths
from ..errors import InfeasibleError, ReproError
from ..library.buffers import BufferLibrary, BufferType
from ..library.cells import DriverCell
from ..library.power import PowerModel
from ..noise.coupling import CouplingModel
from ..tree.topology import RoutingTree
from .certificate import evaluate_assignment, recompute_power

#: hard ceiling on enumerated assignments before the oracle refuses.
DEFAULT_MAX_ASSIGNMENTS = 500_000


class OracleBoundError(ReproError):
    """The net is too large for exhaustive enumeration.

    Raised before any work happens when the site count or the implied
    assignment count exceeds the configured bounds — the oracle never
    silently samples; it either enumerates everything or refuses.
    """


@dataclass(frozen=True)
class OracleOutcome:
    """One fully-evaluated legal buffer assignment."""

    assignment: Tuple[Tuple[str, str], ...]  # (node, buffer name), sorted
    buffer_count: int
    slack: float
    noise_feasible: bool
    #: wire width choices ((parent, child), width) when sizing enumerated.
    wire_widths: Tuple[Tuple[Tuple[str, str], float], ...] = ()
    #: certificate-recomputed power; None when no power model was given.
    power: Optional[float] = None

    def assignment_dict(self, library: BufferLibrary) -> Dict[str, BufferType]:
        by_name = {b.name: b for b in library}
        return {node: by_name[buf] for node, buf in self.assignment}


@dataclass(frozen=True)
class OracleResult:
    """Every legal outcome on a net, with DP-mirroring selection."""

    tree_name: str
    outcomes: Tuple[OracleOutcome, ...]
    noise_aware: bool
    sites: Tuple[str, ...]
    enumerated: int
    max_buffers: Optional[int]
    enforce_polarity: bool
    library_names: Tuple[str, ...]

    def _pool(self, require_noise: Optional[bool]) -> List[OracleOutcome]:
        require = self.noise_aware if require_noise is None else require_noise
        return [o for o in self.outcomes if o.noise_feasible or not require]

    def best(self, require_noise: Optional[bool] = None) -> OracleOutcome:
        """Maximum-slack legal outcome (ties: fewest buffers)."""
        pool = self._pool(require_noise)
        if not pool:
            raise InfeasibleError(
                f"oracle for {self.tree_name!r}: no noise-feasible "
                "assignment exists in the enumerated space"
            )
        return max(pool, key=lambda o: (o.slack, -o.buffer_count))

    def fewest_buffers(
        self, min_slack: float = 0.0, require_noise: Optional[bool] = None
    ) -> OracleOutcome:
        """Fewest buffers meeting ``min_slack`` (fallback: max slack)."""
        pool = self._pool(require_noise)
        if not pool:
            raise InfeasibleError(
                f"oracle for {self.tree_name!r}: no noise-feasible "
                "assignment exists in the enumerated space"
            )
        meeting = [o for o in pool if o.slack >= min_slack]
        if meeting:
            return min(meeting, key=lambda o: (o.buffer_count, -o.slack))
        return max(pool, key=lambda o: (o.slack, -o.buffer_count))

    def minimize_cost(
        self,
        cost,
        library: BufferLibrary,
        min_slack: float = 0.0,
        require_noise: Optional[bool] = None,
    ) -> OracleOutcome:
        """Minimum summed buffer cost meeting ``min_slack``.

        Unlike :meth:`DPResult.minimize_cost`, which searches the
        count-indexed best-slack frontier, this searches *all* legal
        assignments — it is the true optimum the frontier heuristic
        approximates.
        """
        pool = self._pool(require_noise)
        if not pool:
            raise InfeasibleError(
                f"oracle for {self.tree_name!r}: no noise-feasible "
                "assignment exists in the enumerated space"
            )
        meeting = [o for o in pool if o.slack >= min_slack]
        if not meeting:
            return max(pool, key=lambda o: (o.slack, -o.buffer_count))
        by_name = {b.name: b for b in library}

        def total(outcome: OracleOutcome) -> float:
            return sum(cost(by_name[buf]) for _, buf in outcome.assignment)

        return min(meeting, key=lambda o: (total(o), -o.slack))

    def min_power(
        self, min_slack: float = 0.0, require_noise: Optional[bool] = None
    ) -> OracleOutcome:
        """Least-power legal outcome meeting ``min_slack``.

        Mirrors :meth:`DPResult.min_power`'s tie-breaks (more slack,
        then fewer buffers) and its max-slack fallback when nothing
        reaches the threshold.  Requires the oracle to have been
        enumerated with a ``power_model``.
        """
        pool = self._power_pool(require_noise, "min_power")
        meeting = [o for o in pool if o.slack >= min_slack]
        if meeting:
            return min(
                meeting, key=lambda o: (o.power, -o.slack, o.buffer_count)
            )
        return max(pool, key=lambda o: (o.slack, -o.power, -o.buffer_count))

    def power_capped(
        self, power_cap: float, require_noise: Optional[bool] = None
    ) -> OracleOutcome:
        """Best-slack legal outcome within ``power_cap`` watts.

        Mirrors :meth:`DPResult.power_capped`: the cap is hard — when no
        enumerated assignment fits it, :class:`InfeasibleError` is
        raised rather than falling back.
        """
        pool = self._power_pool(require_noise, "power_capped")
        meeting = [o for o in pool if o.power <= power_cap]
        if not meeting:
            raise InfeasibleError(
                f"oracle for {self.tree_name!r}: no assignment within "
                f"power cap {power_cap!r} (minimum is "
                f"{min(o.power for o in pool)!r})"
            )
        return max(meeting, key=lambda o: (o.slack, -o.power, -o.buffer_count))

    def _power_pool(
        self, require_noise: Optional[bool], selection: str
    ) -> List[OracleOutcome]:
        pool = self._pool(require_noise)
        if not pool:
            raise InfeasibleError(
                f"oracle for {self.tree_name!r}: no noise-feasible "
                "assignment exists in the enumerated space"
            )
        if any(o.power is None for o in pool):
            raise ValueError(
                f"the {selection!r} selection needs the oracle enumerated "
                "with a power_model"
            )
        return pool

    def best_slack_within(
        self, buffer_count: int, require_noise: bool = False
    ) -> float:
        """Best achievable slack using at most ``buffer_count`` buffers.

        ``-inf`` when nothing qualifies (e.g. no noise-feasible
        assignment at that count).
        """
        pool = [
            o for o in self._pool(require_noise)
            if o.buffer_count <= buffer_count
        ]
        if not pool:
            return -math.inf
        return max(o.slack for o in pool)


def exhaustive_oracle(
    tree: RoutingTree,
    library: BufferLibrary,
    coupling: Optional[CouplingModel] = None,
    driver: Optional[DriverCell] = None,
    noise_aware: bool = True,
    max_buffers: Optional[int] = None,
    enforce_polarity: bool = True,
    sizing: Optional[WireSizingSpec] = None,
    max_sites: int = 8,
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS,
    power_model: Optional[PowerModel] = None,
) -> OracleResult:
    """Enumerate and evaluate every legal buffer assignment on a net.

    Sites are the tree's feasible internal nodes; each independently
    takes no buffer or any library buffer.  Assignments exceeding
    ``max_buffers`` are skipped; with ``enforce_polarity``, assignments
    leaving any sink with odd inversion parity are illegal and excluded.
    With ``sizing``, every wire-width combination from the spec's menu
    is enumerated as well (multiplying the space by ``|widths|^wires``).

    Raises :class:`OracleBoundError` when the space exceeds
    ``max_sites`` sites or ``max_assignments`` total cases.
    """
    if coupling is None:
        coupling = CouplingModel.silent()
    sites = tuple(sorted(
        node.name for node in tree.nodes()
        if node.is_internal and node.feasible
    ))
    if len(sites) > max_sites:
        raise OracleBoundError(
            f"net {tree.name!r} has {len(sites)} buffer sites, above the "
            f"oracle bound of {max_sites}"
        )
    buffers: Tuple[Optional[BufferType], ...] = (None, *library)
    total = len(buffers) ** len(sites)
    wire_keys: Tuple[Tuple[str, str], ...] = ()
    width_menu: Tuple[float, ...] = ()
    if sizing is not None:
        wire_keys = tuple(
            (w.parent.name, w.child.name) for w in tree.wires()
        )
        width_menu = sizing.widths
        total *= len(width_menu) ** len(wire_keys)
    if total > max_assignments:
        raise OracleBoundError(
            f"net {tree.name!r} implies {total} assignments, above the "
            f"oracle bound of {max_assignments}"
        )

    outcomes: List[OracleOutcome] = []
    enumerated = 0
    width_combos: Sequence[Tuple[float, ...]] = (
        [()] if sizing is None
        else list(itertools.product(width_menu, repeat=len(wire_keys)))
    )
    for widths in width_combos:
        if sizing is None:
            work_tree = tree
            width_record: Tuple[Tuple[Tuple[str, str], float], ...] = ()
        else:
            choices = dict(zip(wire_keys, widths))
            work_tree = apply_wire_widths(tree, choices, sizing)
            width_record = tuple(zip(wire_keys, widths))
        for combo in itertools.product(buffers, repeat=len(sites)):
            enumerated += 1
            assignment = {
                site: buffer
                for site, buffer in zip(sites, combo)
                if buffer is not None
            }
            if max_buffers is not None and len(assignment) > max_buffers:
                continue
            certificate = evaluate_assignment(
                work_tree, assignment, coupling, driver=driver,
                check_polarity=enforce_polarity,
            )
            if enforce_polarity and any(
                v.kind == "polarity" for v in certificate.violations
            ):
                continue  # illegal, not merely bad
            power = (
                None if power_model is None
                else recompute_power(work_tree, assignment, power_model)
            )
            outcomes.append(OracleOutcome(
                assignment=tuple(sorted(
                    (node, buffer.name)
                    for node, buffer in assignment.items()
                )),
                buffer_count=len(assignment),
                slack=certificate.slack,
                noise_feasible=certificate.noise_feasible,
                wire_widths=width_record,
                power=power,
            ))
    return OracleResult(
        tree_name=tree.name,
        outcomes=tuple(outcomes),
        noise_aware=noise_aware,
        sites=sites,
        enumerated=enumerated,
        max_buffers=max_buffers,
        enforce_polarity=enforce_polarity,
        library_names=tuple(b.name for b in library),
    )


@dataclass(frozen=True)
class OracleDisagreement:
    """One way the DP's answer differs from the exhaustive optimum."""

    check: str
    message: str

    def describe(self) -> str:
        return f"[{self.check}] {self.message}"


def compare_result_to_oracle(
    result,
    oracle: OracleResult,
    exact: Optional[bool] = None,
    min_slacks: Sequence[float] = (0.0,),
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-15,
    cost=None,
    cost_library: Optional[BufferLibrary] = None,
    cost_exact: bool = False,
) -> List[OracleDisagreement]:
    """Check a :class:`~repro.core.dp.DPResult` against the oracle.

    ``exact`` defaults to ``not result.options.noise_aware``: the
    delay-mode DP is provably optimal, while the noise-aware mode is a
    heuristic whose claims are only required to be *sound* (never better
    than the exhaustive optimum, never claiming feasibility the oracle
    refutes by absence).

    Always checked (soundness):

    * no DP outcome's slack exceeds the oracle's best within its count;
    * a noise-feasible DP claim implies the oracle found a
      noise-feasible assignment at that count;
    * if the DP reports a feasible ``best()``, so does the oracle.

    Additionally with ``exact``:

    * ``best()`` slacks match;
    * ``fewest_buffers(min_slack)`` counts match for every requested
      ``min_slack`` (and slacks match when both meet the threshold);
    * the oracle cannot be feasible while the DP claims infeasibility.

    With ``cost`` (and ``cost_library``), ``minimize_cost`` is compared
    too: the DP's total can never undercut the exhaustive minimum
    (soundness); with ``cost_exact`` the totals must be equal — only
    assert that for uniform costs, where the frontier search is exact.

    When the DP ran with a power model (``result.options.power``) and
    the oracle enumerated one, the power selections are compared too:
    ``min_power`` totals can never undercut the exhaustive minimum and
    ``power_capped`` slacks can never beat the capped optimum
    (soundness); with ``exact`` both must match, and cap feasibility
    must agree in both directions.
    """
    options = result.options
    if exact is None:
        exact = not options.noise_aware
    disagreements: List[OracleDisagreement] = []

    def close(a: float, b: float) -> bool:
        if math.isinf(a) or math.isinf(b):
            return a == b
        return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)

    def at_most(a: float, b: float) -> bool:
        return a <= b or close(a, b)

    if options.max_buffers != oracle.max_buffers:
        disagreements.append(OracleDisagreement(
            "config",
            f"DP max_buffers={options.max_buffers} but oracle enumerated "
            f"with max_buffers={oracle.max_buffers}",
        ))
    if options.enforce_polarity != oracle.enforce_polarity:
        disagreements.append(OracleDisagreement(
            "config",
            "DP and oracle disagree on polarity enforcement",
        ))

    # -- soundness: the DP can never beat the exhaustive optimum --------
    for outcome in result.outcomes:
        bound = oracle.best_slack_within(
            outcome.buffer_count, require_noise=False
        )
        if not at_most(outcome.slack, bound):
            disagreements.append(OracleDisagreement(
                "soundness",
                f"DP outcome with {outcome.buffer_count} buffers claims "
                f"slack {outcome.slack!r}, above the exhaustive optimum "
                f"{bound!r}",
            ))
        if outcome.noise_feasible:
            noise_bound = oracle.best_slack_within(
                outcome.buffer_count, require_noise=True
            )
            if noise_bound == -math.inf:
                disagreements.append(OracleDisagreement(
                    "soundness",
                    f"DP claims a noise-feasible outcome with "
                    f"{outcome.buffer_count} buffers; the oracle found no "
                    "noise-feasible assignment at that count",
                ))
            elif not at_most(outcome.slack, noise_bound):
                disagreements.append(OracleDisagreement(
                    "soundness",
                    f"DP noise-feasible outcome with {outcome.buffer_count} "
                    f"buffers claims slack {outcome.slack!r}, above the "
                    f"noise-feasible exhaustive optimum {noise_bound!r}",
                ))

    def dp_select(method, *args, **kwargs):
        try:
            return method(*args, **kwargs)
        except InfeasibleError:
            return None

    def oracle_select(method, *args, **kwargs):
        try:
            return method(*args, **kwargs)
        except InfeasibleError:
            return None

    mode = "buffopt" if options.noise_aware else "delay"

    # -- best() ---------------------------------------------------------
    dp_best = dp_select(
        result.select, Objective(mode=mode, selection="max-slack")
    )
    oracle_best = oracle_select(oracle.best, options.noise_aware)
    if dp_best is not None and oracle_best is None:
        disagreements.append(OracleDisagreement(
            "best",
            "DP reports a feasible best() but the oracle's pool is empty",
        ))
    elif dp_best is None and oracle_best is not None and exact:
        disagreements.append(OracleDisagreement(
            "best",
            "DP raises InfeasibleError but the oracle found a feasible "
            f"assignment with slack {oracle_best.slack!r}",
        ))
    elif dp_best is not None and oracle_best is not None:
        if exact and not close(dp_best.slack, oracle_best.slack):
            disagreements.append(OracleDisagreement(
                "best",
                f"DP best slack {dp_best.slack!r} != exhaustive optimum "
                f"{oracle_best.slack!r}",
            ))
        elif not at_most(dp_best.slack, oracle_best.slack):
            disagreements.append(OracleDisagreement(
                "best",
                f"DP best slack {dp_best.slack!r} exceeds the exhaustive "
                f"optimum {oracle_best.slack!r}",
            ))

    # -- fewest_buffers(min_slack) --------------------------------------
    for min_slack in min_slacks:
        dp_few = dp_select(result.select, Objective(
            mode=mode, selection="fewest-buffers", min_slack=min_slack
        ))
        oracle_few = oracle_select(oracle.fewest_buffers, min_slack,
                                   options.noise_aware)
        if dp_few is None or oracle_few is None:
            continue  # pool emptiness already handled via best()
        dp_meets = dp_few.slack >= min_slack
        oracle_meets = oracle_few.slack >= min_slack
        if dp_meets and not oracle_meets:
            disagreements.append(OracleDisagreement(
                "fewest",
                f"DP meets min_slack={min_slack!r} with {dp_few.buffer_count} "
                "buffers but the oracle says the threshold is unreachable",
            ))
        elif dp_meets and oracle_meets:
            if oracle_few.buffer_count > dp_few.buffer_count:
                disagreements.append(OracleDisagreement(
                    "fewest",
                    f"DP meets min_slack={min_slack!r} with "
                    f"{dp_few.buffer_count} buffers, fewer than the "
                    f"exhaustive minimum {oracle_few.buffer_count}",
                ))
            elif exact and oracle_few.buffer_count < dp_few.buffer_count:
                disagreements.append(OracleDisagreement(
                    "fewest",
                    f"DP needs {dp_few.buffer_count} buffers for "
                    f"min_slack={min_slack!r}; the exhaustive minimum is "
                    f"{oracle_few.buffer_count}",
                ))
        elif exact and not dp_meets and oracle_meets:
            disagreements.append(OracleDisagreement(
                "fewest",
                f"DP falls back below min_slack={min_slack!r} but the "
                f"oracle meets it with {oracle_few.buffer_count} buffers",
            ))

    # -- minimize_cost(cost, min_slack) ---------------------------------
    if cost is not None and cost_library is not None:
        for min_slack in min_slacks:
            dp_cheap = dp_select(result.minimize_cost, cost, min_slack)
            oracle_cheap = oracle_select(
                oracle.minimize_cost, cost, cost_library, min_slack,
                options.noise_aware,
            )
            if dp_cheap is None or oracle_cheap is None:
                continue
            if not (dp_cheap.slack >= min_slack
                    and oracle_cheap.slack >= min_slack):
                continue  # fallback semantics already covered by fewest
            dp_total = sum(cost(ins.buffer) for ins in dp_cheap.insertions)
            by_name = {b.name: b for b in cost_library}
            oracle_total = sum(
                cost(by_name[buf]) for _, buf in oracle_cheap.assignment
            )
            if dp_total < oracle_total and not close(dp_total, oracle_total):
                disagreements.append(OracleDisagreement(
                    "cost",
                    f"DP minimize_cost total {dp_total!r} undercuts the "
                    f"exhaustive minimum {oracle_total!r} at "
                    f"min_slack={min_slack!r}",
                ))
            elif cost_exact and not close(dp_total, oracle_total):
                disagreements.append(OracleDisagreement(
                    "cost",
                    f"DP minimize_cost total {dp_total!r} != exhaustive "
                    f"minimum {oracle_total!r} at min_slack={min_slack!r}",
                ))

    # -- power selections (power-model runs only) -----------------------
    power_active = (
        getattr(options, "power", None) is not None
        and any(o.power is not None for o in oracle.outcomes)
    )
    if power_active:
        # min_power(min_slack): the DP can never spend less power than
        # the exhaustive minimum at the same threshold.
        for min_slack in min_slacks:
            dp_mp = dp_select(result.min_power, min_slack)
            oracle_mp = oracle_select(oracle.min_power, min_slack,
                                      options.noise_aware)
            if dp_mp is None or oracle_mp is None:
                continue  # pool emptiness already handled via best()
            dp_meets = dp_mp.slack >= min_slack
            oracle_meets = oracle_mp.slack >= min_slack
            if dp_meets and not oracle_meets:
                disagreements.append(OracleDisagreement(
                    "power",
                    f"DP min_power meets min_slack={min_slack!r} but the "
                    "oracle says the threshold is unreachable",
                ))
            elif dp_meets and oracle_meets:
                if (dp_mp.power < oracle_mp.power
                        and not close(dp_mp.power, oracle_mp.power)):
                    disagreements.append(OracleDisagreement(
                        "power",
                        f"DP min_power total {dp_mp.power!r} undercuts the "
                        f"exhaustive minimum {oracle_mp.power!r} at "
                        f"min_slack={min_slack!r}",
                    ))
                elif exact and not close(dp_mp.power, oracle_mp.power):
                    disagreements.append(OracleDisagreement(
                        "power",
                        f"DP min_power total {dp_mp.power!r} != exhaustive "
                        f"minimum {oracle_mp.power!r} at "
                        f"min_slack={min_slack!r}",
                    ))
            elif exact and not dp_meets and oracle_meets:
                disagreements.append(OracleDisagreement(
                    "power",
                    f"DP min_power falls back below min_slack={min_slack!r} "
                    "but the oracle meets it",
                ))

        # power_capped(cap): probe caps derived from the oracle's own
        # power range so both reachable and borderline caps are covered.
        pool_powers = sorted({
            o.power for o in oracle.outcomes
            if o.power is not None
            and (o.noise_feasible or not options.noise_aware)
        })
        probe_caps = []
        if pool_powers:
            probe_caps = [
                pool_powers[0],
                pool_powers[len(pool_powers) // 2],
                pool_powers[-1],
            ]
        for cap in probe_caps:
            # nudge the cap up an ulp so float-equal powers stay inside
            probe = cap * (1.0 + 1e-12) if cap > 0 else cap
            dp_pc = dp_select(result.power_capped, probe)
            oracle_pc = oracle_select(oracle.power_capped, probe,
                                      options.noise_aware)
            if dp_pc is not None and oracle_pc is None:
                disagreements.append(OracleDisagreement(
                    "power",
                    f"DP power_capped({probe!r}) reports a solution but "
                    "the oracle found none within the cap",
                ))
            elif dp_pc is None and oracle_pc is not None and exact:
                disagreements.append(OracleDisagreement(
                    "power",
                    f"DP power_capped({probe!r}) raises InfeasibleError "
                    f"but the oracle fits the cap with slack "
                    f"{oracle_pc.slack!r}",
                ))
            elif dp_pc is not None and oracle_pc is not None:
                if not at_most(dp_pc.slack, oracle_pc.slack):
                    disagreements.append(OracleDisagreement(
                        "power",
                        f"DP power_capped({probe!r}) slack {dp_pc.slack!r} "
                        f"beats the capped exhaustive optimum "
                        f"{oracle_pc.slack!r}",
                    ))
                elif exact and not close(dp_pc.slack, oracle_pc.slack):
                    disagreements.append(OracleDisagreement(
                        "power",
                        f"DP power_capped({probe!r}) slack {dp_pc.slack!r} "
                        f"!= capped exhaustive optimum {oracle_pc.slack!r}",
                    ))
                if dp_pc.power > probe and not close(dp_pc.power, probe):
                    disagreements.append(OracleDisagreement(
                        "power",
                        f"DP power_capped({probe!r}) returned an outcome "
                        f"claiming power {dp_pc.power!r}, above the cap",
                    ))
    return disagreements
