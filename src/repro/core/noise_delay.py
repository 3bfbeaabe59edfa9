"""Algorithm 3 / BuffOpt: simultaneous noise and delay optimization
(paper Section IV).

Same DP as Van Ginneken's algorithm, with the boldface modifications of
Figs. 10–11: candidates carry ``(C, q, I, NS, M)``, a buffer is only
inserted when its output noise fits the downstream noise slack, dead
candidates (``NS < 0``) are dropped, and the final driver must itself be
noise-feasible.  Optimality holds for a single-buffer library under the
Theorem 5 assumptions (``Cb <= Ci`` and ``NM(b) >= NM(si)``); for the
11-buffer experimental library the paper measures (and we reproduce) a
<2 % gap to the DelayOpt upper bound.

Entry points:

* :func:`buffopt` — Problem 2: maximize source slack subject to noise;
* :func:`buffopt_min_buffers` — Problem 3: fewest buffers meeting noise
  and timing, slack as tiebreak (the BuffOpt tool configuration used for
  the paper's Tables II–IV).

The raw per-count :class:`DPResult` comes from :func:`repro.api.dp_result`.
"""

from __future__ import annotations

from typing import Optional

from ..library.buffers import BufferLibrary
from ..library.cells import DriverCell
from ..noise.coupling import CouplingModel
from ..tree.topology import RoutingTree
from .dp import DPOptions, run_dp
from .objective import Objective
from .solution import BufferSolution


def buffopt(
    tree: RoutingTree,
    library: BufferLibrary,
    coupling: CouplingModel,
    driver: Optional[DriverCell] = None,
    enforce_polarity: bool = True,
) -> BufferSolution:
    """Problem 2: maximize slack such that all noise constraints hold.

    Raises :class:`~repro.errors.InfeasibleError` when no noise-feasible
    buffering exists for this library/segmentation.
    """
    result = run_dp(
        tree,
        library,
        coupling=coupling,
        options=DPOptions(noise_aware=True, enforce_polarity=enforce_polarity),
        driver=driver,
    )
    return result.solution(
        result.select(Objective(mode="buffopt", selection="max-slack"))
    )


def buffopt_min_buffers(
    tree: RoutingTree,
    library: BufferLibrary,
    coupling: CouplingModel,
    driver: Optional[DriverCell] = None,
    min_slack: float = 0.0,
    max_buffers: Optional[int] = None,
    enforce_polarity: bool = True,
) -> BufferSolution:
    """Problem 3: fewest buffers with noise satisfied and slack >= min_slack.

    This mirrors the shipped BuffOpt tool: "first finding the best solution
    in terms of timing for each possible number of buffers and then
    returning the solution with the fewest buffers such that both noise
    and timing constraints are satisfied."  When no count reaches
    ``min_slack`` (e.g. all RATs are infinite — pure noise repair — or the
    net is timing-infeasible), the max-slack noise-feasible solution is
    returned instead.
    """
    from ..api import dp_result

    objective = Objective.legacy("buffopt", min_slack=min_slack)
    result = dp_result(
        tree,
        library,
        coupling,
        objective=objective,
        driver=driver,
        max_buffers=max_buffers,
        enforce_polarity=enforce_polarity,
    )
    return result.solution(result.select(objective))
