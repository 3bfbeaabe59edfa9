"""DelayOpt: delay-driven buffer insertion (Van Ginneken [31] + Lillis [18]).

This is the paper's comparison baseline — "the same as Algorithm 3 …
without the boldface modifications".  The public entry points wrap the
shared DP engine with ``noise_aware=False``:

* :func:`optimize_delay` — maximize the source slack ``q(so)``;
* :func:`optimize_delay_per_count` — the DelayOpt(k) family: the best
  solution for *every* buffer count up to ``max_buffers`` from a single
  count-tracking DP run (Lillis's indexed candidate lists).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..library.buffers import BufferLibrary
from ..library.cells import DriverCell
from ..noise.coupling import CouplingModel
from ..tree.topology import RoutingTree
from .dp import DPOptions, DPResult, run_dp
from .objective import Objective
from .solution import BufferSolution


def optimize_delay(
    tree: RoutingTree,
    library: BufferLibrary,
    driver: Optional[DriverCell] = None,
    enforce_polarity: bool = True,
) -> BufferSolution:
    """Maximum-slack buffer insertion, no noise constraints.

    The tree should already be segmented (buffer sites are its feasible
    internal nodes).  Returns the slack-optimal assignment.
    """
    result = run_dp(
        tree,
        library,
        coupling=CouplingModel.silent(),
        options=DPOptions(noise_aware=False, enforce_polarity=enforce_polarity),
        driver=driver,
    )
    return result.solution(
        result.select(Objective(mode="delay", selection="max-slack"))
    )


def optimize_delay_per_count(
    tree: RoutingTree,
    library: BufferLibrary,
    driver: Optional[DriverCell] = None,
    max_buffers: Optional[int] = None,
    enforce_polarity: bool = True,
) -> Dict[int, BufferSolution]:
    """Best solution for each buffer count: ``{k: DelayOpt-best with k}``.

    ``DelayOpt(k)`` in the paper's tables is the max-slack entry among
    counts ``<= k`` — see :func:`best_within_count`.
    """
    from ..api import dp_result

    result = dp_result(
        tree,
        library,
        objective=Objective.legacy("delay"),
        driver=driver,
        max_buffers=max_buffers,
        enforce_polarity=enforce_polarity,
    )
    return {
        outcome.buffer_count: result.solution(outcome)
        for outcome in result.outcomes
    }


def best_within_count(result: DPResult, k: int) -> BufferSolution:
    """DelayOpt(k): the max-slack outcome using at most ``k`` buffers."""
    pool = [o for o in result.outcomes if o.buffer_count <= k]
    if not pool:
        raise ValueError(
            f"no outcomes with <= {k} buffers (have counts "
            f"{[o.buffer_count for o in result.outcomes]})"
        )
    best = max(pool, key=lambda o: (o.slack, -o.buffer_count))
    return result.solution(best)
