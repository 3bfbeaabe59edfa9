"""Population-level optimization harness.

Runs BuffOpt and DelayOpt(k) over every net of an experiment, collecting
per-net solutions, delays, noise reports and CPU times — the raw material
for Tables II–IV.  Segmentation and the count-tracking DelayOpt DP are
shared across the k values (one DP run yields every DelayOpt(k)), exactly
how the extended algorithms are meant to be used.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..api import dp_result
from ..core.objective import Objective
from ..core.solution import BufferSolution
from ..core.van_ginneken import best_within_count
from ..noise.devgan import noise_violations
from ..timing.elmore import max_sink_delay
from ..tree.segmenting import segment_tree
from ..tree.topology import RoutingTree
from .config import Experiment

#: the paper's two tool configurations: BuffOpt as shipped (Problem 3)
#: and the DelayOpt baseline (max slack, noise ignored).
BUFFOPT = Objective.legacy("buffopt")
DELAYOPT = Objective.legacy("delay")


@dataclass
class NetRecord:
    """Everything measured for one net."""

    name: str
    sink_count: int
    tree: RoutingTree  # segmented tree all optimizers ran on
    unbuffered_delay: float
    unbuffered_violations: int
    buffopt: BufferSolution
    buffopt_seconds: float
    buffopt_violations: int
    buffopt_delay: float
    delayopt: Dict[int, BufferSolution] = field(default_factory=dict)
    delayopt_seconds: float = 0.0
    delayopt_violations: Dict[int, int] = field(default_factory=dict)
    delayopt_delay: Dict[int, float] = field(default_factory=dict)

    @property
    def buffopt_count(self) -> int:
        return self.buffopt.buffer_count


@dataclass
class PopulationRun:
    """Per-net records plus aggregate timings.

    ``delayopt_seconds_per_k`` is populated when the run was made with
    ``separate_delayopt_timing=True`` (the paper's methodology: DelayOpt
    was run once per k); otherwise Table III reports the shared
    count-tracking run's time split evenly.
    """

    records: List[NetRecord]
    buffopt_seconds: float
    delayopt_seconds: float
    ks: Sequence[int]
    delayopt_seconds_per_k: Dict[int, float] = field(default_factory=dict)

    def buffer_histogram(self) -> Dict[int, int]:
        """Nets per BuffOpt buffer count (the Table III left column)."""
        histogram: Dict[int, int] = {}
        for record in self.records:
            count = record.buffopt_count
            histogram[count] = histogram.get(count, 0) + 1
        return dict(sorted(histogram.items()))

    def total_buffopt_buffers(self) -> int:
        return sum(r.buffopt_count for r in self.records)

    def total_delayopt_buffers(self, k: int) -> int:
        return sum(r.delayopt[k].buffer_count for r in self.records)

    def nets_with_violations_before(self) -> int:
        return sum(1 for r in self.records if r.unbuffered_violations > 0)

    def nets_with_violations_after_buffopt(self) -> int:
        return sum(1 for r in self.records if r.buffopt_violations > 0)

    def nets_with_violations_after_delayopt(self, k: int) -> int:
        return sum(1 for r in self.records if r.delayopt_violations[k] > 0)


def run_population(
    experiment: Experiment,
    ks: Sequence[int] = (1, 2, 3, 4),
    max_delayopt_buffers: Optional[int] = None,
    separate_delayopt_timing: bool = False,
) -> PopulationRun:
    """Optimize every net with BuffOpt and DelayOpt(k) for each ``k``.

    ``max_delayopt_buffers`` defaults to ``max(ks)``.  One count-tracking
    DP serves every DelayOpt(k) by default; ``separate_delayopt_timing``
    additionally reruns DelayOpt once per ``k`` (results identical, only
    the per-k CPU numbers of Table III change to the paper's
    one-run-per-k accounting).
    """
    if max_delayopt_buffers is None:
        max_delayopt_buffers = max(ks)
    records: List[NetRecord] = []
    buffopt_total = 0.0
    delayopt_total = 0.0
    per_k_totals: Dict[int, float] = {k: 0.0 for k in ks}

    for net in experiment.nets:
        tree = segment_tree(net.tree, experiment.max_segment_length)
        before = noise_violations(tree, experiment.coupling)
        unbuffered_delay = max_sink_delay(tree)

        start = time.perf_counter()
        solution = _buffopt_fewest(tree, experiment)
        buffopt_seconds = time.perf_counter() - start
        buffopt_total += buffopt_seconds

        record = NetRecord(
            name=net.name,
            sink_count=net.sink_count,
            tree=tree,
            unbuffered_delay=unbuffered_delay,
            unbuffered_violations=len(before),
            buffopt=solution,
            buffopt_seconds=buffopt_seconds,
            buffopt_violations=len(
                noise_violations(tree, experiment.coupling, solution.buffer_map())
            ),
            buffopt_delay=max_sink_delay(tree, solution.buffer_map()),
        )

        start = time.perf_counter()
        delay_result = dp_result(
            tree, experiment.library, objective=DELAYOPT,
            max_buffers=max_delayopt_buffers, engine=experiment.engine,
        )
        for k in ks:
            dsolution = best_within_count(delay_result, k)
            record.delayopt[k] = dsolution
            record.delayopt_violations[k] = len(
                noise_violations(
                    tree, experiment.coupling, dsolution.buffer_map()
                )
            )
            record.delayopt_delay[k] = max_sink_delay(
                tree, dsolution.buffer_map()
            )
        record.delayopt_seconds = time.perf_counter() - start
        delayopt_total += record.delayopt_seconds
        if separate_delayopt_timing:
            for k in ks:
                start = time.perf_counter()
                dp_result(
                    tree, experiment.library, objective=DELAYOPT,
                    max_buffers=k, engine=experiment.engine,
                )
                per_k_totals[k] += time.perf_counter() - start
        records.append(record)

    return PopulationRun(
        records=records,
        buffopt_seconds=buffopt_total,
        delayopt_seconds=delayopt_total,
        ks=tuple(ks),
        delayopt_seconds_per_k=(
            dict(per_k_totals) if separate_delayopt_timing else {}
        ),
    )


#: BuffOpt count-cap ladder for the population runs.  The paper's BuffOpt
#: "never inserted more than four buffers on any net"; capping the Lillis
#: count arrays keeps the DP frontier small.  Nets that genuinely need
#: more climb the ladder (``None`` = uncapped).
BUFFOPT_COUNT_CAPS = (4, 10, None)


def _buffopt_fewest(tree: RoutingTree, experiment: Experiment) -> BufferSolution:
    from ..errors import InfeasibleError

    for cap in BUFFOPT_COUNT_CAPS:
        try:
            result = dp_result(
                tree, experiment.library, experiment.coupling,
                objective=BUFFOPT, max_buffers=cap, engine=experiment.engine,
            )
            return result.solution(result.select(BUFFOPT))
        except InfeasibleError:
            if cap is None:
                raise
    raise AssertionError("unreachable: ladder ends with an uncapped run")


def matched_count_delays(
    run: PopulationRun, experiment: Experiment
) -> List[Dict[str, float]]:
    """Per-net BuffOpt-vs-DelayOpt delays at *matched* buffer counts.

    The Table IV comparison: for each net where BuffOpt inserted ``j > 0``
    buffers, run DelayOpt restricted to the same ``j`` and compare the
    delay reductions.  Returns one dict per such net.
    """
    rows: List[Dict[str, float]] = []
    for record in run.records:
        count = record.buffopt_count
        if count == 0:
            continue
        if count in record.delayopt_delay:
            matched_delay = record.delayopt_delay[count]
        else:
            delay_result = dp_result(
                record.tree, experiment.library, objective=DELAYOPT,
                max_buffers=count, engine=experiment.engine,
            )
            matched = best_within_count(delay_result, count)
            matched_delay = max_sink_delay(record.tree, matched.buffer_map())
        rows.append(
            {
                "name": record.name,
                "buffers": count,
                "unbuffered": record.unbuffered_delay,
                "buffopt": record.buffopt_delay,
                "delayopt": matched_delay,
            }
        )
    return rows
