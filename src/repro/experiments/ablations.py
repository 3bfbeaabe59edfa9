"""Ablation studies for the design choices DESIGN.md calls out.

Each study runs over a sample of the workload population and returns a
small table; the CLI target ``buffopt ablations`` prints them all, and
``benchmarks/bench_ablations.py`` times the underlying kernels.

Studies:

* **pruning** — the paper's (C, q)-only pruning vs the 4-field Pareto
  frontier: slack delta, candidates kept, wall time;
* **segmentation** — the Alpert–Devgan uniform-granularity dial: slack
  and DP size per max-segment length;
* **noise-aware sites** — the footnote-3 Theorem-1-seeded segmentation vs
  a fine uniform grid: node counts and buffer counts;
* **wire sizing** — slack gained by the Lillis width menu.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.dp import DPOptions, run_dp
from ..core.noise_multi import insert_buffers_multi_sink
from ..core.noise_sites import noise_aware_segmentation
from ..core.objective import Objective
from ..core.wire_sizing import WireSizingSpec
from ..errors import InfeasibleError
from ..tree.segmenting import segment_tree
from ..units import PS, UM
from .config import Experiment

#: the two Algorithm-3 selections the ablations read off a DP result.
MAX_SLACK = Objective(mode="buffopt", selection="max-slack")
FEWEST_BUFFERS = Objective(mode="buffopt", selection="fewest-buffers")


@dataclass(frozen=True)
class PruningAblation:
    nets: int
    mean_slack_delta: float  # pareto minus timing (>= 0)
    timing_kept_peak: float
    pareto_kept_peak: float
    timing_seconds: float
    pareto_seconds: float


def pruning_ablation(
    experiment: Experiment, sample: int = 20
) -> PruningAblation:
    deltas: List[float] = []
    kept = {"timing": 0.0, "pareto": 0.0}
    seconds = {"timing": 0.0, "pareto": 0.0}
    nets = experiment.nets[:sample]
    for net in nets:
        tree = segment_tree(net.tree, experiment.max_segment_length)
        results = {}
        for rule in ("timing", "pareto"):
            start = time.perf_counter()
            results[rule] = run_dp(
                tree, experiment.library, experiment.coupling,
                DPOptions(noise_aware=True, prune=rule),
            )
            seconds[rule] += time.perf_counter() - start
            kept[rule] += results[rule].candidates_kept_peak
        deltas.append(
            results["pareto"].select(MAX_SLACK).slack
            - results["timing"].select(MAX_SLACK).slack
        )
    count = len(nets)
    return PruningAblation(
        nets=count,
        mean_slack_delta=sum(deltas) / count,
        timing_kept_peak=kept["timing"] / count,
        pareto_kept_peak=kept["pareto"] / count,
        timing_seconds=seconds["timing"],
        pareto_seconds=seconds["pareto"],
    )


@dataclass(frozen=True)
class SegmentationPoint:
    max_segment: float
    mean_slack: float
    mean_nodes: float
    seconds: float


def segmentation_ablation(
    experiment: Experiment,
    granularities: Sequence[float] = (2000 * UM, 1000 * UM, 500 * UM, 250 * UM),
    sample: int = 12,
) -> List[SegmentationPoint]:
    points: List[SegmentationPoint] = []
    nets = experiment.nets[:sample]
    for granularity in granularities:
        slack_total = 0.0
        nodes_total = 0
        start = time.perf_counter()
        for net in nets:
            tree = segment_tree(net.tree, granularity)
            nodes_total += len(tree)
            result = run_dp(
                tree, experiment.library, experiment.coupling,
                DPOptions(noise_aware=True),
            )
            slack_total += result.select(MAX_SLACK).slack
        points.append(
            SegmentationPoint(
                max_segment=granularity,
                mean_slack=slack_total / len(nets),
                mean_nodes=nodes_total / len(nets),
                seconds=time.perf_counter() - start,
            )
        )
    return points


@dataclass(frozen=True)
class NoiseSitesAblation:
    nets: int
    matched_counts: int  # nets where site-based count == continuous count
    mean_site_nodes: float
    mean_uniform_nodes: float


def noise_sites_ablation(
    experiment: Experiment,
    fine_uniform: float = 250 * UM,
    sample: int = 15,
) -> NoiseSitesAblation:
    matched = 0
    site_nodes = 0
    uniform_nodes = 0
    usable = 0
    for net in experiment.nets[:sample]:
        try:
            continuous = insert_buffers_multi_sink(
                net.tree, experiment.library, experiment.coupling
            )
            sited = noise_aware_segmentation(
                net.tree, experiment.library, experiment.coupling
            )
            result = run_dp(
                sited, experiment.library, experiment.coupling,
                DPOptions(noise_aware=True, track_counts=True, max_buffers=8),
            )
            best = result.select(FEWEST_BUFFERS)
        except InfeasibleError:
            continue
        usable += 1
        site_nodes += len(sited)
        uniform_nodes += len(segment_tree(net.tree, fine_uniform))
        if best.buffer_count == continuous.buffer_count:
            matched += 1
    if usable == 0:
        raise InfeasibleError("no usable nets in the ablation sample")
    return NoiseSitesAblation(
        nets=usable,
        matched_counts=matched,
        mean_site_nodes=site_nodes / usable,
        mean_uniform_nodes=uniform_nodes / usable,
    )


@dataclass(frozen=True)
class SizingAblation:
    nets: int
    mean_slack_gain: float  # sized minus plain (>= 0)
    improved: int


def sizing_ablation(
    experiment: Experiment,
    spec: Optional[WireSizingSpec] = None,
    sample: int = 12,
) -> SizingAblation:
    spec = spec or WireSizingSpec(widths=(1.0, 1.5, 2.0))
    gains: List[float] = []
    nets = experiment.nets[:sample]
    for net in nets:
        tree = segment_tree(net.tree, experiment.max_segment_length)
        plain = run_dp(
            tree, experiment.library, experiment.coupling,
            DPOptions(noise_aware=True),
        )
        sized = run_dp(
            tree, experiment.library, experiment.coupling,
            DPOptions(noise_aware=True, sizing=spec),
        )
        gains.append(
            sized.select(MAX_SLACK).slack - plain.select(MAX_SLACK).slack
        )
    return SizingAblation(
        nets=len(nets),
        mean_slack_gain=sum(gains) / len(nets),
        improved=sum(1 for g in gains if g > 1e-15),
    )


def format_ablations(
    pruning: PruningAblation,
    segmentation: List[SegmentationPoint],
    sites: NoiseSitesAblation,
    sizing: SizingAblation,
) -> str:
    lines = [
        "Ablation studies",
        "",
        f"[pruning rule] {pruning.nets} nets: Pareto slack gain "
        f"{pruning.mean_slack_delta / PS:.2f} ps (0 = the paper's (C,q) "
        "rule loses nothing); candidates kept "
        f"{pruning.timing_kept_peak:.0f} vs {pruning.pareto_kept_peak:.0f}; "
        f"time {pruning.timing_seconds:.2f}s vs {pruning.pareto_seconds:.2f}s",
        "",
        "[segmentation granularity]",
        f"{'max seg (um)':>14} {'mean slack (ps)':>16} {'mean nodes':>11} "
        f"{'time (s)':>9}",
    ]
    for point in segmentation:
        lines.append(
            f"{point.max_segment / UM:>14.0f} "
            f"{point.mean_slack / PS:>16.1f} {point.mean_nodes:>11.1f} "
            f"{point.seconds:>9.2f}"
        )
    lines += [
        "",
        f"[noise-aware sites] {sites.nets} nets: continuous-optimal buffer "
        f"count reached on {sites.matched_counts}/{sites.nets}; "
        f"{sites.mean_site_nodes:.1f} nodes vs "
        f"{sites.mean_uniform_nodes:.1f} for the fine uniform grid",
        "",
        f"[wire sizing] {sizing.nets} nets: mean slack gain "
        f"{sizing.mean_slack_gain / PS:.1f} ps; improved on "
        f"{sizing.improved}/{sizing.nets}",
    ]
    return "\n".join(lines)


def run_all_ablations(experiment: Experiment) -> str:
    """Run every study and return the formatted report."""
    return format_ablations(
        pruning_ablation(experiment),
        segmentation_ablation(experiment),
        noise_sites_ablation(experiment),
        sizing_ablation(experiment),
    )
