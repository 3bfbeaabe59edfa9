"""The paper's algorithms: Theorem 1 closed forms, Algorithms 1–3, DelayOpt."""

from .budget import RunBudget
from .dp import (
    ENGINE_CHOICES,
    ENGINES,
    DPCandidate,
    DPOptions,
    DPOutcome,
    DPResult,
    Insertion,
    run_dp,
)
from .eco import (
    ECO_HITS_COUNTER,
    ECO_MISSES_COUNTER,
    FrontierCache,
    FrontierSnapshot,
    subtree_fingerprints,
)
from .noise_delay import buffopt, buffopt_min_buffers
from .objective import OBJECTIVE_MODES, SELECTION_RULES, Objective
from .noise_multi import (
    NoiseCandidate,
    insert_buffers_multi_sink,
    prune_noise_candidates,
)
from .noise_single import insert_buffers_single_sink, select_noise_buffer
from .noise_sites import noise_aware_segmentation
from .solution import BufferSolution, ContinuousSolution, PlacedBuffer
from .stages import Stage, StageSink, decompose_stages
from .stats import EngineStats, NodeStats
from .van_ginneken import (
    best_within_count,
    optimize_delay,
    optimize_delay_per_count,
)
from .wire_sizing import WireChoice, WireSizingSpec, apply_wire_widths
from .wire_length import (
    SpacingPlan,
    max_coupling_ratio,
    max_safe_length,
    max_safe_length_estimation,
    min_separation,
    uniform_line_spacing,
    uniform_wire_noise,
    unloaded_max_length,
    violating_margin_bound,
)

__all__ = [
    "BufferSolution",
    "ContinuousSolution",
    "DPCandidate",
    "DPOptions",
    "DPOutcome",
    "DPResult",
    "ECO_HITS_COUNTER",
    "ECO_MISSES_COUNTER",
    "EngineStats",
    "FrontierCache",
    "FrontierSnapshot",
    "Insertion",
    "subtree_fingerprints",
    "NodeStats",
    "NoiseCandidate",
    "OBJECTIVE_MODES",
    "Objective",
    "SELECTION_RULES",
    "PlacedBuffer",
    "RunBudget",
    "SpacingPlan",
    "Stage",
    "StageSink",
    "WireChoice",
    "WireSizingSpec",
    "apply_wire_widths",
    "best_within_count",
    "buffopt",
    "buffopt_min_buffers",
    "decompose_stages",
    "insert_buffers_multi_sink",
    "insert_buffers_single_sink",
    "max_coupling_ratio",
    "max_safe_length",
    "max_safe_length_estimation",
    "min_separation",
    "noise_aware_segmentation",
    "optimize_delay",
    "optimize_delay_per_count",
    "prune_noise_candidates",
    "run_dp",
    "ENGINES",
    "ENGINE_CHOICES",
    "select_noise_buffer",
    "uniform_line_spacing",
    "uniform_wire_noise",
    "unloaded_max_length",
    "violating_margin_bound",
]
