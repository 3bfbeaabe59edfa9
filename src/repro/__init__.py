"""repro — reproduction of Alpert, Devgan & Quay,
"Buffer Insertion for Noise and Delay Optimization" (DAC 1998 / TCAD 1999).

The package implements the paper's three buffer-insertion algorithms and
every substrate they need:

* :mod:`repro.library` — technology, buffer, driver/sink cell models;
* :mod:`repro.tree` — binary routing trees, binarization, wire segmenting,
  rectilinear Steiner estimation;
* :mod:`repro.timing` — Elmore delay and slack analysis;
* :mod:`repro.noise` — the Devgan coupled-noise metric and aggressor models;
* :mod:`repro.core` — Theorem 1 closed forms, Algorithm 1 (single-sink
  noise avoidance), Algorithm 2 (multi-sink noise avoidance), Algorithm 3
  (BuffOpt: simultaneous noise+delay), and the DelayOpt baseline;
* :mod:`repro.circuit` — a SPICE-lite linear simulator (MNA + backward
  Euler) and RC moment analysis;
* :mod:`repro.analysis` — the detailed simulation-based noise verifier
  (the paper's "3dnoise" role);
* :mod:`repro.workloads` — the synthetic microprocessor net population;
* :mod:`repro.experiments` — regeneration of the paper's Tables I–IV and
  characterization figures.

The stable programmatic surface is :mod:`repro.api` — a
:class:`~repro.api.Session` facade unifying BuffOpt and DelayOpt behind
one call, with optional tracing/metrics from :mod:`repro.obs`::

    from repro import Objective, Session, SessionOptions
    from repro.experiments import default_experiment

    experiment = default_experiment(nets=10)
    objective = Objective(mode="buffopt", selection="fewest-buffers")
    with Session(SessionOptions(objective=objective),
                 library=experiment.library,
                 coupling=experiment.coupling) as session:
        outcome = session.optimize(experiment.nets[0].tree)
        print(outcome.describe())

Quickstart (low-level single-sink entry point)::

    from repro import (
        default_technology, default_buffer_library, DriverCell,
        two_pin_net, CouplingModel, insert_buffers_single_sink,
    )
    from repro.units import UM, FF

    tech = default_technology()
    net = two_pin_net(tech, 9000 * UM, DriverCell("drv", 250.0),
                      sink_capacitance=20 * FF, noise_margin=0.8)
    coupling = CouplingModel.estimation_mode(tech)
    solution = insert_buffers_single_sink(
        net, default_buffer_library(), coupling)
    print(solution.describe())
"""

from .api import Objective, OptimizeResult, Session, SessionOptions, dp_result
from .core import (
    BufferSolution,
    ContinuousSolution,
    DPOptions,
    DPResult,
    PlacedBuffer,
    RunBudget,
    buffopt,
    buffopt_min_buffers,
    decompose_stages,
    insert_buffers_multi_sink,
    insert_buffers_single_sink,
    max_safe_length,
    optimize_delay,
    optimize_delay_per_count,
    run_dp,
    unloaded_max_length,
)
from .errors import (
    AnalysisError,
    BudgetExceededError,
    InfeasibleError,
    ObservabilityError,
    ReproError,
    SimulationError,
    TechnologyError,
    TimeoutError,
    TreeStructureError,
    WorkerCrashError,
    WorkloadError,
)
from .library import (
    BufferLibrary,
    BufferType,
    CellLibrary,
    DriverCell,
    PowerModel,
    SinkCell,
    Technology,
    default_buffer_library,
    default_cell_library,
    default_power_model,
    default_technology,
)
from .noise import (
    Aggressor,
    CouplingModel,
    NoiseReport,
    analyze_noise,
    has_noise_violation,
    noise_violations,
    sink_noise,
)
from .timing import max_sink_delay, sink_delays, source_slack
from .tree import (
    RoutingTree,
    SinkSite,
    TreeBuilder,
    binarize,
    segment_tree,
    steiner_tree,
    two_pin_net,
)

__version__ = "1.0.0"

__all__ = [
    "Aggressor",
    "AnalysisError",
    "BudgetExceededError",
    "BufferLibrary",
    "BufferSolution",
    "BufferType",
    "CellLibrary",
    "ContinuousSolution",
    "CouplingModel",
    "DPOptions",
    "DPResult",
    "DriverCell",
    "InfeasibleError",
    "NoiseReport",
    "Objective",
    "ObservabilityError",
    "OptimizeResult",
    "PlacedBuffer",
    "PowerModel",
    "ReproError",
    "RoutingTree",
    "RunBudget",
    "Session",
    "SessionOptions",
    "SimulationError",
    "SinkCell",
    "SinkSite",
    "Technology",
    "TechnologyError",
    "TimeoutError",
    "TreeBuilder",
    "TreeStructureError",
    "WorkerCrashError",
    "WorkloadError",
    "analyze_noise",
    "binarize",
    "buffopt",
    "buffopt_min_buffers",
    "decompose_stages",
    "default_buffer_library",
    "default_cell_library",
    "default_power_model",
    "default_technology",
    "dp_result",
    "has_noise_violation",
    "insert_buffers_multi_sink",
    "insert_buffers_single_sink",
    "max_safe_length",
    "max_sink_delay",
    "noise_violations",
    "optimize_delay",
    "optimize_delay_per_count",
    "run_dp",
    "segment_tree",
    "sink_delays",
    "sink_noise",
    "source_slack",
    "steiner_tree",
    "two_pin_net",
    "unloaded_max_length",
    "__version__",
]
