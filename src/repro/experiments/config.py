"""Shared experiment configuration (the paper's Section V setup).

The paper runs everything in *estimation mode*: a single aggressor with a
0.7 coupling-to-total-capacitance ratio, 0.25 ns rise time, 1.8 V supply
(slope 7.2 V/ns) and a uniform 0.8 V gate noise margin, over the 500
largest-capacitance nets of a microprocessor design, with an 11-buffer
library (5 inverting + 6 non-inverting).

:func:`default_experiment` wires those numbers to our synthetic substrate.
``nets`` can be reduced for quick runs (the benchmark suite defaults to a
smaller population via the ``REPRO_BENCH_NETS`` environment variable; the
CLI exposes ``--nets``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional

from ..library.buffers import BufferLibrary, default_buffer_library
from ..library.cells import CellLibrary, default_cell_library
from ..library.technology import Technology, default_technology
from ..noise.coupling import CouplingModel
from ..units import UM
from ..workloads.generator import (
    GeneratedNet,
    WorkloadConfig,
    generate_population,
)

#: paper's experimental constants
COUPLING_RATIO = 0.7
RISE_TIME = 0.25e-9
VDD = 1.8
NOISE_MARGIN = 0.8
POPULATION = 500


@dataclass
class Experiment:
    """Everything the table/figure builders need, generated once."""

    technology: Technology
    library: BufferLibrary
    cells: CellLibrary
    coupling: CouplingModel
    workload: WorkloadConfig
    max_segment_length: float
    #: DP implementation the table/figure builders run with
    #: (``"reference"`` or ``"lishi"`` — equivalent within float
    #: tolerance).
    engine: str = "reference"
    _nets: Optional[List[GeneratedNet]] = field(default=None, repr=False)

    @property
    def nets(self) -> List[GeneratedNet]:
        """The seeded net population (generated lazily, cached)."""
        if self._nets is None:
            self._nets = generate_population(
                self.workload, self.technology, self.cells
            )
        return self._nets


def default_experiment(
    nets: int = POPULATION,
    seed: int = WorkloadConfig.seed,
    max_segment_length: float = 500 * UM,
    engine: str = "reference",
) -> Experiment:
    """The reproduction's estimation-mode experiment."""
    technology = default_technology().scaled(
        vdd=VDD,
        default_coupling_ratio=COUPLING_RATIO,
        default_aggressor_slew=RISE_TIME,
    )
    return Experiment(
        technology=technology,
        library=default_buffer_library(noise_margin=NOISE_MARGIN),
        cells=default_cell_library(noise_margin=NOISE_MARGIN),
        coupling=CouplingModel.estimation_mode(technology),
        workload=WorkloadConfig(nets=nets, seed=seed, noise_margin=NOISE_MARGIN),
        max_segment_length=max_segment_length,
        engine=engine,
    )


def bench_population_size(default: int = 120) -> int:
    """Population size for the benchmark suite.

    Set ``REPRO_BENCH_NETS=500`` to regenerate the tables at full paper
    scale; the default keeps ``pytest benchmarks/`` under a few minutes.
    """
    value = os.environ.get("REPRO_BENCH_NETS", "")
    if not value:
        return default
    size = int(value)
    if size < 1:
        raise ValueError(f"REPRO_BENCH_NETS must be >= 1, got {size}")
    return size
