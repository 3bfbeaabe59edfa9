"""Worker determinism: explicit spec seeds, no inherited RNG state.

Spec-based generation happens inside pool workers.  Because every
:class:`~repro.workloads.NetSpec` carries its own seed, the produced
nets — and therefore the solutions — cannot depend on which worker ran
a spec, in what order, or what ran before it.  Repeat runs must be
equal, across executors and across processes.
"""

from __future__ import annotations

import pytest

from repro.batch import (
    BatchConfig,
    BatchOptimizer,
    ChunkedExecutor,
    MultiprocessExecutor,
    SerialExecutor,
)
from repro.core.objective import Objective
from repro.workloads import (
    WorkloadConfig,
    generate_net_from_spec,
    population_specs,
)

BUFFOPT = Objective.legacy("buffopt")

WORKLOAD = WorkloadConfig(nets=16, seed=20260805)
CONFIG = BatchConfig(objective=BUFFOPT, max_buffers=4, keep_trees=False)


def _optimizer(executor):
    return BatchOptimizer(
        config=CONFIG, executor=executor, workload=WORKLOAD
    )


@pytest.fixture(scope="module")
def specs():
    return population_specs(WORKLOAD)


@pytest.fixture(scope="module")
def serial_signatures(specs):
    return _optimizer(SerialExecutor()).optimize(specs).signatures()


def test_specs_are_stable(specs):
    again = population_specs(WORKLOAD)
    assert specs == again
    assert len({spec.seed for spec in specs}) == len(specs)


def test_spec_generation_is_order_independent(specs):
    """Materializing a spec alone equals materializing it mid-population."""
    alone = generate_net_from_spec(specs[7], WORKLOAD)
    in_order = [generate_net_from_spec(s, WORKLOAD) for s in specs][7]
    assert alone.tree.name == in_order.tree.name
    assert alone.span == in_order.span
    lengths = lambda net: [
        (w.parent.name, w.child.name, w.length) for w in net.tree.wires()
    ]
    assert lengths(alone) == lengths(in_order)


def test_repeat_runs_equal_serial(serial_signatures, specs):
    again = _optimizer(SerialExecutor()).optimize(specs).signatures()
    assert again == serial_signatures


def test_repeat_runs_equal_multiprocess(serial_signatures, specs):
    first = _optimizer(MultiprocessExecutor(workers=2)).optimize(specs)
    second = _optimizer(MultiprocessExecutor(workers=3)).optimize(specs)
    assert first.signatures() == serial_signatures
    assert second.signatures() == serial_signatures


def test_repeat_runs_equal_chunked(serial_signatures, specs):
    # Different chunkings shuffle worker assignment; results must not move.
    small = _optimizer(ChunkedExecutor(workers=2, chunk_size=1)).optimize(specs)
    large = _optimizer(ChunkedExecutor(workers=2, chunk_size=8)).optimize(specs)
    assert small.signatures() == serial_signatures
    assert large.signatures() == serial_signatures


def test_worker_generation_matches_parent_generation(serial_signatures, specs):
    """Generating the trees in the parent and shipping them equals
    generating them inside the workers from seeds."""
    nets = [generate_net_from_spec(s, WORKLOAD) for s in specs]
    report = _optimizer(MultiprocessExecutor(workers=2)).optimize(nets)
    assert report.signatures() == serial_signatures
