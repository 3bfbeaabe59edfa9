"""Differential harness: batch executors vs direct single-net engine calls.

For ~50 seeded random trees (the treegen strategies, derandomized so
every run sees the same fleet), the batch subsystem must return
*bit-identical* solutions to calling the engine entry points directly,
under every executor.  Any divergence — a float that rounds differently,
an assignment that reorders, an infeasibility that flips — is a bug in
the batching layer, never an acceptable approximation.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "properties"))

from treegen import TECH, random_trees  # noqa: E402

from repro import CouplingModel, InfeasibleError, segment_tree
from repro.batch import (
    BatchConfig,
    BatchOptimizer,
    ChunkedExecutor,
    MultiprocessExecutor,
    SerialExecutor,
)
from repro.api import dp_result
from repro.core.objective import Objective
from repro.library import default_buffer_library
from repro.units import MM

COUPLING = CouplingModel.estimation_mode(TECH)
LIBRARY = default_buffer_library()
SEGMENT = 0.8 * MM
BUFFOPT = Objective.legacy("buffopt")
DELAY = Objective.legacy("delay")
FLEET_SIZE = 50

_COLLECTED: list = []


@settings(
    max_examples=FLEET_SIZE,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(tree=random_trees(max_internal=4, with_rats=True))
def _collect(tree):
    _COLLECTED.append(tree)


@pytest.fixture(scope="module")
def trees():
    """~50 random trees, identical on every run (derandomized strategy)."""
    if not _COLLECTED:
        _collect()
    assert len(_COLLECTED) >= 40
    return list(_COLLECTED[:FLEET_SIZE])


def _direct_signature(tree, mode):
    """What a caller using the engine directly would get for one net."""
    segmented = segment_tree(tree, SEGMENT)
    try:
        if mode == "buffopt":
            result = dp_result(segmented, LIBRARY, COUPLING)
            outcome = result.select(BUFFOPT)
        else:
            result = dp_result(segmented, LIBRARY, objective=DELAY)
            outcome = result.select(DELAY)
    except InfeasibleError:
        return ("infeasible",)
    return (
        outcome.buffer_count,
        outcome.slack,
        outcome.noise_feasible,
        tuple(sorted((i.node, i.buffer.name) for i in outcome.insertions)),
        result.candidates_generated,
        result.candidates_kept_peak,
    )


def _batch_signature(result):
    if not result.ok:
        return ("infeasible",)
    assert result.assignment is not None
    return (
        result.buffer_count,
        result.slack,
        result.noise_feasible,
        tuple(sorted((n, b.name) for n, b in result.assignment.items())),
        result.candidates_generated,
        result.candidates_kept_peak,
    )


def _run_batch(trees, mode, executor):
    optimizer = BatchOptimizer(
        library=LIBRARY,
        coupling=COUPLING,
        config=BatchConfig(
            objective=Objective.legacy(mode),
            max_segment_length=SEGMENT,
            keep_trees=False,
        ),
        executor=executor,
    )
    return optimizer.optimize(trees)


@pytest.mark.parametrize("mode", ["buffopt", "delay"])
def test_serial_matches_direct(trees, mode):
    report = _run_batch(trees, mode, SerialExecutor())
    assert len(report) == len(trees)
    for tree, result in zip(trees, report.results):
        assert _batch_signature(result) == _direct_signature(tree, mode)


@pytest.mark.parametrize("mode", ["buffopt", "delay"])
def test_multiprocess_matches_direct(trees, mode):
    report = _run_batch(trees, mode, MultiprocessExecutor(workers=2))
    assert len(report) == len(trees)
    for tree, result in zip(trees, report.results):
        assert _batch_signature(result) == _direct_signature(tree, mode)


def test_chunked_matches_serial(trees):
    serial = _run_batch(trees, "buffopt", SerialExecutor())
    chunked = _run_batch(
        trees, "buffopt", ChunkedExecutor(workers=2, chunk_size=7)
    )
    assert chunked.signatures() == serial.signatures()


def test_stats_collection_is_solution_neutral(trees):
    """Turning telemetry on must not move a single bit of the solutions."""
    plain = _run_batch(trees, "buffopt", SerialExecutor())
    optimizer = BatchOptimizer(
        library=LIBRARY,
        coupling=COUPLING,
        config=BatchConfig(
            objective=Objective.legacy("buffopt"),
            max_segment_length=SEGMENT,
            keep_trees=False,
            collect_stats=True,
        ),
        executor=SerialExecutor(),
    )
    instrumented = optimizer.optimize(trees)
    assert instrumented.signatures() == plain.signatures()
    assert any(r.stats is not None for r in instrumented.results)
