"""PhaseProfiler: bit-identity under profiling, per-run accounting."""

import pytest

from repro.api import dp_result
from repro.core.objective import Objective
from repro.obs import PHASE_METHODS, MetricsRegistry, PhaseProfiler

BUFFOPT = Objective.legacy("buffopt")
DELAY = Objective.legacy("delay")

PHASES = tuple(phase for _, phase in PHASE_METHODS)


@pytest.mark.parametrize("engine", ["reference", "lishi"])
@pytest.mark.parametrize("mode", ["delay", "buffopt"])
def test_profiled_run_is_bit_identical(y_tree, library, coupling, engine,
                                       mode):
    plain = dp_result(
        y_tree, library, coupling, objective=Objective.legacy(mode),
        max_buffers=4, engine=engine,
    )
    profiler = PhaseProfiler()
    traced = dp_result(
        y_tree, library, coupling, objective=Objective.legacy(mode),
        max_buffers=4, engine=engine,
        profile=profiler,
    )
    assert plain.outcomes == traced.outcomes
    assert plain.candidates_generated == traced.candidates_generated
    assert profiler.runs == 1
    assert sum(profiler.calls.values()) > 0
    assert profiler.total_seconds() >= 0.0
    assert set(profiler.phase_seconds) == set(PHASES)


def test_counters_accumulate_across_runs(y_tree, library, coupling):
    profiler = PhaseProfiler()
    dp_result(
        y_tree, library, coupling, objective=BUFFOPT, max_buffers=4,
        profile=profiler,
    )
    first_calls = dict(profiler.calls)
    dp_result(
        y_tree, library, coupling, objective=BUFFOPT, max_buffers=4,
        profile=profiler,
    )
    assert profiler.runs == 2
    for phase in PHASES:
        assert profiler.calls[phase] == 2 * first_calls[phase]


def test_finish_returns_per_run_deltas_and_feeds_histogram(
        y_tree, library, coupling):
    registry = MetricsRegistry()
    profiler = PhaseProfiler(metrics=registry)
    dp_result(
        y_tree, library, coupling, objective=BUFFOPT, max_buffers=4,
        profile=profiler,
    )
    first = profiler.finish()
    assert set(first) == set(PHASES)
    assert sum(first.values()) == pytest.approx(profiler.total_seconds())

    dp_result(
        y_tree, library, coupling, objective=BUFFOPT, max_buffers=4,
        profile=profiler,
    )
    second = profiler.finish()
    for phase in PHASES:
        assert profiler.phase_seconds[phase] == pytest.approx(
            first[phase] + second[phase]
        )

    histogram = registry.get("buffopt_dp_phase_seconds")
    assert histogram is not None
    for phase in PHASES:
        assert histogram.count(phase=phase) == 2
        assert histogram.sum(phase=phase) == pytest.approx(
            first[phase] + second[phase]
        )


def test_install_wraps_only_that_instance(y_tree, library, coupling):
    # the class methods are untouched: a fresh unprofiled run after a
    # profiled one sees zero profiler activity
    profiler = PhaseProfiler()
    dp_result(
        y_tree, library, coupling, objective=BUFFOPT, max_buffers=4,
        profile=profiler,
    )
    calls_after_profiled = dict(profiler.calls)
    dp_result(y_tree, library, coupling, objective=BUFFOPT, max_buffers=4)
    assert profiler.calls == calls_after_profiled


def test_describe_reports_runs_and_phases(y_tree, library, coupling):
    profiler = PhaseProfiler()
    dp_result(
        y_tree, library, coupling, objective=DELAY, max_buffers=4,
        profile=profiler,
    )
    text = profiler.describe()
    assert "profiled 1 run(s)" in text
    for phase in PHASES:
        assert phase in text
