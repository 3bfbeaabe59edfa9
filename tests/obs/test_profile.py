"""DP phase timing: the ``collect_stats`` timer of the one visit loop.

Both engines time their phases inline into ``EngineStats.phase_seconds``
when ``collect_stats`` is set; the session facade surfaces that record as
``OptimizeResult.phase_seconds`` and the ``buffopt_dp_phase_seconds``
histogram.  Timing never changes the candidate arithmetic.
"""

import pytest

from repro.api import Session, SessionOptions, dp_result
from repro.core.objective import Objective
from repro.core.stats import PHASES, EngineStats

BUFFOPT = Objective.legacy("buffopt")


@pytest.mark.parametrize("engine", ["reference", "lishi"])
@pytest.mark.parametrize("mode", ["delay", "buffopt"])
def test_profiled_run_is_bit_identical(y_tree, library, coupling, engine,
                                       mode):
    plain = dp_result(
        y_tree, library, coupling, objective=Objective.legacy(mode),
        max_buffers=4, engine=engine,
    )
    timed = dp_result(
        y_tree, library, coupling, objective=Objective.legacy(mode),
        max_buffers=4, engine=engine, collect_stats=True,
    )
    assert plain.stats is None
    assert plain.outcomes == timed.outcomes
    assert plain.candidates_generated == timed.candidates_generated
    assert plain.candidates_kept_peak == timed.candidates_kept_peak
    assert timed.stats.engine == engine
    assert set(timed.stats.phase_seconds) == set(PHASES)
    assert all(spent >= 0.0 for spent in timed.stats.phase_seconds.values())
    assert timed.stats.total_seconds() > 0.0


def test_counters_accumulate_across_runs(y_tree, library, coupling):
    runs = [
        dp_result(
            y_tree, library, coupling, objective=BUFFOPT, max_buffers=4,
            collect_stats=True,
        ).stats
        for _ in range(2)
    ]
    total = EngineStats()
    for stats in runs:
        total.merge_with(stats)
    for phase in PHASES:
        assert total.phase_seconds[phase] == pytest.approx(
            runs[0].phase_seconds[phase] + runs[1].phase_seconds[phase]
        )
    assert len(total.nodes) == len(runs[0].nodes) + len(runs[1].nodes)


def test_finish_returns_per_run_deltas_and_feeds_histogram(
        y_tree, library, coupling):
    with Session(
        SessionOptions(objective=BUFFOPT, collect_stats=True),
        library=library, coupling=coupling,
    ) as session:
        first = session.optimize(y_tree)
        second = session.optimize(y_tree)
    # each result carries its own run's record, not a running total
    assert first.phase_seconds == first.result.stats.phase_seconds
    assert second.phase_seconds == second.result.stats.phase_seconds
    assert first.result.stats is not second.result.stats

    histogram = session.metrics.get("buffopt_dp_phase_seconds")
    assert histogram is not None
    for phase in PHASES:
        assert histogram.count(phase=phase) == 2
        assert histogram.sum(phase=phase) == pytest.approx(
            first.phase_seconds[phase] + second.phase_seconds[phase]
        )


def test_describe_reports_runs_and_phases(y_tree, library, coupling):
    with Session(
        SessionOptions(objective=BUFFOPT, collect_stats=True),
        library=library, coupling=coupling,
    ) as session:
        result = session.optimize(y_tree)
    lines = result.describe().splitlines()
    assert lines[0].startswith(f"{y_tree.name} (buffopt): ")
    assert lines[1].startswith("  phases: ")
    for phase in ("merge", "buffering", "wire", "prune"):
        assert f"{phase}: " in lines[1]
