"""The repro.api facade: Session, dp_result, and SessionOptions."""

import pytest

import repro
from repro.api import (
    Objective,
    OptimizeResult,
    Session,
    SessionOptions,
    dp_result,
)
from repro.obs import MetricsRegistry, Tracer, parse_prometheus, read_events

BUFFOPT = Objective.legacy("buffopt")
DELAY = Objective.legacy("delay")


def test_facade_is_reexported_from_package_root():
    assert repro.Session is Session
    assert repro.SessionOptions is SessionOptions
    assert repro.OptimizeResult is OptimizeResult
    assert repro.dp_result is dp_result


# -- dp_result -------------------------------------------------------------


def test_dp_result_rejects_unknown_mode(y_tree, library, coupling):
    with pytest.raises(ValueError, match="objective mode"):
        dp_result(
            y_tree, library, coupling, objective=Objective(mode="noise")
        )


def test_dp_result_buffopt_requires_coupling(y_tree, library):
    with pytest.raises(ValueError, match="requires a coupling model"):
        dp_result(y_tree, library, objective=BUFFOPT)


def test_dp_result_delay_mode_ignores_coupling(y_tree, library, coupling):
    with_coupling = dp_result(y_tree, library, coupling, objective=DELAY)
    without = dp_result(y_tree, library, objective=DELAY)
    assert with_coupling.outcomes == without.outcomes


# -- SessionOptions validation ---------------------------------------------


def test_session_options_validation():
    with pytest.raises(ValueError, match="unknown engine"):
        SessionOptions(engine="turbo")
    with pytest.raises(ValueError, match="unknown prune rule"):
        SessionOptions(prune="aggressive")
    with pytest.raises(ValueError, match="max_segment_length"):
        SessionOptions(max_segment_length=0.0)
    # None disables segmentation and is valid
    SessionOptions(max_segment_length=None)


# -- Session ---------------------------------------------------------------


def test_session_optimize_buffopt(y_tree, library, coupling, tech):
    with Session(
        SessionOptions(objective=BUFFOPT, max_buffers=8),
        library=library, coupling=coupling, technology=tech,
    ) as session:
        outcome = session.optimize(y_tree)
    assert outcome.mode == "buffopt"
    assert outcome.noise_feasible
    assert outcome.buffer_count >= 0
    assert outcome.seconds > 0.0
    solution = outcome.solution()
    assert solution.buffer_count == outcome.buffer_count
    assert "buffer(s)" in outcome.describe()


def test_session_optimize_delay_matches_raw_dp(y_tree, library, tech):
    options = SessionOptions(
        objective=DELAY, engine="fast", max_segment_length=None
    )
    with Session(options, library=library, technology=tech) as session:
        outcome = session.optimize(y_tree)
    raw = dp_result(y_tree, library, objective=DELAY, engine="fast")
    assert outcome.result.outcomes == raw.outcomes
    assert outcome.tree is y_tree  # segmentation disabled: same tree
    assert outcome.slack == raw.select(DELAY).slack


def test_session_meters_optimize_calls(y_tree, library, coupling):
    with Session(
        SessionOptions(objective=BUFFOPT), library=library, coupling=coupling
    ) as session:
        session.optimize(y_tree)
        session.optimize(y_tree)
        nets = session.metrics.get("buffopt_session_nets_total")
        assert nets.value(
            mode="buffopt", engine="reference", status="ok"
        ) == 2
        seconds = session.metrics.get("buffopt_session_optimize_seconds")
        assert seconds.count(mode="buffopt", engine="reference") == 2


def test_session_profile_phases(y_tree, library, coupling):
    with Session(
        SessionOptions(objective=BUFFOPT, collect_stats=True),
        library=library, coupling=coupling,
    ) as session:
        profiled = session.optimize(y_tree)
        session.optimize(y_tree)
        histogram = session.metrics.get("buffopt_dp_phase_seconds")
    assert profiled.phase_seconds == profiled.result.stats.phase_seconds
    assert set(profiled.phase_seconds) == {
        "merge", "buffering", "wire", "prune", "finalize"
    }
    # one observation per phase per optimize call
    for phase in profiled.phase_seconds:
        assert histogram.count(phase=phase) == 2
    # phase timing never changes the arithmetic
    with Session(
        SessionOptions(objective=BUFFOPT), library=library, coupling=coupling
    ) as session:
        plain = session.optimize(y_tree)
        assert session.metrics.get("buffopt_dp_phase_seconds") is None
    assert plain.phase_seconds is None
    assert plain.result.outcomes == profiled.result.outcomes


def test_session_writes_trace_and_metrics_files(
        tmp_path, y_tree, library, coupling):
    trace = tmp_path / "session.jsonl"
    prom = tmp_path / "session.prom"
    options = SessionOptions(
        objective=BUFFOPT, trace_path=str(trace), metrics_path=str(prom)
    )
    with Session(options, library=library, coupling=coupling) as session:
        session.optimize(y_tree)

    spans = [r for r in read_events(trace) if r["type"] == "span"]
    assert [s["name"] for s in spans] == ["session.optimize"]
    assert spans[0]["attributes"]["net"] == y_tree.name
    assert spans[0]["duration"] > 0.0

    samples = parse_prometheus(prom.read_text())
    key = (("engine", "reference"), ("mode", "buffopt"), ("status", "ok"))
    assert samples["buffopt_session_nets_total"][key] == 1


def test_session_external_tracer_not_closed(y_tree, library, coupling):
    tracer = Tracer()
    metrics = MetricsRegistry()
    with Session(
        SessionOptions(objective=DELAY),
        library=library, coupling=coupling,
        tracer=tracer, metrics=metrics,
    ) as session:
        assert session.metrics is metrics
        session.optimize(y_tree)
    # the session must not close instrumentation it does not own
    with tracer.span("still-usable"):
        pass
    tracer.close()
    assert [s.name for s in tracer.spans] == [
        "session.optimize", "still-usable"
    ]


def test_session_traced_run_is_bit_identical(
        tmp_path, y_tree, library, coupling):
    options = dict(objective=BUFFOPT, max_buffers=6)
    with Session(
        SessionOptions(**options), library=library, coupling=coupling
    ) as session:
        untraced = session.optimize(y_tree)
    with Session(
        SessionOptions(
            **options,
            trace_path=str(tmp_path / "t.jsonl"),
            collect_stats=True,
        ),
        library=library, coupling=coupling,
    ) as session:
        traced = session.optimize(y_tree)
    assert untraced.result.outcomes == traced.result.outcomes
    assert untraced.buffer_count == traced.buffer_count
    assert (
        untraced.result.candidates_generated
        == traced.result.candidates_generated
    )
