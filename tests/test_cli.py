"""CLI surface: uniform options, exit codes, --json, observability flags."""

import json

import pytest

from repro.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from repro.obs import parse_prometheus, read_events


def run_cli(capsys, *argv):
    """Invoke main() in-process; return (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


# -- uniform interface -----------------------------------------------------


def test_version_flag(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["table1"],
    ["fix", "net.json"],
    ["sensitivity", "net.json"],
    ["export", "dir"],
    ["batch"],
    ["fuzz"],
    ["trace", "summarize", "t.jsonl"],
])
def test_every_subcommand_accepts_the_common_trio(argv):
    args = build_parser().parse_args(
        argv + ["--engine", "fast", "--seed", "7", "--json"]
    )
    assert args.engine == "fast"
    assert args.seed == 7
    assert args.json is True


def test_exit_code_constants_are_distinct():
    assert (EXIT_OK, EXIT_FAILURE, EXIT_USAGE) == (0, 1, 2)


# -- exit codes ------------------------------------------------------------


def test_batch_resume_without_checkpoint_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "batch", "--resume")
    assert code == EXIT_USAGE
    assert "--resume requires --checkpoint" in err


def test_trace_summarize_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "trace", "summarize", "no-such.jsonl")
    assert code == EXIT_USAGE
    assert "trace unreadable" in err


@pytest.mark.parametrize("command", ["fuzz", "serve"])
def test_bad_objective_is_usage_error(capsys, command):
    code, _, err = run_cli(capsys, command, "--objective", "nonsense")
    assert code == EXIT_USAGE
    assert err == (
        f"buffopt {command}: bad --objective: objective mode must be one "
        "of ('buffopt', 'delay'), got 'nonsense'\n"
    )


def test_trace_summarize_non_object_line_is_usage_error(capsys, tmp_path):
    trace = tmp_path / "t.jsonl"
    trace.write_text(
        '{"type": "span", "name": "x", "seconds": 0.1}\n[1]\n',
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "trace", "summarize", str(trace))
    assert code == EXIT_USAGE
    assert err.startswith("trace unreadable: ")
    assert "line 2 is corrupt" in err


# -- tables / export / fix -------------------------------------------------


def test_table1_json_report(capsys):
    code, report = run_json(capsys, "table1", "--nets", "6")
    assert code == EXIT_OK
    assert report["kind"] == "buffopt-tables-report"
    assert report["target"] == "table1"
    assert report["nets"] == 6
    assert len(report["sections"]) == 1


def test_export_then_fix_json_round_trip(capsys, tmp_path):
    out_dir = tmp_path / "nets"
    code, export = run_json(
        capsys, "export", str(out_dir), "--nets", "1"
    )
    assert code == EXIT_OK
    assert export["kind"] == "buffopt-export-report"
    assert export["nets"] == 1
    net_files = sorted(out_dir.glob("*.json"))
    assert len(net_files) == 1

    code, fix = run_json(
        capsys, "fix", str(net_files[0]), "--engine", "fast"
    )
    assert code == EXIT_OK
    assert fix["kind"] == "buffopt-fix-report"
    assert fix["mode"] == "buffopt"
    assert fix["engine"] == "fast"
    assert fix["after"]["violations"] == 0
    assert fix["after"]["buffers"] == len(fix["assignment"])


# -- batch observability ---------------------------------------------------


def test_batch_trace_and_metrics(capsys, tmp_path):
    trace_path = tmp_path / "batch.jsonl"
    prom_path = tmp_path / "batch.prom"
    code, report = run_json(
        capsys, "batch", "--nets", "4",
        "--trace", str(trace_path), "--metrics", str(prom_path),
    )
    assert code == EXIT_OK
    assert report["kind"] == "buffopt-batch-report"
    assert report["nets"] == 4
    assert report["ok"] == 4

    records = read_events(trace_path)
    span_names = {r["name"] for r in records if r["type"] == "span"}
    assert {"batch", "batch.map"} <= span_names
    net_events = [
        r for r in records
        if r["type"] == "event" and r["name"] == "batch.net"
    ]
    assert len(net_events) == 4
    assert all(e["attributes"]["status"] == "ok" for e in net_events)

    samples = parse_prometheus(prom_path.read_text())
    ok_key = (("mode", "buffopt"), ("status", "ok"))
    assert samples["buffopt_nets_total"][ok_key] == 4
    # the exported per-phase seconds must account for the whole batch
    # wall time (the 5% acceptance criterion; exact by construction)
    wall = next(iter(samples["buffopt_batch_wall_seconds"].values()))
    phases = sum(samples["buffopt_batch_phase_seconds"].values())
    assert phases == pytest.approx(wall, rel=0.05)


def test_trace_summarize_on_real_trace(capsys, tmp_path):
    trace_path = tmp_path / "batch.jsonl"
    code, _ = run_json(
        capsys, "batch", "--nets", "2", "--trace", str(trace_path)
    )
    assert code == EXIT_OK

    code, out, _ = run_cli(capsys, "trace", "summarize", str(trace_path))
    assert code == EXIT_OK
    assert "batch.map" in out

    code, summary = run_json(
        capsys, "trace", "summarize", str(trace_path)
    )
    assert code == EXIT_OK
    assert summary["path"] == str(trace_path)
    assert summary["spans"]["batch"]["count"] == 1
    assert summary["events"]["batch.net"] == 2


def test_batch_traced_run_is_bit_identical(capsys, tmp_path):
    code, plain = run_json(
        capsys, "batch", "--nets", "3", "--engine", "fast"
    )
    assert code == EXIT_OK
    code, traced = run_json(
        capsys, "batch", "--nets", "3", "--engine", "fast",
        "--trace", str(tmp_path / "t.jsonl"),
        "--metrics", str(tmp_path / "t.prom"),
    )
    assert code == EXIT_OK
    for key in ("total_buffers", "buffer_histogram", "total_candidates"):
        assert plain[key] == traced[key]


# -- fuzz ------------------------------------------------------------------


def test_fuzz_json_report_with_observability(capsys, tmp_path):
    trace_path = tmp_path / "fuzz.jsonl"
    prom_path = tmp_path / "fuzz.prom"
    code, report = run_json(
        capsys, "fuzz", "--iters", "2", "--seed", "3",
        "--trace", str(trace_path), "--metrics", str(prom_path),
    )
    assert code == EXIT_OK
    assert report["kind"] == "buffopt-fuzz-report"
    assert report["ok"] is True
    assert report["iterations_run"] == 2
    assert report["counterexamples"] == []

    records = read_events(trace_path)
    campaign = [r for r in records if r["name"] == "fuzz"]
    assert len(campaign) == 1
    assert campaign[0]["attributes"]["iterations_run"] == 2

    samples = parse_prometheus(prom_path.read_text())
    iters = sum(samples["buffopt_fuzz_iterations_total"].values())
    assert iters == 2


def test_fuzz_planted_bug_fails_with_failure_exit(capsys):
    code, report = run_json(
        capsys, "fuzz", "--iters", "12", "--seed", "5", "--plant-bug",
        "--no-shrink", "--max-counterexamples", "1",
    )
    assert code == EXIT_FAILURE
    assert report["ok"] is False
    assert len(report["counterexamples"]) >= 1


# -- the uniform --objective surface ---------------------------------------


@pytest.fixture
def exported_net(capsys, tmp_path):
    out_dir = tmp_path / "nets"
    code, _ = run_json(capsys, "export", str(out_dir), "--nets", "1")
    assert code == EXIT_OK
    return str(sorted(out_dir.glob("*.json"))[0])


@pytest.mark.parametrize("argv", [
    ["batch", "--nets", "2", "--mode", "delay"],
    ["fleet", "--nets", "2", "--mode", "delay"],
    ["loadtest", "--requests", "1", "--mode", "delay"],
    ["fix", "net.json", "--mode", "buffopt"],
])
def test_removed_mode_spellings_are_usage_errors(argv):
    # only ``fix --mode noise`` survives: the DP modes are objectives.
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_USAGE


def test_fuzz_never_had_a_mode_flag(capsys):
    # fuzz's mode matrix was always internal; --objective is its first
    # and only mode surface, so --mode stays unrecognized there.
    with pytest.raises(SystemExit) as excinfo:
        main(["fuzz", "--iters", "1", "--mode", "delay"])
    assert excinfo.value.code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["batch", "--nets", "2"],
    ["serve", "--journal", "j.jsonl"],
])
def test_bad_objective_spec_is_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv, "--objective", "warp/min-power")
    assert code == EXIT_USAGE
    assert "--objective" in err


def test_fix_json_report_carries_the_objective(capsys, exported_net):
    code, report = run_json(
        capsys, "fix", exported_net, "--objective", "buffopt/min-power",
    )
    assert code == EXIT_OK
    assert report["mode"] == "buffopt"
    assert report["objective"] == "buffopt/min-power"
    assert "power" in report["after"]


def test_fix_mode_noise_conflicts_with_objective(capsys, exported_net):
    code, _, err = run_cli(
        capsys, "fix", exported_net, "--mode", "noise",
        "--objective", "delay",
    )
    assert code == EXIT_USAGE
    assert "mutually exclusive" in err
    # and alone it still works: Algorithm 2 is not a DP objective
    code, report = run_json(capsys, "fix", exported_net, "--mode", "noise")
    assert code == EXIT_OK
    assert report["mode"] == "noise"
    assert report["objective"] is None


def test_fuzz_objective_restricts_the_mode_matrix(capsys):
    code, report = run_json(
        capsys, "fuzz", "--iters", "2", "--seed", "3",
        "--objective", "buffopt/min-power",
    )
    assert code == EXIT_OK
    assert report["modes"] == ["buffopt-power"]


def test_pareto_objective_rejected_where_one_answer_is_needed(capsys):
    code, _, err = run_cli(
        capsys, "batch", "--nets", "2", "--objective", "buffopt/pareto"
    )
    assert code == EXIT_USAGE
    code, _, err = run_cli(
        capsys, "loadtest", "--objective", "buffopt/pareto"
    )
    assert code == EXIT_USAGE
    assert "single outcome" in err
