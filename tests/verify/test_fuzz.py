"""Fuzz driver self-tests: planted bugs must be found, shrunk, replayed.

The acceptance bar for the fuzz subsystem is a closed loop: a
deliberately buggy engine is detected within a bounded seeded campaign,
the counterexample shrinks to a minimal net, the emitted JSON repro
file replays the failure, and the same repro passes against the healthy
engine.  A clean campaign over the real engine must come back green.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.io import net_from_dict, net_to_dict
from repro.verify import (
    FUZZ_MODES,
    FuzzConfig,
    engine_for,
    planted_buggy_engine,
    planted_buggy_lishi_engine,
    planted_buggy_power_engine,
    replay_file,
    run_fuzz,
    shrink_tree,
    seeded_tree,
)


class TestCampaign:
    def test_fuzz_config_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine"):
            FuzzConfig(iterations=5, engine="turbo")

    def test_clean_engine_survives_seeded_campaign(self):
        report = run_fuzz(FuzzConfig(iterations=25, seed=11))
        assert report.ok, report.describe()
        assert report.iterations_run == 25

    def test_planted_bug_is_caught_and_shrunk(self, tmp_path):
        config = FuzzConfig(
            iterations=40, seed=5, out_dir=str(tmp_path),
            max_counterexamples=2,
        )
        report = run_fuzz(config, engine=planted_buggy_engine())
        assert not report.ok
        example = report.counterexamples[0]
        # the planted bug needs >= 2 sinks, so the minimal failing net is
        # source + branch point + two sinks
        assert example.shrunk_nodes < example.original_nodes or (
            example.original_nodes == 4
        )
        assert example.shrunk_nodes >= 4
        assert report.written_files
        for path in report.written_files:
            assert pathlib.Path(path).exists()

    def test_counterexample_json_is_replayable(self, tmp_path):
        config = FuzzConfig(
            iterations=40, seed=5, out_dir=str(tmp_path),
            max_counterexamples=1,
        )
        report = run_fuzz(config, engine=planted_buggy_engine())
        assert report.written_files
        path = report.written_files[0]
        data = json.loads(pathlib.Path(path).read_text())
        assert data["kind"] == "buffopt-fuzz-counterexample"
        # buggy engine: the repro still fails
        failures = replay_file(path, engine=planted_buggy_engine())
        assert failures
        # healthy engine: the repro passes
        assert replay_file(path) == []

    def test_shrunk_net_round_trips_standalone(self, tmp_path):
        # repro files carry explicit wire R/C, so replaying needs no
        # technology object
        config = FuzzConfig(
            iterations=40, seed=5, out_dir=str(tmp_path),
            max_counterexamples=1,
        )
        report = run_fuzz(config, engine=planted_buggy_engine())
        shrunk = report.counterexamples[0].shrunk_net
        net, _ = net_from_dict(shrunk)
        assert net_to_dict(net) == shrunk


class TestLiShiEngineCampaign:
    """The fuzz loop exercised through the lishi engine seam.

    The planted lishi bug over-evicts during the timing prune — every
    surviving candidate is still a genuine candidate, so the claims
    self-certify and only the oracle leg can catch the missing optimum.
    This proves the campaign's oracle leg pulls its weight for the lishi
    engine, not just the reference one: detected, shrunk, replayable,
    and cleanly green on the healthy engines.
    """

    def test_clean_lishi_engine_survives_seeded_campaign(self):
        report = run_fuzz(
            FuzzConfig(iterations=25, seed=11, engine="lishi")
        )
        assert report.ok, report.describe()
        assert report.iterations_run == 25

    def test_planted_lishi_bug_is_caught_and_shrunk(self, tmp_path):
        config = FuzzConfig(
            iterations=40, seed=5, out_dir=str(tmp_path),
            max_counterexamples=2,
        )
        report = run_fuzz(config, engine=planted_buggy_lishi_engine())
        assert not report.ok
        example = report.counterexamples[0]
        assert example.shrunk_nodes <= example.original_nodes
        assert report.written_files
        # the repro replays against the buggy lishi engine and passes
        # against the healthy lishi and reference engines
        path = report.written_files[0]
        assert replay_file(path, engine=planted_buggy_lishi_engine())
        assert replay_file(path, engine=engine_for("lishi")) == []
        assert replay_file(path) == []


class TestPowerCampaign:
    """The fuzz loop in the ``*-power`` modes.

    The planted power bug understates accumulated power while leaving
    timing and noise untouched — it is detectable *only* by the
    certificate's independent power re-derivation and the oracle's
    power selections, and *only* when the campaign runs a power mode.
    """

    def test_power_modes_are_registered(self):
        assert "delay-power" in FUZZ_MODES
        assert "buffopt-power" in FUZZ_MODES
        with pytest.raises(ValueError, match="mode"):
            FuzzConfig(iterations=5, modes=("delay", "warp-power"))

    def test_clean_power_campaign_is_green(self):
        report = run_fuzz(FuzzConfig(
            iterations=15, seed=11,
            modes=("delay-power", "buffopt-power"),
        ))
        assert report.ok, report.describe()
        assert report.iterations_run == 15

    def test_planted_power_bug_is_caught_and_shrunk(self, tmp_path):
        config = FuzzConfig(
            iterations=40, seed=5, out_dir=str(tmp_path),
            max_counterexamples=1, modes=("delay-power", "buffopt-power"),
        )
        report = run_fuzz(config, engine=planted_buggy_power_engine())
        assert not report.ok
        assert report.written_files
        path = report.written_files[0]
        # repro replays against the buggy engine, passes on the real one
        assert replay_file(path, engine=planted_buggy_power_engine())
        assert replay_file(path) == []

    def test_planted_power_bug_is_invisible_without_power(self):
        """The same mutant survives a power-blind campaign — proof the
        power legs add discriminating power, not redundant coverage."""
        report = run_fuzz(
            FuzzConfig(iterations=40, seed=5, modes=("delay", "buffopt")),
            engine=planted_buggy_power_engine(),
        )
        assert report.ok, report.describe()


class TestShrinker:
    def test_shrinks_to_sink_count_predicate(self):
        tree = seeded_tree(0, max_internal=6, with_rats=True)
        assert len(tree.sinks) >= 3
        shrunk = shrink_tree(tree, lambda t: len(t.sinks) >= 2)
        assert len(shrunk.sinks) == 2
        # every surviving internal node is a real branch point or a
        # feasible site kept because splicing it broke the predicate
        assert len(list(shrunk.nodes())) <= len(list(tree.nodes()))

    def test_never_returns_a_passing_tree(self):
        tree = seeded_tree(7, max_internal=5, with_rats=True)
        predicate = lambda t: len(list(t.nodes())) >= 3
        shrunk = shrink_tree(tree, predicate)
        assert predicate(shrunk)

    def test_single_sink_is_preserved(self):
        tree = seeded_tree(3, max_internal=3, with_rats=True)
        shrunk = shrink_tree(tree, lambda t: True)
        assert len(shrunk.sinks) >= 1
        assert shrunk.source is not None


class TestCli:
    def test_fuzz_cli_self_test_with_planted_bug(self, tmp_path, capsys):
        out = tmp_path / "repros"
        code = main([
            "fuzz", "--iters", "40", "--seed", "5", "--plant-bug",
            "--out", str(out), "--max-counterexamples", "1",
        ])
        assert code == 1
        files = sorted(out.glob("*.json"))
        assert files
        stdout = capsys.readouterr().out
        assert "counterexample" in stdout.lower()

        # replay against the buggy engine reproduces...
        assert main([
            "fuzz", "--replay", str(files[0]), "--plant-bug"
        ]) == 1
        # ...and against the real engine it no longer does
        assert main(["fuzz", "--replay", str(files[0])]) == 0

    def test_fuzz_cli_clean_run_is_green(self, capsys):
        code = main(["fuzz", "--iters", "10", "--seed", "11"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_fuzz_cli_lishi_engine_clean_and_planted(self, tmp_path, capsys):
        code = main([
            "fuzz", "--iters", "10", "--seed", "11", "--engine", "lishi",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "OK" in captured.out
        assert "engine lishi" in captured.err  # progress line names it

        out = tmp_path / "repros"
        code = main([
            "fuzz", "--iters", "40", "--seed", "5", "--engine", "lishi",
            "--plant-bug", "--out", str(out), "--max-counterexamples", "1",
        ])
        assert code == 1
        assert sorted(out.glob("*.json"))


@pytest.mark.fuzz
class TestNightlyCampaign:
    """Long seeded campaign, deselected by default (``-m fuzz`` runs it)."""

    def test_long_campaign_finds_nothing(self):
        report = run_fuzz(FuzzConfig(iterations=400, seed=2026))
        assert report.ok, report.describe()

    def test_long_power_campaign_finds_nothing(self):
        report = run_fuzz(FuzzConfig(
            iterations=400, seed=2027,
            modes=("delay-power", "buffopt-power"),
        ))
        assert report.ok, report.describe()
