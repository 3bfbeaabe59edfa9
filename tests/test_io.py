"""Tests for repro.io — JSON net descriptions and solution export."""

import json
import math

import pytest

from repro import BufferType, CouplingModel, analyze_noise
from repro.core import BufferSolution
from repro.io import (
    NetFormatError,
    load_net,
    net_from_dict,
    net_to_dict,
    save_net,
    save_solution,
    solution_to_dict,
)
from repro.units import FF, MM, PS


def sample_dict():
    return {
        "name": "demo",
        "technology": {
            "unit_resistance": 7.6e4,
            "unit_capacitance": 1.18e-10,
            "vdd": 1.8,
            "coupling_ratio": 0.7,
            "aggressor_slew": 2.5e-10,
        },
        "driver": {"name": "drv", "resistance": 200.0,
                   "intrinsic_delay": 3e-11},
        "source": {"name": "so", "position": [0.0, 0.0]},
        "sinks": [
            {"name": "s1", "capacitance": 2e-14, "noise_margin": 0.8,
             "required_arrival": 1.5e-9, "position": [5e-3, 0.0]},
            {"name": "s2", "capacitance": 1e-14, "noise_margin": 0.8},
        ],
        "internals": [{"name": "u", "feasible": True}],
        "wires": [
            {"parent": "so", "child": "u", "length": 2e-3},
            {"parent": "u", "child": "s1", "length": 3e-3},
            {"parent": "u", "child": "s2", "length": 1e-3,
             "coupling_ratio": 0.4},
        ],
    }


class TestLoad:
    def test_round_structure(self):
        tree, tech = net_from_dict(sample_dict())
        assert tree.name == "demo"
        assert len(tree.sinks) == 2
        assert tree.driver.resistance == 200.0
        assert tech is not None and tech.vdd == 1.8
        assert math.isclose(tree.total_wire_length(), 6e-3)

    def test_wire_overrides_preserved(self):
        tree, _ = net_from_dict(sample_dict())
        wire = tree.node("s2").parent_wire
        assert wire.coupling_ratio == 0.4

    def test_infinite_rat_default(self):
        tree, _ = net_from_dict(sample_dict())
        assert math.isinf(tree.node("s2").sink.required_arrival)

    def test_missing_keys_reported(self):
        data = sample_dict()
        del data["sinks"]
        with pytest.raises(NetFormatError):
            net_from_dict(data)
        data = sample_dict()
        del data["sinks"][0]["capacitance"]
        with pytest.raises(NetFormatError):
            net_from_dict(data)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(sample_dict()))
        tree, tech = load_net(path)
        assert tree.name == "demo"

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(NetFormatError):
            load_net(path)
        path.write_text("[1, 2]")
        with pytest.raises(NetFormatError):
            load_net(path)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        tree, tech = net_from_dict(sample_dict())
        path = tmp_path / "roundtrip.json"
        save_net(tree, path, tech)
        again, tech2 = load_net(path)
        assert {n.name for n in again.nodes()} == {n.name for n in tree.nodes()}
        assert math.isclose(
            again.total_capacitance(), tree.total_capacitance()
        )
        assert tech2.unit_resistance == tech.unit_resistance
        # analyses agree on both
        coupling = CouplingModel.estimation_mode(tech)
        a = analyze_noise(tree, coupling).peak_noise
        b = analyze_noise(again, coupling).peak_noise
        assert math.isclose(a, b, rel_tol=1e-12)

    def test_roundtrip_without_technology(self, tmp_path):
        tree, tech = net_from_dict(sample_dict())
        path = tmp_path / "plain.json"
        save_net(tree, path)  # wires carry explicit R/C, so tech-free
        again, tech2 = load_net(path)
        assert tech2 is None
        wire = again.node("s1").parent_wire
        original = tree.node("s1").parent_wire
        assert math.isclose(wire.resistance, original.resistance)


class TestSolutionExport:
    def test_solution_dict(self, tmp_path):
        tree, _ = net_from_dict(sample_dict())
        buffer = BufferType("bx", 100.0, 10 * FF, 20 * PS, 0.8)
        solution = BufferSolution(tree, {"u": buffer})
        data = solution_to_dict(solution)
        assert data["net"] == "demo"
        assert data["buffers"][0]["node"] == "u"
        assert data["buffers"][0]["cell"] == "bx"
        path = tmp_path / "sol.json"
        save_solution(solution, path)
        assert json.loads(path.read_text())["buffers"][0]["cell"] == "bx"


class TestCliFix:
    def test_fix_command(self, tmp_path, capsys):
        from repro.cli import main

        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(sample_dict()))
        out_path = tmp_path / "solution.json"
        assert main(["fix", str(net_path), "--out", str(out_path)]) == 0
        captured = capsys.readouterr().out
        assert "0 noise violations" in captured
        assert out_path.exists()

    def test_fix_modes(self, tmp_path, capsys):
        from repro.cli import main

        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(sample_dict()))
        assert main(["fix", str(net_path), "--objective", "delay"]) == 0
        assert main(["fix", str(net_path), "--mode", "noise"]) == 0

    def test_fix_svg_output(self, tmp_path, capsys):
        from repro.cli import main

        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(sample_dict()))
        svg_path = tmp_path / "net.svg"
        assert main(["fix", str(net_path), "--svg", str(svg_path)]) == 0
        assert svg_path.read_text().startswith("<svg")

    def test_sensitivity_command(self, tmp_path, capsys):
        from repro.cli import main

        data = sample_dict()
        del data["wires"][2]["coupling_ratio"]  # pure estimation mode
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(data))
        assert main(["sensitivity", str(net_path)]) == 0
        out = capsys.readouterr().out
        assert "critical coupling ratio" in out

    def test_export_roundtrips_through_fix(self, tmp_path, capsys):
        """export -> load -> fix: the workload interchanges cleanly."""
        from repro.cli import main

        out_dir = tmp_path / "nets"
        assert main(["export", str(out_dir), "--nets", "6", "--seed", "5"]) == 0
        files = sorted(out_dir.glob("*.json"))
        assert len(files) == 6
        assert main(["fix", str(files[0])]) == 0
        assert "0 noise violations" in capsys.readouterr().out

    def test_sensitivity_rejects_overridden_net(self, tmp_path, capsys):
        from repro.cli import main

        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(sample_dict()))  # has an override
        assert main(["sensitivity", str(net_path)]) == 1
        assert "sensitivity unavailable" in capsys.readouterr().err
