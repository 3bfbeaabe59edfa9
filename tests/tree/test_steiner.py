"""Tests for repro.tree.steiner — rectilinear topology generation."""

import math

import pytest

from repro import DriverCell, SinkSite, TreeStructureError, steiner_tree
from repro.tree.steiner import manhattan
from repro.units import FF, MM


def sites(points, margin=0.8):
    return [
        SinkSite(f"s{i}", p, capacitance=10 * FF, noise_margin=margin)
        for i, p in enumerate(points)
    ]


class TestManhattan:
    def test_basic(self):
        assert manhattan((0.0, 0.0), (3.0, 4.0)) == 7.0
        assert manhattan((1.0, 1.0), (1.0, 1.0)) == 0.0


class TestSteinerTree:
    def test_two_pin_length_is_manhattan(self, tech):
        tree = steiner_tree(
            tech, (0.0, 0.0), sites([(2 * MM, 1 * MM)]),
            driver=DriverCell("d", 100.0),
        )
        assert math.isclose(tree.total_wire_length(), 3 * MM)

    def test_is_binary_and_valid(self, tech):
        points = [(1 * MM, 0.0), (2 * MM, 2 * MM), (0.5 * MM, 1 * MM),
                  (3 * MM, 0.5 * MM), (1.5 * MM, 3 * MM)]
        tree = steiner_tree(tech, (0.0, 0.0), sites(points))
        assert tree.is_binary
        assert len(tree.sinks) == 5

    def test_sinks_are_leaves(self, tech):
        points = [(1 * MM, 0.0), (2 * MM, 0.0), (3 * MM, 0.0)]
        tree = steiner_tree(tech, (0.0, 0.0), sites(points))
        assert all(s.is_leaf for s in tree.sinks)

    def test_collinear_chain_routes_through_via_nodes(self, tech):
        """When the MST passes through a sink, the sink stays a leaf and
        a zero-length via carries the continuation."""
        points = [(1 * MM, 0.0), (2 * MM, 0.0)]
        tree = steiner_tree(tech, (0.0, 0.0), sites(points))
        assert math.isclose(tree.total_wire_length(), 2 * MM, rel_tol=1e-12)
        assert all(s.is_leaf for s in tree.sinks)

    def test_wirelength_at_least_spanning_lower_bound(self, tech):
        """Total length >= distance to the farthest sink (sanity) and is
        exactly the rectilinear MST weight of the terminal set."""
        points = [(1 * MM, 1 * MM), (2 * MM, 0.5 * MM), (0.2 * MM, 2 * MM)]
        tree = steiner_tree(tech, (0.0, 0.0), sites(points))
        farthest = max(manhattan((0.0, 0.0), p) for p in points)
        assert tree.total_wire_length() >= farthest - 1e-12

    def test_duplicate_sink_names_rejected(self, tech):
        bad = [
            SinkSite("x", (1 * MM, 0.0), 1 * FF, 0.8),
            SinkSite("x", (2 * MM, 0.0), 1 * FF, 0.8),
        ]
        with pytest.raises(TreeStructureError):
            steiner_tree(tech, (0.0, 0.0), bad)

    def test_reserved_source_name_rejected(self, tech):
        with pytest.raises(TreeStructureError):
            steiner_tree(
                tech, (0.0, 0.0), [SinkSite("so", (1 * MM, 0.0), 1 * FF, 0.8)]
            )

    def test_empty_sinks_rejected(self, tech):
        with pytest.raises(TreeStructureError):
            steiner_tree(tech, (0.0, 0.0), [])

    def test_coincident_terminals_get_zero_wire(self, tech):
        tree = steiner_tree(
            tech, (1 * MM, 1 * MM), sites([(1 * MM, 1 * MM)])
        )
        assert tree.total_wire_length() == 0.0

    def test_rat_and_margin_propagate(self, tech):
        site = SinkSite("s0", (1 * MM, 0.0), capacitance=7 * FF,
                        noise_margin=0.65, required_arrival=42.0)
        tree = steiner_tree(tech, (0.0, 0.0), [site])
        sink = tree.sinks[0].sink
        assert sink.capacitance == 7 * FF
        assert sink.noise_margin == 0.65
        assert sink.required_arrival == 42.0

    def test_corner_nodes_are_feasible(self, tech):
        tree = steiner_tree(
            tech, (0.0, 0.0), sites([(1 * MM, 1 * MM)]), name="corner"
        )
        corners = [n for n in tree.nodes() if n.is_internal]
        assert corners and all(n.feasible for n in corners)

    def test_deterministic(self, tech):
        points = [(1 * MM, 2 * MM), (3 * MM, 0.2 * MM), (2 * MM, 2.5 * MM)]
        t1 = steiner_tree(tech, (0.0, 0.0), sites(points))
        t2 = steiner_tree(tech, (0.0, 0.0), sites(points))
        assert [w.name for w in t1.wires()] == [w.name for w in t2.wires()]
        assert math.isclose(t1.total_wire_length(), t2.total_wire_length())

    def test_sink_as_mst_hub(self, tech):
        """A sink that is the MST hub for several others: the via twin
        must carry all continuations and the tree must stay valid."""
        points = [(1 * MM, 0.0), (2 * MM, 0.0), (1 * MM, 1 * MM),
                  (1 * MM, -1 * MM)]
        tree = steiner_tree(tech, (0.0, 0.0), sites(points))
        assert tree.is_binary
        assert all(s.is_leaf for s in tree.sinks)
        assert len(tree.sinks) == 4
        # hub topology: total length equals the MST weight (4 mm here)
        assert math.isclose(tree.total_wire_length(), 4 * MM, rel_tol=1e-12)

    def test_noise_and_timing_run_on_via_topologies(self, tech, coupling):
        from repro import DriverCell, analyze_noise
        from repro.timing import sink_delays

        points = [(1 * MM, 0.0), (2 * MM, 0.0), (3 * MM, 0.0)]
        tree = steiner_tree(
            tech, (0.0, 0.0), sites(points), driver=DriverCell("d", 200.0)
        )
        delays = sink_delays(tree)
        assert delays["s0"] < delays["s1"] < delays["s2"]
        report = analyze_noise(tree, coupling)
        noise = {e.node: e.noise for e in report.entries}
        assert noise["s0"] <= noise["s1"] <= noise["s2"]

    @pytest.mark.parametrize("n", [1, 2, 8, 20])
    def test_scales_with_sink_count(self, tech, n):
        import numpy as np

        rng = np.random.default_rng(n)
        points = [
            (float(rng.uniform(0, 5 * MM)), float(rng.uniform(0, 5 * MM)))
            for _ in range(n)
        ]
        tree = steiner_tree(tech, (0.0, 0.0), sites(points))
        assert len(tree.sinks) == n
        assert tree.is_binary


_PREORDER_SCRIPT = """
import hashlib
from repro.workloads.generator import generate_population

digest = hashlib.sha256()
for net in generate_population()[:200]:
    for node in net.tree.preorder():
        digest.update(node.name.encode() + b"/")
print(digest.hexdigest())
"""


def test_topology_is_independent_of_hash_seed():
    """Corner names and child order must not follow ``PYTHONHASHSEED``:
    resumed and resharded batches rebuild nets in other interpreters."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2] / "src")
    digests = set()
    for hash_seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        digests.add(subprocess.run(
            [sys.executable, "-c", _PREORDER_SCRIPT], env=env,
            capture_output=True, text=True, check=True,
        ).stdout)
    assert len(digests) == 1
