"""ECO frontier reuse: fingerprints, bit-identity, and the reuse gate.

The contract under test: a reference-engine run handed a
:class:`~repro.core.FrontierCache` produces results *bit-identical* to a
cold run — outcomes, counters, kept-peak included — while restoring
every unchanged subtree from the cache instead of recomputing it.  The
acceptance gate at the bottom pins the headline number: after editing
one subtree of a sizeable net, the re-run reuses at least half of the
node visits.
"""

from __future__ import annotations

import pytest

from repro import TreeBuilder, default_technology
from repro.api import dp_result
from repro.core import (
    DPOptions,
    ECO_HITS_COUNTER,
    ECO_MISSES_COUNTER,
    FrontierCache,
    subtree_fingerprints,
)
from repro.core.eco import context_key
from repro.core.objective import Objective
from repro.obs import MetricsRegistry
from repro.tree.segmenting import segment_tree
from repro.units import FF, PS, UM

DELAY = Objective.legacy("delay")


def balanced_tree(depth: int = 4, name: str = "eco_net"):
    """A full binary tree of the given depth with per-sink variety."""
    from repro import DriverCell

    tech = default_technology()
    builder = TreeBuilder(tech)
    builder.add_source(
        "so", driver=DriverCell("drv", resistance=250.0,
                                intrinsic_delay=30 * PS)
    )
    builder.add_internal("root")
    builder.add_wire("so", "root", length=800 * UM)
    frontier = ["root"]
    serial = 0
    for level in range(depth):
        next_frontier = []
        for parent in frontier:
            for _ in range(2):
                serial += 1
                if level == depth - 1:
                    node = f"s{serial}"
                    builder.add_sink(
                        node,
                        capacitance=(10 + (serial % 7) * 3) * FF,
                        noise_margin=0.8,
                        required_arrival=(1500 + 100 * (serial % 5)) * PS,
                    )
                else:
                    node = f"i{serial}"
                    builder.add_internal(node)
                builder.add_wire(
                    parent, node, length=(400 + 150 * (serial % 4)) * UM
                )
                next_frontier.append(node)
        frontier = next_frontier
    return builder.build(name)


def run_pair(tree, library, coupling, cache=None, **kwargs):
    return dp_result(
        tree, library, coupling, frontier_cache=cache, **kwargs
    )


def result_key(result):
    """Everything a bit-identity claim covers, telemetry included."""
    outcome = result.select(DELAY)
    return (
        outcome.slack,
        outcome.buffer_count,
        outcome.noise_feasible,
        tuple(sorted(
            (ins.node, ins.buffer.name) for ins in outcome.insertions
        )),
        result.candidates_generated,
        result.candidates_kept_peak,
    )


class TestFingerprints:
    def test_identical_trees_identical_fingerprints(self, library, coupling):
        context = context_key(library, coupling, DPOptions())
        a = subtree_fingerprints(balanced_tree(), context)
        b = subtree_fingerprints(balanced_tree(), context)
        assert a == b

    def test_edit_invalidates_only_the_path_to_the_root(
        self, library, coupling
    ):
        context = context_key(library, coupling, DPOptions())
        tree = balanced_tree()
        before = subtree_fingerprints(tree, context)
        edited = next(
            node for node in tree.postorder() if node.sink is not None
        )
        edited.parent_wire.resistance *= 1.25
        after = subtree_fingerprints(tree, context)
        changed = {
            name for name in before if before[name] != after[name]
        }
        # exactly the edited sink and its ancestors re-fingerprint
        assert edited.name in changed
        assert "so" in changed and "root" in changed
        sibling_subtrees = set(before) - changed
        assert len(sibling_subtrees) > len(changed)

    def test_context_changes_invalidate_everything(self, library, coupling):
        tree = balanced_tree()
        base = subtree_fingerprints(
            tree, context_key(library, coupling, DPOptions())
        )
        other = subtree_fingerprints(
            tree,
            context_key(
                library, coupling,
                DPOptions(max_buffers=2, track_counts=True),
            ),
        )
        assert all(base[name] != other[name] for name in base)


class TestBitIdentity:
    def test_populate_run_matches_cold_run(self, library, coupling):
        tree = segment_tree(balanced_tree(), 500 * UM)
        cold = run_pair(tree, library, coupling)
        cache = FrontierCache()
        warm = run_pair(tree, library, coupling, cache=cache)
        assert result_key(warm) == result_key(cold)
        assert cache.misses == len(cache)
        assert cache.hits == 0

    def test_full_rerun_hits_and_stays_identical(self, library, coupling):
        tree = segment_tree(balanced_tree(), 500 * UM)
        cold = run_pair(tree, library, coupling)
        cache = FrontierCache()
        run_pair(tree, library, coupling, cache=cache)
        rerun = run_pair(tree, library, coupling, cache=cache)
        assert result_key(rerun) == result_key(cold)
        assert cache.hits >= 1

    def test_post_edit_rerun_is_bit_identical_to_cold(
        self, library, coupling
    ):
        tree = segment_tree(balanced_tree(), 500 * UM)
        cache = FrontierCache()
        run_pair(tree, library, coupling, cache=cache)
        # the ECO: resize one mid-tree wire in place
        victim = next(
            node for node in tree.postorder()
            if node.parent_wire is not None and not node.is_source
        )
        victim.parent_wire.resistance *= 1.07
        victim.parent_wire.capacitance *= 1.07
        cold = run_pair(tree, library, coupling)
        warm = run_pair(tree, library, coupling, cache=cache)
        assert result_key(warm) == result_key(cold)

    def test_delay_mode_also_identical(self, library):
        tree = segment_tree(balanced_tree(), 500 * UM)
        cold = dp_result(tree, library, None, objective=DELAY)
        cache = FrontierCache()
        warm = dp_result(
            tree, library, None, objective=DELAY, frontier_cache=cache
        )
        assert result_key(warm) == result_key(cold)


class TestValidation:
    def test_requires_reference_engine(self, library, coupling, y_tree):
        with pytest.raises(ValueError, match="reference"):
            dp_result(
                y_tree, library, coupling,
                engine="lishi", frontier_cache=FrontierCache(),
            )

    def test_rejects_collect_stats(self, library, coupling, y_tree):
        with pytest.raises(ValueError, match="collect_stats"):
            dp_result(
                y_tree, library, coupling,
                collect_stats=True, frontier_cache=FrontierCache(),
            )

    def test_rejects_non_cache_objects(self, library, coupling, y_tree):
        with pytest.raises(ValueError, match="lookup"):
            dp_result(
                y_tree, library, coupling, frontier_cache=object(),
            )


class TestMetricsAndGate:
    def test_hit_miss_counters_reach_the_registry(self, library, coupling):
        tree = segment_tree(balanced_tree(depth=3), 500 * UM)
        registry = MetricsRegistry()
        cache = FrontierCache().bind_metrics(registry)
        run_pair(tree, library, coupling, cache=cache)
        run_pair(tree, library, coupling, cache=cache)
        assert registry.counter(
            ECO_MISSES_COUNTER, "eco misses"
        ).value() == cache.misses
        assert registry.counter(
            ECO_HITS_COUNTER, "eco hits"
        ).value() == cache.hits
        assert cache.hits >= 1

    def test_single_subtree_edit_reuses_at_least_half(
        self, library, coupling
    ):
        """The acceptance gate: ECO after a 1-subtree edit reuses >= 50%
        of frontier-node visits, with exact (1e-9-tight, here exact)
        semantic equivalence to the cold run."""
        tree = segment_tree(balanced_tree(depth=5), 500 * UM)
        cache = FrontierCache()
        run_pair(tree, library, coupling, cache=cache)
        # edit one leaf-adjacent wire: the canonical small ECO
        sink = next(
            node for node in tree.postorder() if node.sink is not None
        )
        sink.parent_wire.resistance *= 1.11
        reused_before = cache.reused_nodes
        computed_before = cache.computed_nodes
        cold = run_pair(tree, library, coupling)
        warm = run_pair(tree, library, coupling, cache=cache)
        assert result_key(warm) == result_key(cold)
        reused = cache.reused_nodes - reused_before
        computed = cache.computed_nodes - computed_before
        assert reused + computed == sum(1 for _ in tree.postorder())
        assert reused / (reused + computed) >= 0.5, (
            f"ECO reused only {reused}/{reused + computed} node visits"
        )
