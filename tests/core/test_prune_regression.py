"""Regression: the sort-free `_prune_timing` equals the old sorted one.

`_prune_timing` used to `sorted()` every candidate list before scanning;
it now skips the sort whenever the list is already ``(load, -slack)``
ordered (the common case — merge and wire passes preserve load order)
and only falls back to sorting when the buffering pass threw the list
out of order.  These tests pin the new implementation to the *old* one,
byte for byte, on frontiers harvested from real engine runs over seeded
nets — not synthetic lists, so every shape the engine actually produces
is covered.

The power-on pair gets the same treatment.  Both engines used to prune
the (load, slack, power) frontier by scanning every kept candidate and
to pick buffering donors with one sort per buffer type; they now sweep
a (power, slack) staircase (``_power_staircase``) and walk one per-group
power order (``_power_donors``).  The old implementations live on below
as oracles, checked object for object on frontiers harvested from
power-on runs of both engines and on synthetic tie-heavy lists.
"""

import math
import random
from types import SimpleNamespace

import pytest

from repro import (
    CouplingModel,
    DPOptions,
    default_buffer_library,
    default_technology,
    run_dp,
)
from repro.core import dp as dp_module
from repro.core import lishi_engine as lishi_module
from repro.core.dp import (
    DPCandidate,
    _Engine,
    _power_donors,
    _power_staircase,
    _presorted_timing_frontier,
)
from repro.core.lishi_engine import LiShiEngine
from repro.library.power import default_power_model
from repro.verify.treegen import seeded_tree

LIBRARY = default_buffer_library()
COUPLING = CouplingModel.estimation_mode(default_technology())
POWER = default_power_model()


def old_prune_timing(candidates):
    """The pre-optimization implementation: always sort, then scan."""
    ordered = sorted(candidates, key=lambda c: (c.load, -c.slack))
    kept = []
    best_slack = -math.inf
    for cand in ordered:
        if cand.slack > best_slack:
            kept.append(cand)
            best_slack = cand.slack
    return kept


class _HarvestingEngine(_Engine):
    """Records every candidate list the prune pass sees, pre-prune."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.harvested = []

    def _prune(self, groups):
        for candidates in groups.values():
            self.harvested.append(list(candidates))
        return super()._prune(groups)


def harvest(seed, noise_aware):
    tree = seeded_tree(seed, with_rats=True)
    options = DPOptions(noise_aware=noise_aware, track_counts=True)
    engine = _HarvestingEngine(
        tree, LIBRARY, COUPLING, options, tree.driver
    )
    engine.run()
    return engine.harvested


class TestPruneRegression:
    def test_identical_to_old_on_harvested_frontiers(self):
        lists = 0
        for seed in range(12):
            for noise_aware in (False, True):
                for candidates in harvest(seed, noise_aware):
                    new = _Engine._prune_timing(list(candidates))
                    old = old_prune_timing(list(candidates))
                    # Same candidate *objects* in the same order — not
                    # merely equal values.
                    assert [id(c) for c in new] == [id(c) for c in old]
                    lists += 1
        assert lists > 200  # the harvest actually exercised the engine

    def test_identical_on_shuffled_frontiers(self):
        """Out-of-order lists must take the sort fallback and still agree."""
        rng = random.Random(7)
        checked = 0
        for seed in range(6):
            for candidates in harvest(seed, noise_aware=False):
                shuffled = list(candidates)
                rng.shuffle(shuffled)
                new = _Engine._prune_timing(list(shuffled))
                old = old_prune_timing(list(shuffled))
                assert [id(c) for c in new] == [id(c) for c in old]
                checked += 1
        assert checked > 50

    def test_presorted_helper_bails_on_disorder(self):
        def cand(load, slack):
            return DPCandidate(load, slack, 0.0, 1.0, 0, None)

        ordered = [cand(1.0, 0.1), cand(2.0, 0.5), cand(3.0, 0.2)]
        assert _presorted_timing_frontier(ordered) == old_prune_timing(ordered)
        # load decreases -> not sorted -> must refuse, not mis-prune.
        assert _presorted_timing_frontier(
            [cand(2.0, 0.5), cand(1.0, 0.1)]
        ) is None
        # equal loads with *rising* slack violate (load, -slack) order.
        assert _presorted_timing_frontier(
            [cand(1.0, 0.1), cand(1.0, 0.5)]
        ) is None
        # equal loads with falling slack are in order; dominated one goes.
        kept = _presorted_timing_frontier([cand(1.0, 0.5), cand(1.0, 0.1)])
        assert kept is not None and len(kept) == 1

    def test_prune_telemetry_counts_both_paths(self):
        tree = seeded_tree(3, with_rats=True)
        result = run_dp(
            tree, LIBRARY, COUPLING,
            DPOptions(noise_aware=True, track_counts=True,
                      collect_stats=True),
        )
        stats = result.stats
        assert stats is not None
        assert stats.engine == "reference"
        # Buffered candidates are appended out of load order at nearly
        # every internal node, so both paths must actually fire.
        assert stats.prune_presorted > 0
        assert stats.prune_sorts > 0
        assert "timing prunes" in stats.describe()

    def test_pareto_runs_count_no_timing_prunes(self):
        tree = seeded_tree(3, with_rats=True)
        result = run_dp(
            tree, LIBRARY, COUPLING,
            DPOptions(prune="pareto", collect_stats=True),
        )
        assert result.stats.prune_presorted == 0
        assert result.stats.prune_sorts == 0


# -- power-on oracles: the pre-staircase implementations ----------------------


def old_power_timing_frontier(candidates):
    """The old reference prune: scan every kept candidate, O(n*k)."""
    ordered = sorted(candidates, key=lambda c: (c.load, -c.slack, c.power))
    kept = []
    for cand in ordered:
        dominated = any(
            other.slack >= cand.slack and other.power <= cand.power
            for other in kept
        )
        if not dominated:
            kept.append(cand)
    return kept


def old_lishi_power_timing(candidates, r, dns, noise_aware):
    """The old lishi prune under the offset frame: (kept, dead)."""
    rows = []
    dead = 0
    for cand in candidates:
        if noise_aware and (cand[3] - r * cand[2] - dns) < 0.0:
            dead += 1
            continue
        rows.append((cand[0], cand[1] - r * cand[0], cand[6], cand))
    rows.sort(key=lambda row: (row[0], -row[1], row[2]))
    kept_rows = []
    kept = []
    for row in rows:
        for other in kept_rows:
            if other[1] >= row[1] and other[2] <= row[2]:
                break
        else:
            kept_rows.append(row)
            kept.append(row[3])
    return kept, dead


def old_power_donors(powers, slacks, loads, limits, resistance):
    """The old donor pick: one sort by (power, -drive slack) per buffer."""
    entries = []
    for index in range(len(powers)):
        if limits is not None and resistance > limits[index]:
            continue
        entries.append(
            (slacks[index] - resistance * loads[index], powers[index], index)
        )
    entries.sort(key=lambda entry: (entry[1], -entry[0]))
    donors = []
    best_seen = -math.inf
    for drive_slack, _, index in entries:
        if drive_slack > best_seen:
            donors.append((drive_slack, index))
            best_seen = drive_slack
    return donors


def power_options(noise_aware):
    return DPOptions(noise_aware=noise_aware, track_counts=True, power=POWER)


class _LiShiHarvester(LiShiEngine):
    """Records every group the prune pass sees, with its offset frame."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.harvested = []

    def _prune(self, frontier):
        for candidates in frontier.groups.values():
            self.harvested.append(
                (list(candidates), frontier.r, frontier.dns)
            )
        return super()._prune(frontier)


#: seeded trees with up to 8 internal nodes: delay-mode power frontiers
#: reach well over a thousand candidates, so the staircase sees long runs.
POWER_SEEDS = range(24)
POWER_INTERNAL = 8


def power_trees():
    for seed in POWER_SEEDS:
        yield seeded_tree(seed, max_internal=POWER_INTERNAL, with_rats=True)


class TestPowerPruneRegression:
    @pytest.mark.parametrize("noise_aware", [False, True])
    def test_reference_identical_to_old_scan(self, noise_aware):
        lists = biggest = 0
        for tree in power_trees():
            engine = _HarvestingEngine(
                tree, LIBRARY, COUPLING, power_options(noise_aware),
                tree.driver,
            )
            engine.run()
            for candidates in engine.harvested:
                new = _Engine._power_timing_frontier(list(candidates))
                old = old_power_timing_frontier(list(candidates))
                assert [id(c) for c in new] == [id(c) for c in old]
                lists += 1
                biggest = max(biggest, len(candidates))
        assert lists > 200
        # Noise-aware frontiers collapse under Step 5's dead-drop; the
        # delay-mode ones grow large enough for the staircase to matter.
        assert biggest > (50 if noise_aware else 1000)

    @pytest.mark.parametrize("noise_aware", [False, True])
    def test_lishi_identical_to_old_scan(self, noise_aware):
        lists = 0
        for tree in power_trees():
            engine = _LiShiHarvester(
                tree, LIBRARY, COUPLING, power_options(noise_aware),
                tree.driver,
            )
            engine.run()
            for candidates, r, dns in engine.harvested:
                frame = SimpleNamespace(r=r, dns=dns)
                dead_before = engine.dead
                new = engine._prune_power_timing(list(candidates), frame)
                old, dead = old_lishi_power_timing(
                    list(candidates), r, dns, noise_aware
                )
                assert [id(c) for c in new] == [id(c) for c in old]
                assert engine.dead - dead_before == dead
                lists += 1
        assert lists > 200

    @pytest.mark.parametrize("engine", ["reference", "lishi"])
    @pytest.mark.parametrize("noise_aware", [False, True])
    def test_donors_identical_to_old_sort(
        self, monkeypatch, engine, noise_aware
    ):
        """Every donor walk of a real run equals the old per-buffer sort."""
        calls = []

        def recording(by_power, powers, slacks, loads, limits, resistance):
            donors = _power_donors(
                by_power, powers, slacks, loads, limits, resistance
            )
            calls.append((powers, slacks, loads, limits, resistance, donors))
            return donors

        module = dp_module if engine == "reference" else lishi_module
        monkeypatch.setattr(module, "_power_donors", recording)
        options = DPOptions(
            noise_aware=noise_aware, track_counts=True, power=POWER,
            engine=engine,
        )
        for tree in power_trees():
            run_dp(tree, LIBRARY, COUPLING, options)
        multi = 0
        for powers, slacks, loads, limits, resistance, donors in calls:
            assert donors == old_power_donors(
                powers, slacks, loads, limits, resistance
            )
            multi += len(donors) > 1
        assert len(calls) > 500
        assert multi > 100  # the walk keeps several donors, not one

    def test_tie_heavy_frontiers(self):
        """Equal power, slack and load, and exact duplicates.

        Values come from tiny sets (signed zeros included) so almost
        every comparison ties; duplicates are distinct objects with
        equal fields, which pins "first-seen wins": the old scan keeps
        the first of them in sorted order, and so must the staircase.
        """
        rng = random.Random(23)
        values = (-0.0, 0.0, 1.0, 2.0)
        for trial in range(400):
            pool = [
                DPCandidate(
                    load=rng.choice(values),
                    slack=rng.choice(values),
                    current=0.0,
                    noise_slack=1.0,
                    polarity=0,
                    chain=None,
                    power=rng.choice(values),
                )
                for _ in range(rng.randint(1, 40))
            ]
            # Exact duplicates: the same fields, new objects.
            pool += [
                DPCandidate(c.load, c.slack, c.current, c.noise_slack,
                            c.polarity, c.chain, power=c.power)
                for c in rng.sample(pool, len(pool) // 2)
            ]
            rng.shuffle(pool)
            new = _Engine._power_timing_frontier(list(pool))
            old = old_power_timing_frontier(list(pool))
            assert [id(c) for c in new] == [id(c) for c in old]

            tuples = [
                (c.load, c.slack, 0.0, 1.0, None, None, c.power)
                for c in pool
            ]
            kept, _ = old_lishi_power_timing(tuples, 0.0, 0.0, False)
            rows = [(t[0], t[1], t[6], t) for t in tuples]
            assert [id(t) for t in _power_staircase(rows)] == [
                id(t) for t in kept
            ]

    def test_tie_heavy_donors(self):
        rng = random.Random(29)
        values = (-0.0, 0.0, 1.0, 2.0)
        for trial in range(400):
            n = rng.randint(1, 40)
            powers = [rng.choice(values) for _ in range(n)]
            slacks = [rng.choice(values) for _ in range(n)]
            loads = [rng.choice((0.0, 0.5, 1.0)) for _ in range(n)]
            limits = (
                [rng.choice((0.5, 1.0, math.inf)) for _ in range(n)]
                if trial % 2
                else None
            )
            by_power = sorted(range(n), key=powers.__getitem__)
            for resistance in (0.0, 0.5, 1.0, 2.0):
                assert _power_donors(
                    by_power, powers, slacks, loads, limits, resistance
                ) == old_power_donors(powers, slacks, loads, limits, resistance)
