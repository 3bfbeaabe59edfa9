"""Lishi engine: semantic equivalence, engine names, planted mutants.

The lishi engine's contract is *semantic equivalence* with the
reference (equal selected outcomes within the documented tolerance,
certificate-clean, oracle-optimal on small nets), not bit-identity —
see ``tests/core/equivalence.py`` for the harness and the rationale.

The planted-bug self-tests are the teeth of that contract: they prove
the layered harness catches exactly the two bug families the lishi
shortcuts risk — *over-eviction* (eager dominance eviction removing an
optimum; self-consistent, so the certificate alone passes) and *stale
offsets* (a wire's lazy offset not applied, corrupting every decoded
value).  A harness that cannot fail a broken engine gates nothing.
"""

import pathlib
import sys

import pytest
from hypothesis import HealthCheck, given, settings

_HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))
sys.path.insert(0, str(_HERE.parent / "properties"))
from equivalence import (  # noqa: E402
    assert_certificate_clean,
    assert_outcomes_equivalent,
    assert_semantic_equivalence,
)
from treegen import random_trees  # noqa: E402

from repro import (  # noqa: E402
    CouplingModel,
    DPOptions,
    DriverCell,
    Objective,
    TreeBuilder,
    default_buffer_library,
    default_technology,
    run_dp,
)
from repro.core import WireSizingSpec  # noqa: E402
from repro.core.lishi_engine import LiShiEngine  # noqa: E402
from repro.units import FF, MM, NS, PS, UM  # noqa: E402
from repro.verify.treegen import seeded_tree  # noqa: E402

LIBRARY = default_buffer_library()
COUPLING = CouplingModel.estimation_mode(default_technology())
MAX_SLACK = Objective(mode="delay", selection="max-slack")

default_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class TestPropertyEquivalence:
    @default_settings
    @given(tree=random_trees(with_rats=True))
    def test_delay_mode_equivalent(self, tree):
        assert_semantic_equivalence(tree, LIBRARY, COUPLING)

    @default_settings
    @given(tree=random_trees(with_rats=True))
    def test_noise_mode_equivalent(self, tree):
        assert_semantic_equivalence(
            tree, LIBRARY, COUPLING, noise_aware=True
        )

    @default_settings
    @given(tree=random_trees(with_rats=True))
    def test_pareto_prune_equivalent(self, tree):
        assert_semantic_equivalence(
            tree, LIBRARY, COUPLING, noise_aware=True, prune="pareto"
        )

    @default_settings
    @given(tree=random_trees(with_rats=True))
    def test_polarity_free_equivalent(self, tree):
        assert_semantic_equivalence(
            tree, LIBRARY, COUPLING, noise_aware=True, enforce_polarity=False
        )

    @default_settings
    @given(tree=random_trees(with_rats=True))
    def test_count_tracking_equivalent(self, tree):
        assert_semantic_equivalence(
            tree, LIBRARY, COUPLING,
            noise_aware=True, track_counts=True, max_buffers=3,
        )

    @default_settings
    @given(tree=random_trees(with_rats=True))
    def test_wire_sizing_equivalent(self, tree):
        assert_semantic_equivalence(
            tree, LIBRARY, COUPLING,
            sizing=WireSizingSpec(widths=(1.0, 1.6)),
        )


def _hull_cut_net():
    """A 5-node net whose lone-sink merge clamp cuts a hull vertex.

    At ``i1`` the buffered candidates sit under the hull chord to the
    unbuffered candidate; merging ``s0`` at ``i0`` clamps that candidate
    below them, so the optimum (buffers at both ``i1`` and ``i0``) is
    reachable only if the hull gives the hidden candidates back.
    """
    builder = TreeBuilder(default_technology())
    builder.add_source("so", driver=DriverCell("drv", 30.0, 0.0))
    builder.add_internal("i0")
    builder.add_wire("so", "i0", length=3.906 * MM)
    builder.add_internal("i1")
    builder.add_wire("i0", "i1", length=1.092 * MM)
    builder.add_sink("s0", capacitance=1 * FF, noise_margin=0.8,
                     required_arrival=1 * NS)
    builder.add_wire("i0", "s0", length=3.196 * MM)
    builder.add_sink("s1", capacitance=25.24 * FF, noise_margin=0.8,
                     required_arrival=1 * NS)
    builder.add_wire("i1", "s1", length=50 * UM)
    return builder.build("hull_cut")


class TestHullMaintenance:
    def test_merge_clamp_keeps_hidden_candidates_reachable(self):
        tree = _hull_cut_net()
        silent = CouplingModel.silent()
        picks = {}
        for engine in ("reference", "lishi"):
            result = run_dp(tree, LIBRARY, silent, DPOptions(engine=engine))
            best = result.select(MAX_SLACK)
            picks[engine] = best
            assert best.buffer_count == 2, engine
            assert [i.node for i in best.insertions] == ["i1", "i0"], engine
            assert best.slack == pytest.approx(781.363 * PS, abs=1e-3 * PS)
        assert picks["lishi"].slack == pytest.approx(
            picks["reference"].slack, rel=1e-12
        )


class TestSeededEquivalence:
    def test_seeded_family_equivalent_both_modes(self):
        for seed in range(20):
            tree = seeded_tree(seed, with_rats=True)
            for noise_aware in (False, True):
                assert_semantic_equivalence(
                    tree, LIBRARY, COUPLING,
                    noise_aware=noise_aware,
                    track_counts=True,
                    context=f"seed {seed} noise_aware={noise_aware}",
                )

    def test_telemetry_reports_lishi(self):
        tree = seeded_tree(0, with_rats=True)
        result = run_dp(
            tree, LIBRARY, COUPLING,
            DPOptions(engine="lishi", collect_stats=True),
        )
        assert result.stats is not None
        assert result.stats.engine == "lishi"


class TestAutoEngine:
    """``"auto"`` is a retired alias, not a wildcard."""

    def test_unknown_engine_still_rejected(self):
        assert DPOptions(engine="auto").engine == "auto"
        with pytest.raises(ValueError, match="unknown engine"):
            DPOptions(engine="turbo")


class TestEngineOption:
    @pytest.mark.parametrize("retired", ["fast", "auto"])
    def test_retired_names_run_lishi(self, retired):
        """``"fast"`` and ``"auto"`` stay accepted for one release (stored
        requests and journals carry them) and run the lishi engine."""
        tree = seeded_tree(1, with_rats=True)
        options = DPOptions(
            engine=retired, noise_aware=True, collect_stats=True
        )
        assert options.engine == retired  # never rewritten: fingerprints
        alias = run_dp(tree, LIBRARY, COUPLING, options)
        lishi = run_dp(
            tree, LIBRARY, COUPLING,
            DPOptions(engine="lishi", noise_aware=True, collect_stats=True),
        )
        assert alias.stats.engine == "lishi"
        assert alias.outcomes == lishi.outcomes
        assert alias.candidates_generated == lishi.candidates_generated


def _run_with(engine_cls):
    """An ``engine_callable`` for the harness bound to a subclass."""

    def runner(tree, library, coupling, options):
        return engine_cls(tree, library, coupling, options, tree.driver).run()

    return runner


class _OverEvictingLiShiEngine(LiShiEngine):
    """Keeps only the min-load candidate of every group: over-eviction."""

    def _prune_timing(self, candidates, frontier):
        return super()._prune_timing(candidates, frontier)[:1]


class _StaleQOffsetLiShiEngine(LiShiEngine):
    """Loses half of every wire's slack offset: stale lazy ``dq``."""

    def _apply_wire(self, wire, frontier):
        before = frontier.dq
        super()._apply_wire(wire, frontier)
        frontier.dq = before + 0.5 * (frontier.dq - before)


class _StaleNoiseOffsetLiShiEngine(LiShiEngine):
    """Never advances the noise offset: stale lazy ``dns``."""

    def _apply_wire(self, wire, frontier):
        before = frontier.dns
        super()._apply_wire(wire, frontier)
        frontier.dns = before


def _mutant_diverges(engine_cls, **option_kwargs):
    """Whether the harness fails the mutant on at least one seeded net."""
    for seed in range(12):
        tree = seeded_tree(seed, with_rats=True)
        try:
            assert_semantic_equivalence(
                tree, LIBRARY, COUPLING,
                engine_callable=_run_with(engine_cls),
                context=f"mutant seed {seed}",
                **option_kwargs,
            )
        except AssertionError:
            return True
    return False


class TestPlantedBugs:
    """The harness must catch the bug families the shortcuts risk."""

    def test_over_eviction_caught_by_harness(self):
        assert _mutant_diverges(
            _OverEvictingLiShiEngine, track_counts=True
        ), "over-evicting mutant slipped through the equivalence harness"

    def test_over_eviction_passes_certificate_alone(self):
        """Why outcome/oracle layers exist: over-eviction self-certifies.

        Every candidate the mutant keeps is still a *correct* candidate,
        so on at least one net where the harness catches the missing
        optimum, the certificate alone waves the result through.
        """
        certificate_blind = 0
        harness_caught = 0
        for seed in range(12):
            tree = seeded_tree(seed, with_rats=True)
            options = DPOptions(
                engine="lishi", noise_aware=True, track_counts=True
            )
            result = _run_with(_OverEvictingLiShiEngine)(
                tree, LIBRARY, COUPLING, options,
            )
            reference = run_dp(
                tree, LIBRARY, COUPLING,
                DPOptions(
                    engine="reference", noise_aware=True, track_counts=True
                ),
            )
            try:
                assert_outcomes_equivalent(reference, result)
            except AssertionError:
                harness_caught += 1
            else:
                continue
            try:
                assert_certificate_clean(result, COUPLING, tree.driver)
            except AssertionError:
                pass
            else:
                certificate_blind += 1
        assert harness_caught > 0
        assert certificate_blind > 0, (
            "expected the certificate to pass at least one over-evicted "
            "result the outcome comparison rejected"
        )

    def test_stale_slack_offset_caught_by_harness(self):
        assert _mutant_diverges(
            _StaleQOffsetLiShiEngine
        ), "stale-dq mutant slipped through the equivalence harness"

    def test_stale_noise_offset_caught_by_harness(self):
        assert _mutant_diverges(
            _StaleNoiseOffsetLiShiEngine, noise_aware=True
        ), "stale-dns mutant slipped through the equivalence harness"
