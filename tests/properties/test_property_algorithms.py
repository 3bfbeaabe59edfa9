"""Property-based tests for the buffer-insertion algorithms."""

import math

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import (
    BufferType,
    CouplingModel,
    DPOptions,
    InfeasibleError,
    Objective,
    analyze_noise,
    insert_buffers_multi_sink,
    insert_buffers_single_sink,
    run_dp,
    segment_tree,
)
from repro.core import max_safe_length, prune_noise_candidates, uniform_wire_noise
from repro.core.dp import ENGINES
from repro.core.noise_multi import NoiseCandidate
from repro.library import single_buffer_library
from repro.timing import source_slack
from repro.units import FF, MM, PS
from treegen import TECH, random_chains, random_trees

COUPLING = CouplingModel.estimation_mode(TECH)
BUFFER = BufferType("pb", 120.0, 15 * FF, 25 * PS, 0.8)

default_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class TestTheorem1Property:
    @default_settings
    @given(
        rb=st.floats(min_value=0.0, max_value=5000.0),
        big_i=st.floats(min_value=0.0, max_value=5e-3),
        slack=st.floats(min_value=1e-3, max_value=3.0),
        r=st.floats(min_value=1e3, max_value=5e5),
        i=st.floats(min_value=1e-3, max_value=5.0),
    )
    def test_lmax_is_exact_boundary(self, rb, big_i, slack, r, i):
        assume(slack >= rb * big_i)
        length = max_safe_length(rb, r, i, big_i, slack)
        assume(math.isfinite(length))
        # The quadratic solve cancels catastrophically for extreme
        # parameter ratios; allow ~1e-8 relative float dust.
        at_max = uniform_wire_noise(rb, r, i, length, big_i)
        assert at_max <= slack * (1 + 1e-8) + 1e-15
        beyond = uniform_wire_noise(rb, r, i, length * 1.01 + 1e-9, big_i)
        assert beyond > slack * (1 - 1e-8) - 1e-15


class TestAlgorithm1Properties:
    @default_settings
    @given(chain=random_chains())
    def test_result_is_noise_clean(self, chain):
        try:
            solution = insert_buffers_single_sink(chain, BUFFER, COUPLING)
        except InfeasibleError:
            assume(False)
        buffered, discrete = solution.realize()
        report = analyze_noise(buffered, COUPLING, discrete.buffer_map())
        assert not report.violated

    @default_settings
    @given(chain=random_chains())
    def test_minimality_certificate(self, chain):
        """Dropping any placed buffer must re-create a violation."""
        try:
            solution = insert_buffers_single_sink(chain, BUFFER, COUPLING)
        except InfeasibleError:
            assume(False)
        assume(solution.buffer_count > 0)
        buffered, discrete = solution.realize()
        full = dict(discrete.buffer_map())
        for name in full:
            reduced = {k: v for k, v in full.items() if k != name}
            assert analyze_noise(buffered, COUPLING, reduced).violated

    @default_settings
    @given(chain=random_chains())
    def test_agrees_with_algorithm2(self, chain):
        try:
            alg1 = insert_buffers_single_sink(chain, BUFFER, COUPLING)
            alg2 = insert_buffers_multi_sink(chain, BUFFER, COUPLING)
        except InfeasibleError:
            assume(False)
        assert alg1.buffer_count == alg2.buffer_count


class TestAlgorithm2Properties:
    @default_settings
    @given(tree=random_trees())
    def test_result_is_noise_clean(self, tree):
        try:
            solution = insert_buffers_multi_sink(tree, BUFFER, COUPLING)
        except InfeasibleError:
            assume(False)
        buffered, discrete = solution.realize()
        assert not analyze_noise(
            buffered, COUPLING, discrete.buffer_map()
        ).violated

    @default_settings
    @given(tree=random_trees())
    def test_clean_input_needs_no_buffers(self, tree):
        assume(not analyze_noise(tree, COUPLING).violated)
        solution = insert_buffers_multi_sink(tree, BUFFER, COUPLING)
        assert solution.buffer_count == 0


class TestDPProperties:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(tree=random_trees(max_internal=3, with_rats=True),
           cut=st.floats(min_value=0.4, max_value=1.5))
    def test_outcome_slack_matches_independent_analysis(self, tree, cut):
        library = single_buffer_library(BUFFER)
        segmented = segment_tree(tree, cut * MM)
        result = run_dp(segmented, library, CouplingModel.silent())
        for outcome in result.outcomes:
            solution = result.solution(outcome)
            analyzed = source_slack(segmented, solution.buffer_map())
            assert math.isclose(outcome.slack, analyzed,
                                rel_tol=1e-9, abs_tol=1e-18)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(tree=random_trees(max_internal=3, with_rats=True),
           cut=st.floats(min_value=0.4, max_value=1.5))
    def test_noise_aware_outcomes_clean(self, tree, cut):
        library = single_buffer_library(BUFFER)
        segmented = segment_tree(tree, cut * MM)
        result = run_dp(
            segmented, library, COUPLING, DPOptions(noise_aware=True)
        )
        for outcome in result.outcomes:
            solution = result.solution(outcome)
            assert not analyze_noise(
                segmented, COUPLING, solution.buffer_map()
            ).violated

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(tree=random_trees(max_internal=3, with_rats=True))
    def test_noise_aware_never_beats_delay_only(self, tree):
        """Constraints can only cost slack, never gain it."""
        library = single_buffer_library(BUFFER)
        segmented = segment_tree(tree, 0.8 * MM)
        plain = run_dp(segmented, library, CouplingModel.silent())
        try:
            noisy = run_dp(
                segmented, library, COUPLING, DPOptions(noise_aware=True)
            )
            best_noisy = noisy.select(Objective(selection="max-slack"))
        except InfeasibleError:
            assume(False)
        assert best_noisy.slack <= (
            plain.select(Objective.legacy("delay")).slack + 1e-12
        )


class TestWireSizingProperties:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(tree=random_trees(max_internal=3, with_rats=True),
           cut=st.floats(min_value=0.5, max_value=1.5))
    def test_sized_outcome_matches_realized_analysis(self, tree, cut):
        """On random trees, the sizing DP's slack equals the independent
        Elmore analysis of the realized (resized) tree."""
        from repro.core import WireSizingSpec

        library = single_buffer_library(BUFFER)
        segmented = segment_tree(tree, cut * MM)
        spec = WireSizingSpec(widths=(1.0, 2.0), area_fraction=0.6)
        result = run_dp(
            segmented, library, CouplingModel.silent(),
            DPOptions(sizing=spec),
        )
        for outcome in result.outcomes:
            resized, solution = result.sized_solution(outcome)
            analyzed = source_slack(resized, solution.buffer_map())
            assert math.isclose(outcome.slack, analyzed,
                                rel_tol=1e-9, abs_tol=1e-18)


class TestEngineStatsProperties:
    """Invariants of the telemetry collector (Section V-B made testable)."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(tree=random_trees(max_internal=3, with_rats=True),
           cut=st.floats(min_value=0.4, max_value=1.5),
           noise_aware=st.booleans())
    def test_accounting_invariants(self, tree, cut, noise_aware):
        # Both engines share one visit loop, so both must keep the books.
        for engine in ENGINES:
            self._check_accounting(tree, cut, noise_aware, engine)

    @staticmethod
    def _check_accounting(tree, cut, noise_aware, engine):
        library = single_buffer_library(BUFFER)
        segmented = segment_tree(tree, cut * MM)
        result = run_dp(
            segmented, library, COUPLING,
            DPOptions(noise_aware=noise_aware, collect_stats=True,
                      engine=engine),
        )
        stats = result.stats
        assert stats is not None
        assert stats.engine == engine
        # Pruned (and dead-dropped) candidates were all generated first.
        assert stats.candidates_pruned <= stats.candidates_generated
        assert (stats.candidates_pruned + stats.candidates_dead
                <= stats.candidates_generated)
        assert stats.candidates_kept >= 0
        # Telemetry agrees with the engine's own counters.
        assert stats.candidates_generated == result.candidates_generated
        assert stats.frontier_peak == result.candidates_kept_peak
        # One record per tree node, each internally consistent.
        assert len(stats.nodes) == sum(1 for _ in segmented.nodes())
        assert sum(n.generated for n in stats.nodes) == stats.candidates_generated
        assert sum(n.pruned for n in stats.nodes) == stats.candidates_pruned
        assert sum(n.dead for n in stats.nodes) == stats.candidates_dead
        if result.outcomes:
            # A feasible run means no node's frontier ever died out.
            assert all(n.frontier >= 1 for n in stats.nodes)
        if not noise_aware:
            assert stats.candidates_dead == 0

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(tree=random_trees(max_internal=3, with_rats=True),
           cut=st.floats(min_value=0.4, max_value=1.5))
    def test_collection_never_changes_results(self, tree, cut):
        library = single_buffer_library(BUFFER)
        segmented = segment_tree(tree, cut * MM)
        for engine in ENGINES:
            options = DPOptions(
                noise_aware=True, track_counts=True, engine=engine
            )
            plain = run_dp(segmented, library, COUPLING, options)
            instrumented = run_dp(
                segmented, library, COUPLING,
                DPOptions(noise_aware=True, track_counts=True,
                          engine=engine, collect_stats=True),
            )
            assert plain.stats is None
            assert instrumented.stats.engine == engine
            assert plain.outcomes == instrumented.outcomes
            assert (plain.candidates_generated
                    == instrumented.candidates_generated)
            assert (plain.candidates_kept_peak
                    == instrumented.candidates_kept_peak)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(tree=random_trees(max_internal=3, with_rats=True),
           cut=st.floats(min_value=0.4, max_value=1.5))
    def test_timing_prune_generates_no_more_than_pareto(self, tree, cut):
        """The paper's Theorem-5 (C, q) pruning keeps a subset of the
        4-field Pareto frontier at every node, so the noise-aware run
        generates no more candidates than its prune="pareto" ablation."""
        library = single_buffer_library(BUFFER)
        segmented = segment_tree(tree, cut * MM)
        timing = run_dp(
            segmented, library, COUPLING, DPOptions(noise_aware=True)
        )
        pareto = run_dp(
            segmented, library, COUPLING,
            DPOptions(noise_aware=True, prune="pareto"),
        )
        assert timing.candidates_generated <= pareto.candidates_generated


class TestPruneProperties:
    candidates = st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0),
            st.floats(min_value=0.0, max_value=2.0),
            st.integers(min_value=0, max_value=4),
        ),
        min_size=0,
        max_size=30,
    )

    @staticmethod
    def _build(raw):
        from repro.core._chain import Chain
        from repro.core.solution import PlacedBuffer

        out = []
        for current, slack, count in raw:
            chain = None
            for k in range(count):
                chain = Chain.push(
                    chain, PlacedBuffer("a", "b", float(k), BUFFER)
                )
            out.append(NoiseCandidate(current, slack, chain))
        return out

    @default_settings
    @given(raw=candidates)
    def test_prune_matches_naive_pareto(self, raw):
        pool = self._build(raw)
        kept = prune_noise_candidates(pool)

        def dominated(c, by):
            return (
                by.current <= c.current
                and by.slack >= c.slack
                and by.count <= c.count
                and (by.current, -by.slack, by.count)
                != (c.current, -c.slack, c.count)
            )

        # every kept candidate is non-dominated within the original pool
        for cand in kept:
            assert not any(dominated(cand, other) for other in kept
                           if other is not cand)
        # every dropped candidate is dominated (or a duplicate) of a kept one
        kept_keys = [(c.current, c.slack, c.count) for c in kept]
        for cand in pool:
            key = (cand.current, cand.slack, cand.count)
            if key in kept_keys:
                continue
            assert any(
                other.current <= cand.current
                and other.slack >= cand.slack
                and other.count <= cand.count
                for other in kept
            )
