"""Tests for Algorithm 3 / BuffOpt (repro.core.noise_delay)."""


import pytest

from repro import (
    InfeasibleError,
    analyze_noise,
    buffopt,
    Objective,
    buffopt_min_buffers,
    dp_result,
    optimize_delay,
    segment_tree,
    two_pin_net,
)
from repro.noise import has_noise_violation
from repro.timing import max_sink_delay, source_slack
from repro.units import FF, MM, NS, UM


@pytest.fixture
def net(tech, driver):
    return two_pin_net(
        tech, 9 * MM, driver, 25 * FF, 0.8,
        required_arrival=2 * NS, segments=9, name="n9",
    )


class TestBuffOpt:
    def test_always_noise_clean(self, net, library, coupling):
        solution = buffopt(net, library, coupling)
        assert not has_noise_violation(net, coupling, solution.buffer_map())

    def test_delay_close_to_delayopt_upper_bound(self, net, library, coupling):
        """Section V-C: the DelayOpt slack upper-bounds BuffOpt's, and the
        gap is small (paper: < 2 % average; generous 10 % per-net here)."""
        noise_aware = buffopt(net, library, coupling)
        delay_only = optimize_delay(net, library)
        q_noise = source_slack(net, noise_aware.buffer_map())
        q_delay = source_slack(net, delay_only.buffer_map())
        assert q_noise <= q_delay + 1e-15
        d_noise = max_sink_delay(net, noise_aware.buffer_map())
        d_delay = max_sink_delay(net, delay_only.buffer_map())
        assert (d_noise - d_delay) / d_delay < 0.10

    def test_generates_fewer_candidates_than_delayopt(
        self, net, library, coupling
    ):
        """Section V-B: BuffOpt prunes noisy candidates, so it explores a
        subset of DelayOpt's candidate space."""
        from repro import DPOptions, run_dp

        noisy = run_dp(net, library, coupling, DPOptions(noise_aware=True))
        plain = run_dp(net, library, coupling, DPOptions(noise_aware=False))
        assert noisy.candidates_generated <= plain.candidates_generated

    def test_infeasible_raises(self, tech, driver, coupling):
        """No segmentation sites on a long wire: nothing can be fixed."""
        from repro import default_buffer_library

        net = two_pin_net(tech, 12 * MM, driver, 20 * FF, 0.8,
                          required_arrival=3 * NS, segments=1)
        with pytest.raises(InfeasibleError):
            buffopt(net, default_buffer_library(), coupling)


class TestProblem3:
    def test_fewest_buffers_is_noise_clean(self, net, library, coupling):
        solution = buffopt_min_buffers(net, library, coupling)
        assert not has_noise_violation(net, coupling, solution.buffer_map())

    def test_fewest_buffers_minimal_among_outcomes(self, net, library, coupling):
        result = dp_result(net, library, coupling)
        fewest = result.select(Objective(selection="fewest-buffers"))
        meeting = [o for o in result.outcomes if o.slack >= 0.0]
        assert meeting
        assert fewest.buffer_count == min(o.buffer_count for o in meeting)

    def test_uses_fewer_or_equal_buffers_than_problem2(
        self, net, library, coupling
    ):
        p2 = buffopt(net, library, coupling)
        p3 = buffopt_min_buffers(net, library, coupling)
        assert p3.buffer_count <= p2.buffer_count

    def test_timing_infeasible_falls_back_to_best_slack(
        self, tech, driver, library, coupling
    ):
        """Impossible RAT: Problem 3 returns the max-slack noise-feasible
        solution instead of raising."""
        net = two_pin_net(
            tech, 9 * MM, driver, 25 * FF, 0.8,
            required_arrival=1e-15, segments=9,
        )
        solution = buffopt_min_buffers(net, library, coupling)
        assert not has_noise_violation(net, coupling, solution.buffer_map())
        result = dp_result(net, library, coupling)
        best = result.select(Objective(selection="max-slack"))
        assert solution.buffer_count == best.buffer_count

    def test_count_cap_respected(self, net, library, coupling):
        result = dp_result(net, library, coupling, max_buffers=3)
        assert all(o.buffer_count <= 3 for o in result.outcomes)


class TestAgainstNoiseOnlyAlgorithms:
    def test_buffer_count_not_less_than_algorithm2(
        self, tech, driver, library, coupling
    ):
        """Algorithm 2 computes the true continuous minimum buffer count;
        the discrete Problem-3 DP cannot beat it."""
        from repro import insert_buffers_multi_sink

        for mm in (4, 7, 10):
            raw = two_pin_net(
                tech, mm * MM, driver, 20 * FF, 0.8,
                required_arrival=5 * NS, name=f"m{mm}",
            )
            continuous = insert_buffers_multi_sink(raw, library, coupling)
            discrete_tree = segment_tree(raw, 300 * UM)
            discrete = buffopt_min_buffers(discrete_tree, library, coupling)
            assert discrete.buffer_count >= continuous.buffer_count

    def test_fine_segmentation_approaches_continuous_count(
        self, tech, driver, library, coupling
    ):
        from repro import insert_buffers_multi_sink

        raw = two_pin_net(
            tech, 8 * MM, driver, 20 * FF, 0.8, required_arrival=5 * NS
        )
        continuous = insert_buffers_multi_sink(raw, library, coupling)
        fine = segment_tree(raw, 200 * UM)
        discrete = buffopt_min_buffers(fine, library, coupling)
        assert discrete.buffer_count <= continuous.buffer_count + 1


class TestMultiSinkBuffOpt:
    def test_y_tree_clean_and_timed(self, y_tree, library, coupling):
        tree = segment_tree(y_tree, 500 * UM)
        solution = buffopt(tree, library, coupling)
        assert not has_noise_violation(tree, coupling, solution.buffer_map())
        report = analyze_noise(tree, coupling, solution.buffer_map())
        assert report.worst_slack >= 0
