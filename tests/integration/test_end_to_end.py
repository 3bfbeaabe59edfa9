"""End-to-end integration tests: the full pipeline on realistic nets.

These tie every subsystem together the way the paper's tool flow does:
workload -> Steiner tree -> segmentation -> optimization -> metric
verification -> detailed transient verification -> timing comparison.
"""

import math

import pytest

from repro import (
    analyze_noise,
    buffopt_min_buffers,
    insert_buffers_multi_sink,
    segment_tree,
)
from repro.analysis import DetailedNoiseAnalyzer, assess_net
from repro.api import dp_result
from repro.core import Objective, best_within_count
from repro.timing import max_sink_delay, meets_timing

DELAY = Objective.legacy("delay")


@pytest.fixture(scope="module")
def pipeline():
    from repro.experiments import default_experiment

    experiment = default_experiment(nets=25, seed=777)
    analyzer = DetailedNoiseAnalyzer.estimation_mode(experiment.technology)
    return experiment, analyzer


class TestFullPipeline:
    def test_buffopt_fixes_every_net_and_keeps_timing(self, pipeline):
        experiment, analyzer = pipeline
        for net in experiment.nets:
            tree = segment_tree(net.tree, experiment.max_segment_length)
            solution = buffopt_min_buffers(
                tree, experiment.library, experiment.coupling
            )
            # metric-clean
            assert not analyze_noise(
                tree, experiment.coupling, solution.buffer_map()
            ).violated, net.name
            # timing preserved (the workload guarantees feasibility)
            assert meets_timing(tree, solution.buffer_map()), net.name
            # bounded effort
            assert solution.buffer_count <= 6, net.name

    def test_detailed_verifier_agrees_on_sample(self, pipeline):
        experiment, analyzer = pipeline
        for net in experiment.nets[:8]:
            tree = segment_tree(net.tree, experiment.max_segment_length)
            solution = buffopt_min_buffers(
                tree, experiment.library, experiment.coupling
            )
            assessment = assess_net(
                tree, experiment.coupling, analyzer, solution.buffer_map()
            )
            assert not assessment.detailed_violated, net.name
            assert assessment.metric_is_upper_bound, net.name

    def test_algorithm2_and_buffopt_counts_compatible(self, pipeline):
        """The continuous optimum lower-bounds the discrete Problem-3
        count on every workload net."""
        experiment, _ = pipeline
        for net in experiment.nets[:10]:
            continuous = insert_buffers_multi_sink(
                net.tree, experiment.library, experiment.coupling
            )
            tree = segment_tree(net.tree, experiment.max_segment_length)
            discrete = buffopt_min_buffers(
                tree, experiment.library, experiment.coupling
            )
            assert discrete.buffer_count >= continuous.buffer_count, net.name
            assert discrete.buffer_count <= continuous.buffer_count + 2, net.name

    def test_delay_penalty_small_across_sample(self, pipeline):
        experiment, _ = pipeline
        penalties = []
        for net in experiment.nets[:12]:
            tree = segment_tree(net.tree, experiment.max_segment_length)
            buffered = buffopt_min_buffers(
                tree, experiment.library, experiment.coupling
            )
            if buffered.buffer_count == 0:
                continue
            matched = best_within_count(
                dp_result(
                    tree, experiment.library, objective=DELAY,
                    max_buffers=buffered.buffer_count,
                ),
                buffered.buffer_count,
            )
            d_buff = max_sink_delay(tree, buffered.buffer_map())
            d_best = max_sink_delay(tree, matched.buffer_map())
            assert d_best <= d_buff + 1e-15
            penalties.append((d_buff - d_best) / d_best)
        assert penalties
        assert sum(penalties) / len(penalties) < 0.05

    def test_delayopt_leaves_violations_somewhere(self, pipeline):
        """Theorem 2 at population level: delay-only optimization leaves
        at least one noisy net at small k."""
        experiment, _ = pipeline
        noisy = 0
        for net in experiment.nets:
            tree = segment_tree(net.tree, experiment.max_segment_length)
            result = dp_result(
                tree, experiment.library, objective=DELAY, max_buffers=1
            )
            solution = best_within_count(result, 1)
            if analyze_noise(
                tree, experiment.coupling, solution.buffer_map()
            ).violated:
                noisy += 1
        assert noisy > 0


class TestLargeNet:
    def test_32_sink_net_end_to_end(self, pipeline):
        """A 32-sink Steiner net through the full flow: segment, BuffOpt,
        stage decomposition, metric + transient verification."""
        import numpy as np

        from repro import DriverCell, SinkSite, steiner_tree
        from repro.core import decompose_stages
        from repro.units import FF, MM, NS

        experiment, analyzer = pipeline
        rng = np.random.default_rng(2024)
        sites = [
            SinkSite(
                f"s{i}",
                (float(rng.uniform(0, 10 * MM)),
                 float(rng.uniform(0, 10 * MM))),
                capacitance=float(rng.uniform(5, 40)) * FF,
                noise_margin=0.8,
                required_arrival=5 * NS,
            )
            for i in range(32)
        ]
        tree = steiner_tree(
            experiment.technology, (5 * MM, 5 * MM), sites,
            driver=DriverCell("drv_big", 90.0, 28e-12), name="big32",
        )
        tree = segment_tree(tree, experiment.max_segment_length)
        solution = buffopt_min_buffers(
            tree, experiment.library, experiment.coupling
        )
        assert not analyze_noise(
            tree, experiment.coupling, solution.buffer_map()
        ).violated
        assert meets_timing(tree, solution.buffer_map())

        stages = decompose_stages(tree, solution.buffer_map())
        assert len(stages) == solution.buffer_count + 1
        stage_wires = sum(len(s.wires) for s in stages)
        assert stage_wires == sum(1 for _ in tree.wires())

        detailed = analyzer.analyze(tree, solution.buffer_map())
        assert not detailed.violated


class TestDeterministicPipeline:
    def test_two_runs_identical(self):
        from repro.experiments import default_experiment, run_population

        a = run_population(default_experiment(nets=8, seed=5))
        b = run_population(default_experiment(nets=8, seed=5))
        for ra, rb in zip(a.records, b.records):
            assert ra.buffopt_count == rb.buffopt_count
            assert math.isclose(ra.buffopt_delay, rb.buffopt_delay)
            assert ra.delayopt[2].buffer_count == rb.delayopt[2].buffer_count
