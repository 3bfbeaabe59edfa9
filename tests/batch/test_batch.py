"""Unit tests for the batch layer: executors, config, results, report, CLI."""

from __future__ import annotations

import pytest

from repro import InfeasibleError, WorkloadError, two_pin_net
from repro.batch import (
    BatchConfig,
    BatchOptimizer,
    ChunkedExecutor,
    MultiprocessExecutor,
    SerialExecutor,
    make_executor,
    optimize_net,
)
from repro.cli import main as cli_main
from repro.core.objective import Objective
from repro.core.stats import EngineStats
from repro.library import (
    BufferType,
    DriverCell,
    default_buffer_library,
    default_technology,
    single_buffer_library,
)
from repro.noise import CouplingModel
from repro.units import FF, PS, UM
from repro.workloads import WorkloadConfig, population_specs

TECH = default_technology()
COUPLING = CouplingModel.estimation_mode(TECH)


class TestExecutors:
    def test_make_executor_kinds(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("process"), MultiprocessExecutor)
        assert isinstance(make_executor("chunked"), ChunkedExecutor)
        with pytest.raises(WorkloadError):
            make_executor("threads")

    def test_worker_validation(self):
        with pytest.raises(WorkloadError):
            MultiprocessExecutor(workers=0)
        with pytest.raises(WorkloadError):
            ChunkedExecutor(chunk_size=0)

    def test_maps_preserve_order(self):
        items = list(range(23))
        expected = [i * i for i in items]
        for executor in (
            SerialExecutor(),
            MultiprocessExecutor(workers=2),
            ChunkedExecutor(workers=2, chunk_size=4),
            ChunkedExecutor(workers=2),  # auto chunking
        ):
            assert executor.map(_square, items) == expected

    def test_empty_map(self):
        assert MultiprocessExecutor(workers=2).map(_square, []) == []

    def test_single_worker_needs_no_pool(self):
        # workers=1 must not pay pool startup; it falls back inline.
        assert MultiprocessExecutor(workers=1).map(_square, [3]) == [9]


def _square(x):
    return x * x


class TestBatchConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="objective mode"):
            BatchConfig(objective=Objective(mode="noise"))

    def test_rejects_bad_segment(self):
        with pytest.raises(WorkloadError):
            BatchConfig(max_segment_length=0.0)

    def test_rejects_negative_deadline(self):
        with pytest.raises(WorkloadError) as excinfo:
            BatchConfig(net_deadline=-5.0)
        assert "net_deadline" in str(excinfo.value)
        with pytest.raises(WorkloadError):
            BatchConfig(net_deadline=0.0)

    def test_rejects_bad_candidate_budget(self):
        with pytest.raises(WorkloadError) as excinfo:
            BatchConfig(net_max_candidates=0)
        assert "net_max_candidates" in str(excinfo.value)

    def test_rejects_non_policy_retry(self):
        with pytest.raises(WorkloadError) as excinfo:
            BatchConfig(retry="3 times")
        assert "RetryPolicy" in str(excinfo.value)

    def test_zero_max_attempts_rejected_at_policy_level(self):
        from repro.batch import RetryPolicy

        with pytest.raises(WorkloadError) as excinfo:
            BatchConfig(retry=RetryPolicy(max_attempts=0))
        assert "max_attempts" in str(excinfo.value)

    def test_run_budget_reflects_limits(self):
        assert BatchConfig().run_budget() is None
        budget = BatchConfig(
            net_deadline=5.0, net_max_candidates=100
        ).run_budget()
        assert budget is not None
        assert budget.deadline_seconds == 5.0
        assert budget.max_candidates == 100
        # Budgets are stateful: every call must mint a fresh one.
        config = BatchConfig(net_max_candidates=100)
        assert config.run_budget() is not config.run_budget()


class TestOptimizeNet:
    def _net(self, length=9000 * UM, margin=0.8):
        return two_pin_net(
            TECH,
            length,
            DriverCell("drv", 250.0, 30 * PS),
            sink_capacitance=20 * FF,
            noise_margin=margin,
            required_arrival=2000 * PS,
        )

    def test_feasible_net(self):
        result = optimize_net(
            self._net(), default_buffer_library(), COUPLING, BatchConfig()
        )
        assert result.ok
        assert result.buffer_count is not None and result.buffer_count >= 1
        assert result.noise_feasible
        assert result.tree is not None
        solution = result.solution()
        assert solution.buffer_count == result.buffer_count

    def test_infeasible_net_is_recorded_not_raised(self):
        # A hopeless margin with a weak library: no legal buffering.
        weak = single_buffer_library(
            BufferType("weak", 5000.0, 40 * FF, 25 * PS, 0.01)
        )
        result = optimize_net(
            self._net(margin=0.02), weak, COUPLING, BatchConfig()
        )
        assert not result.ok
        assert result.assignment is None
        assert "no noise-feasible" in (result.error or "")
        with pytest.raises(InfeasibleError):
            result.solution()

    def test_keep_trees_false_drops_tree(self):
        result = optimize_net(
            self._net(),
            default_buffer_library(),
            COUPLING,
            BatchConfig(keep_trees=False),
        )
        assert result.tree is None
        with pytest.raises(WorkloadError):
            result.solution()

    def test_stats_ride_along(self):
        result = optimize_net(
            self._net(),
            default_buffer_library(),
            COUPLING,
            BatchConfig(collect_stats=True),
        )
        assert isinstance(result.stats, EngineStats)
        assert result.stats.candidates_generated == result.candidates_generated


class TestBatchReport:
    @pytest.fixture(scope="class")
    def report(self):
        workload = WorkloadConfig(nets=8, seed=11)
        optimizer = BatchOptimizer(
            config=BatchConfig(max_buffers=4, collect_stats=True),
            workload=workload,
        )
        return optimizer.optimize_specs(population_specs(workload))

    def test_lengths_and_order(self, report):
        assert len(report) == 8
        assert [r.name for r in report.results] == [
            f"net{i:04d}" for i in range(8)
        ]

    def test_aggregates(self, report):
        histogram = report.buffer_histogram()
        assert sum(histogram.values()) == len(report.ok_results)
        assert report.total_buffers() == sum(
            count * nets for count, nets in histogram.items()
        )
        assert report.total_candidates() == sum(
            r.candidates_generated for r in report.results
        )
        assert report.nets_per_second() > 0

    def test_aggregate_stats_fold(self, report):
        total = report.aggregate_stats()
        assert total is not None
        assert total.candidates_generated == sum(
            r.stats.candidates_generated for r in report.results
        )
        assert total.frontier_peak == max(
            r.stats.frontier_peak for r in report.results
        )
        assert len(total.nodes) == sum(
            len(r.stats.nodes) for r in report.results
        )

    def test_solutions_materialize(self, report):
        solutions = report.solutions()
        assert set(solutions) == {r.name for r in report.ok_results}

    def test_describe_mentions_everything(self, report):
        text = report.describe()
        assert "8 nets" in text
        assert "nets/s" in text
        assert "candidates" in text


class TestBatchCLI:
    def test_batch_subcommand(self, capsys):
        code = cli_main(
            ["batch", "--nets", "6", "--seed", "3", "--stats",
             "--executor", "chunked", "--workers", "2", "--chunk-size", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "6 nets" in out
        assert "telemetry:" in out

    def test_batch_delay_mode(self, capsys):
        code = cli_main(["batch", "--nets", "4", "--seed", "3",
                         "--objective", "delay"])
        assert code == 0
        assert "mode=delay" in capsys.readouterr().out
