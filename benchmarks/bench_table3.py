"""Table III bench: BuffOpt vs DelayOpt(k) noise avoidance.

Two timed kernels — the noise-aware BuffOpt sweep and the count-limited
DelayOpt sweep — over the same segmented nets, plus the regenerated
Table III from the shared population run.  Asserted shape (paper):
DelayOpt(4) inserts far more buffers than BuffOpt yet still leaves
violations at small k, while BuffOpt leaves none.
"""

from conftest import write_result

from repro.api import dp_result
from repro.core import Objective
from repro.experiments import build_table3, format_table3
from repro.tree import segment_tree

BUFFOPT = Objective.legacy("buffopt")
DELAY = Objective.legacy("delay")


def _segmented(experiment, count=40):
    return [
        segment_tree(net.tree, experiment.max_segment_length)
        for net in experiment.nets[:count]
    ]


def test_buffopt_sweep(benchmark, experiment):
    trees = _segmented(experiment)

    def sweep():
        total = 0
        for tree in trees:
            result = dp_result(
                tree, experiment.library, experiment.coupling,
                objective=BUFFOPT, max_buffers=6,
            )
            total += result.select(BUFFOPT).buffer_count
        return total

    total = benchmark(sweep)
    assert total > 0


def test_delayopt_sweep(benchmark, experiment):
    trees = _segmented(experiment)

    def sweep():
        total = 0
        for tree in trees:
            result = dp_result(
                tree, experiment.library, objective=DELAY, max_buffers=4
            )
            total += result.select(DELAY).buffer_count
        return total

    total = benchmark(sweep)
    assert total > 0


def test_table3_shape(benchmark, population_run, results_dir):
    table = benchmark.pedantic(
        build_table3, args=(population_run,), rounds=1, iterations=1
    )
    by_method = {row.method: row for row in table.rows}
    buffopt = by_method["BuffOpt"]
    assert buffopt.violations == 0
    assert by_method["DelayOpt(1)"].violations > 0
    assert by_method["DelayOpt(4)"].total_buffers > buffopt.total_buffers
    # broad trend only: per-k violations need not be strictly monotone
    violations = [by_method[f"DelayOpt({k})"].violations for k in (1, 2, 3, 4)]
    assert violations[0] >= violations[-1]
    assert violations[0] > violations[2]
    write_result(results_dir, "table3.txt", format_table3(table))
