"""Golden per-net pins for the Table 1/2 experiment population.

The coarse pipeline pins in ``test_regression.py`` aggregate over a whole
population; an engine refactor (like threading instrumentation through
the DP) could in principle shift individual nets while leaving aggregates
intact.  These pins are per-net and exact — buffer count and slack, for
BuffOpt and DelayOpt(4), on the first 16 nets of the *paper-seed*
workload (seed 19981101, the population behind Tables I/II).

If an intentional algorithmic change moves them, re-derive with::

    PYTHONPATH=src python - <<'PY'
    from repro import Objective, dp_result, segment_tree
    from repro.experiments import default_experiment
    exp = default_experiment(nets=16)
    buff, delay = Objective.legacy("buffopt"), Objective.legacy("delay")
    for net in exp.nets:
        tree = segment_tree(net.tree, exp.max_segment_length)
        b = dp_result(tree, exp.library, exp.coupling, objective=buff,
                      max_buffers=4).select(buff)
        d = dp_result(tree, exp.library, objective=delay,
                      max_buffers=4).select(delay)
        print(net.name, b.buffer_count, b.slack, d.buffer_count, d.slack)
    PY

and re-record EXPERIMENTS.md.
"""

import pytest

from repro import Objective, dp_result, segment_tree
from repro.experiments import default_experiment

BUFFOPT = Objective.legacy("buffopt")
DELAY = Objective.legacy("delay")

#: (net, BuffOpt buffers, BuffOpt slack, DelayOpt(4) buffers, DelayOpt slack)
GOLDEN = (
    ("net0000", 1, 8.911075412885031e-11, 2, 1.0611019071965038e-10),
    ("net0001", 1, 1.4099421414125485e-10, 2, 1.6339895192157505e-10),
    ("net0002", 2, 5.107513312065187e-10, 4, 5.613489567603889e-10),
    ("net0003", 1, 1.2860611457703613e-10, 2, 1.480943921260673e-10),
    ("net0004", 1, 1.3306374674655036e-10, 2, 1.5245214449148893e-10),
    ("net0005", 1, 1.2663672652397895e-10, 2, 1.4568807955665373e-10),
    ("net0006", 1, 9.199825505678345e-11, 2, 1.0547679225574672e-10),
    ("net0007", 1, 1.3484785921104628e-10, 2, 1.8206192237647973e-10),
    ("net0008", 2, 5.382878982386746e-10, 4, 5.566550744623635e-10),
    ("net0009", 2, 6.774656119574917e-10, 4, 7.665798586987633e-10),
    ("net0010", 1, 2.0544602912176492e-10, 4, 3.113772434356432e-10),
    ("net0011", 1, 1.635209125382028e-10, 2, 2.2423694361123714e-10),
    ("net0012", 1, 2.650967673292487e-10, 2, 3.245535696094398e-10),
    ("net0013", 1, 2.092979606303622e-10, 4, 2.852987111280054e-10),
    ("net0014", 1, 1.3305270678288945e-10, 2, 1.5944827634500767e-10),
    ("net0015", 1, 3.07083281428822e-10, 2, 3.4863436566161506e-10),
)


@pytest.fixture(scope="module")
def segmented_nets():
    experiment = default_experiment(nets=len(GOLDEN))
    return experiment, [
        (net.name, segment_tree(net.tree, experiment.max_segment_length))
        for net in experiment.nets
    ]


def test_golden_net_names(segmented_nets):
    _, nets = segmented_nets
    assert [name for name, _ in nets] == [row[0] for row in GOLDEN]


def test_buffopt_counts_and_slacks_pinned(segmented_nets):
    experiment, nets = segmented_nets
    for (name, tree), (_, count, slack, _, _) in zip(nets, GOLDEN):
        result = dp_result(
            tree, experiment.library, experiment.coupling,
            objective=BUFFOPT, max_buffers=4,
        )
        outcome = result.select(BUFFOPT)
        assert outcome.buffer_count == count, name
        assert outcome.slack == pytest.approx(slack, rel=1e-12), name
        assert outcome.noise_feasible, name


def test_delayopt_counts_and_slacks_pinned(segmented_nets):
    experiment, nets = segmented_nets
    for (name, tree), (_, _, _, count, slack) in zip(nets, GOLDEN):
        result = dp_result(
            tree, experiment.library, objective=DELAY, max_buffers=4
        )
        outcome = result.select(DELAY)
        assert outcome.buffer_count == count, name
        assert outcome.slack == pytest.approx(slack, rel=1e-12), name


def test_instrumented_run_hits_same_pins(segmented_nets):
    """The refactor guard this file exists for: telemetry on, pins unmoved."""
    experiment, nets = segmented_nets
    for (name, tree), (_, count, slack, _, _) in zip(nets, GOLDEN):
        result = dp_result(
            tree,
            experiment.library,
            experiment.coupling,
            objective=BUFFOPT,
            max_buffers=4,
            collect_stats=True,
        )
        outcome = result.select(BUFFOPT)
        assert outcome.buffer_count == count, name
        assert outcome.slack == pytest.approx(slack, rel=1e-12), name
        assert result.stats is not None
        assert result.stats.candidates_generated == result.candidates_generated
