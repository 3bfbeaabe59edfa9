"""Certification overhead: what does ``batch --certify`` cost?

The certifier re-walks each net once per selected outcome, so its cost
should be a small constant factor on top of the DP (which explores the
whole candidate frontier).  These benches time the checker alone, the
exhaustive oracle at its default site bound, and the end-to-end batch
overhead of turning ``certify=True`` on — and assert everything it
audits actually passes.
"""

import pytest

from repro import (
    CouplingModel,
    DriverCell,
    default_technology,
    dp_result,
    segment_tree,
)
from repro.batch import BatchConfig, BatchOptimizer
from repro.library import default_buffer_library
from repro.units import FF, MM, NS, UM
from repro.verify import certify_result, exhaustive_oracle, seeded_tree

TECH = default_technology()
LIBRARY = default_buffer_library()
COUPLING = CouplingModel.estimation_mode(TECH)
DRIVER = DriverCell("drv", 250.0, 30e-12)


@pytest.fixture(scope="module")
def audited_result():
    from repro import two_pin_net

    net = two_pin_net(TECH, 8 * MM, DRIVER, 20 * FF, 0.8,
                      required_arrival=2.5 * NS)
    tree = segment_tree(net, 500 * UM)
    return tree, dp_result(tree, LIBRARY, COUPLING)


def test_certifier_throughput(benchmark, audited_result):
    _, result = audited_result
    certificate = benchmark(certify_result, result, COUPLING)
    assert certificate.ok, certificate.describe()


def test_oracle_at_site_bound(benchmark):
    inverter = next(b.name for b in LIBRARY if b.inverting)
    small = LIBRARY.restricted(["buf_x1", inverter])
    tree = seeded_tree(0, max_internal=4, with_rats=True)
    sites = sum(1 for n in tree.nodes() if n.is_internal and n.feasible)
    assert sites <= 6
    oracle = benchmark(
        exhaustive_oracle, tree, small, COUPLING, max_sites=6
    )
    assert oracle.enumerated >= 1


@pytest.mark.parametrize("certify", [False, True],
                         ids=["baseline", "certify"])
def test_batch_certify_overhead(benchmark, certify):
    from repro.workloads import WorkloadConfig, population_specs

    workload = WorkloadConfig(nets=12)
    optimizer = BatchOptimizer(
        config=BatchConfig(certify=certify), workload=workload
    )
    specs = population_specs(workload)
    report = benchmark(optimizer.optimize, specs)
    assert report.failure_count == 0
    if certify:
        assert report.certified_count == 12
