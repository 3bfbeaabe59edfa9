"""Micro-benchmarks of the three algorithms and their scaling knobs."""

import pytest

from repro import (
    CouplingModel,
    DriverCell,
    Objective,
    SinkSite,
    default_buffer_library,
    default_technology,
    dp_result,
    insert_buffers_multi_sink,
    insert_buffers_single_sink,
    segment_tree,
    steiner_tree,
    two_pin_net,
)
from repro.core import optimize_delay
from repro.units import FF, MM, NS, UM

TECH = default_technology()
LIBRARY = default_buffer_library()
COUPLING = CouplingModel.estimation_mode(TECH)
DRIVER = DriverCell("drv", 250.0, 30e-12)


def _fan_tree(sinks):
    import numpy as np

    rng = np.random.default_rng(sinks)
    sites = [
        SinkSite(
            f"s{i}",
            (float(rng.uniform(0, 8 * MM)), float(rng.uniform(0, 8 * MM))),
            capacitance=15 * FF,
            noise_margin=0.8,
            required_arrival=3 * NS,
        )
        for i in range(sinks)
    ]
    return steiner_tree(TECH, (0.0, 0.0), sites, driver=DRIVER, name=f"fan{sinks}")


def test_algorithm1_long_line(benchmark):
    """Algorithm 1 is linear time: a 14 mm two-pin net."""
    net = two_pin_net(TECH, 14 * MM, DRIVER, 20 * FF, 0.8)
    solution = benchmark(
        insert_buffers_single_sink, net, LIBRARY, COUPLING
    )
    assert solution.buffer_count >= 3


@pytest.mark.parametrize("sinks", [4, 16, 48])
def test_algorithm2_fanout_scaling(benchmark, sinks):
    """Algorithm 2 on growing Steiner fan-outs (quadratic worst case,
    near-linear in practice since merge forks are rare)."""
    tree = _fan_tree(sinks)
    solution = benchmark(insert_buffers_multi_sink, tree, LIBRARY, COUPLING)
    assert solution.buffer_count >= 1


@pytest.mark.parametrize("segment_um", [1000, 500, 250])
def test_buffopt_segmentation_scaling(benchmark, segment_um):
    """Algorithm 3 runtime vs segmentation granularity (the [1] knob)."""
    net = two_pin_net(TECH, 10 * MM, DRIVER, 20 * FF, 0.8,
                      required_arrival=3 * NS)
    tree = segment_tree(net, segment_um * UM)

    def run():
        result = dp_result(tree, LIBRARY, COUPLING, max_buffers=6)
        return result.select(Objective())

    outcome = benchmark(run)
    assert outcome.buffer_count >= 2


def test_delayopt_multisink(benchmark):
    tree = segment_tree(_fan_tree(16), 500 * UM)
    solution = benchmark(optimize_delay, tree, LIBRARY)
    assert solution.buffer_count >= 1
