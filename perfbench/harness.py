"""Shared measurement pieces: the run record, percentiles, memory, output.

Every workload fills one :class:`Measurement` during its timed loop and
hands the answers it collected to the correctness checks afterwards.
The end-to-end metrics are computed here, the same way for every
workload, so a metric name means the same thing on all of them.
"""

from __future__ import annotations

import contextlib
import math
import resource
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

#: set-up is repeated at least ``SETUP_REPEATS`` times per run, and more
#: (up to ``SETUP_MAX_REPEATS``) until ``SETUP_SECONDS`` have gone into it,
#: so a set-up of a few milliseconds still gets a steady median;
#: ``setup_s`` is the median.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 100

#: the tail percentile keeps at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


@dataclass
class Answer:
    """One solved net as the program reported it, ready to be checked.

    ``tree`` is a callable returning the (segmented) routing tree the
    answer's node names refer to, so the service workload can rebuild
    trees only when the check runs.
    """

    name: str
    tree: Callable[[], Any]
    assignment: Mapping[str, Any]
    slack: float
    noise_feasible: bool
    buffer_count: int
    objective: Any
    power: Optional[float] = None
    power_cap: Optional[float] = None


@dataclass
class Measurement:
    """What one timed loop produced."""

    #: nets or requests attempted, and how many of them failed.
    attempted: int = 0
    failed: int = 0
    #: wall seconds spent inside the measured calls.
    wall: float = 0.0
    #: one latency sample per net or request, in seconds.
    latencies: List[float] = field(default_factory=list)
    #: solved answers not yet checked (see ``checks.settle``).
    answers: List[Answer] = field(default_factory=list)
    #: what the checks kept of every settled answer.
    buffers: List[int] = field(default_factory=list)
    slacks: List[float] = field(default_factory=list)
    noise_clean: List[bool] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    #: peak resident set (MB) of each unit of work (see ``unit_peak_rss``).
    rss_peaks: List[float] = field(default_factory=list)
    #: tamper with the next answer settled (``--plant-bug``).
    plant_bug: bool = False
    #: whether units still add samples (latency, peak RSS, answer
    #: quality); cleared once a workload's fixed pass is done, so that
    #: repeats add throughput only and every run samples the same nets.
    sampling: bool = True
    #: human-readable extras printed before the result line.
    notes: Dict[str, Any] = field(default_factory=dict)


def nearest_rank(sorted_values: List[float], rank: int) -> float:
    """The ``rank``-th smallest value (1-based), clamped to the data."""
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def tail_rank(count: int) -> int:
    """Rank of the highest percentile with at least
    :data:`TAIL_SAMPLES_BEYOND` samples beyond it, never below the median
    (so short runs report their median instead of a low percentile)."""
    return max(math.ceil(count / 2), count - TAIL_SAMPLES_BEYOND)


def peak_rss_mb() -> float:
    """Peak resident set of the largest process so far: this one or any
    worker child it waited for (a forked child's resident set already
    counts the pages it shares with this process)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


@contextlib.contextmanager
def unit_peak_rss(measurement: Measurement):
    """Record this process's peak resident set while the block runs.

    Linux restarts the peak (VmHWM) count when "5" is written to
    ``/proc/self/clear_refs``, so each unit of in-process work gets its
    own peak; their median is steady where one run-long peak would be
    set by whichever single net happened to be largest.
    """
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")
    yield
    if not measurement.sampling:
        return
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                measurement.rss_peaks.append(int(line.split()[1]) / 1024.0)
                return


def end_to_end(
    measurement: Measurement, setup_seconds: List[float]
) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of one untraced, settled run."""
    ordered = sorted(measurement.latencies)
    noise_clean = measurement.noise_clean
    rank = tail_rank(len(ordered))
    measurement.notes["latency_tail"] = {
        "rank": rank,
        "samples": len(ordered),
        "percentile": round(100.0 * rank / len(ordered), 2),
    }
    values = {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "nets_per_s": (measurement.attempted / measurement.wall, "1/s"),
        "latency_p50_ms": (
            1e3 * nearest_rank(ordered, math.ceil(len(ordered) / 2)), "ms"
        ),
        "latency_tail_ms": (1e3 * nearest_rank(ordered, rank), "ms"),
        "buffers_per_net": (statistics.fmean(measurement.buffers), "count"),
        "slack_ps_mean": (statistics.fmean(measurement.slacks) * 1e12, "ps"),
        "noise_clean_share": (
            sum(noise_clean) / len(noise_clean), "share"
        ),
        "peak_rss_mb": (statistics.median(measurement.rss_peaks), "MB"),
    }
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in values.items()
    }
