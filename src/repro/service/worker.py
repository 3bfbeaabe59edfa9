"""The service worker body: one canonical request through the engine.

:func:`execute_request` is the module-level, picklable function the
server supervises — through :class:`~repro.batch.ResilientExecutor`
(fresh process per request: crashes, hangs, and injected ``os._exit``
faults stay contained) or inline for the stdio mode and tests.

It deliberately reuses the batch layer's worker path
(:func:`repro.batch.optimizer._optimize_item` over a deferred
:class:`~repro.workloads.NetSpec`) rather than reimplementing it: the
service answers with *exactly* what a batch run of the same request
would have produced, which is what makes the journal-backed cache and
the chaos harness's bit-consistency check honest.

Faults ride the payload as a :class:`~repro.batch.FaultPlan`, exactly as
in the batch layer, so injected misbehavior fires *inside* the worker,
upstream of all handling.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..batch.faults import FaultPlan
from ..batch.optimizer import BatchConfig, _optimize_item, _WorkerSetup
from ..core.objective import Objective
from ..library.buffers import default_buffer_library
from ..library.cells import default_cell_library
from ..library.technology import default_technology
from ..noise.coupling import CouplingModel
from ..workloads.generator import NetSpec, WorkloadConfig
from .protocol import CanonicalRequest, result_payload


@dataclass(frozen=True)
class WorkPayload:
    """Everything one worker invocation needs, picklable."""

    request: CanonicalRequest
    #: scheduled misbehavior for this request's net, or ``None``.
    faults: Optional[FaultPlan] = None


def batch_config_for(request: CanonicalRequest) -> BatchConfig:
    """The request's engine policy as a :class:`~repro.batch.BatchConfig`.

    ``keep_trees=False``: the service ships assignments over the wire,
    never trees.  A v2 objective block passes through as the batch
    objective; a v1 request's ``mode``/``min_slack`` map through
    :meth:`~repro.core.objective.Objective.legacy`.
    """
    return BatchConfig(
        objective=request.objective
        or Objective.legacy(request.mode, min_slack=request.min_slack),
        max_segment_length=request.max_segment_length,
        max_buffers=request.max_buffers,
        prune=request.prune,
        keep_trees=False,
        net_deadline=request.deadline_seconds,
        net_max_candidates=request.max_candidates,
        certify=request.certify,
        engine=request.engine,
    )


@functools.lru_cache(maxsize=1)
def _shared_setup_parts():
    """Library/technology/physics defaults, built once per process.

    These are the same defaults :class:`~repro.batch.BatchOptimizer`
    falls back to; caching them keeps per-request worker overhead at
    one ``BatchConfig`` construction.
    """
    technology = default_technology()
    workload = WorkloadConfig()
    return (
        default_buffer_library(),
        CouplingModel.estimation_mode(technology),
        workload,
        technology,
        default_cell_library(noise_margin=workload.noise_margin),
    )


def worker_setup(payload: WorkPayload) -> _WorkerSetup:
    library, coupling, workload, technology, cells = _shared_setup_parts()
    return _WorkerSetup(
        library=library,
        coupling=coupling,
        config=batch_config_for(payload.request),
        workload=workload,
        technology=technology,
        cells=cells,
        faults=payload.faults,
    )


def execute_request(
    payload: WorkPayload, attempt: int = 1
) -> Dict[str, Any]:
    """Optimize one request; the supervised map target.

    Returns a journal-ready record: the deterministic ``result`` payload
    (:func:`~repro.service.protocol.result_payload`) plus a ``meta``
    object carrying everything wall-clock- or retry-shaped.  Engine
    failures (infeasible, budget, deadline) come back as structured
    *results*; unexpected exceptions — injected raises included —
    propagate to the supervisor for retry/quarantine.
    """
    request = payload.request
    spec = NetSpec(
        name=request.net_name,
        sink_count=request.sink_count,
        span=request.span,
        seed=request.seed,
    )
    net_result = _optimize_item(worker_setup(payload), spec, attempt=attempt)
    return {
        "result": result_payload(net_result),
        "meta": {
            "seconds": net_result.seconds,
            "attempts": net_result.attempts,
            "error_message": net_result.error,
        },
    }
