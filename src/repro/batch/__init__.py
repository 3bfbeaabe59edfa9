"""Batch optimization: fleets of nets through the DP engine.

The paper optimizes one net at a time; real deployments (Albrecht et
al.'s buffered global routing) face thousands of nets per design.  This
package scales the engine out — and keeps it alive when individual nets
misbehave:

* :class:`BatchOptimizer` maps a pluggable executor over net specs or
  built trees; :class:`BatchReport` aggregates solutions, throughput,
  pruning telemetry, and failure taxonomies.
* Per-net guards (:class:`~repro.core.budget.RunBudget` deadline /
  candidate budget, configured on :class:`BatchConfig`) turn
  pathological nets into structured :class:`FailureRecord`\\ s instead of
  stalled fleets.
* :class:`ResilientExecutor` + :class:`RetryPolicy` survive worker
  crashes, hangs, and unexpected exceptions with bounded retries,
  quarantine, and optional fallback re-execution.
* ``optimize(..., checkpoint=path)`` journals finished nets to JSONL so
  an interrupted run resumes (``resume=True``) without recomputation;
  ``shards=N`` splits the journal into independent shard files
  (:class:`ShardedCheckpoint`) and ``stream_report=True`` folds results
  into a constant-memory :class:`ReportFold` instead of retaining them
  — the 10⁵–10⁶-net posture.
* :mod:`repro.batch.faults` injects deterministic raise/hang/exit
  faults so every recovery path stays testable.
"""

from ..journal import TORN_TAIL_COUNTER, JournalReader, record_torn_tail
from .checkpoint import (
    CheckpointJournal,
    load_checkpoint,
    read_checkpoint_header,
    result_from_json,
    result_to_json,
)
from .executors import (
    AsyncExecutor,
    ChunkedExecutor,
    MultiprocessExecutor,
    SerialExecutor,
    default_worker_count,
    make_executor,
)
from .report import CANDIDATE_BUCKETS, ReportFold
from .sharding import (
    SHARDS_RECOVERED_COUNTER,
    ShardRecovery,
    ShardedCheckpoint,
    load_sharded_checkpoint,
    merge_sharded_checkpoint,
    net_shard,
)
from .faults import FAULT_KINDS, FaultPlan, FaultSpec, InjectedFault
from .optimizer import (
    BatchConfig,
    BatchItem,
    BatchOptimizer,
    BatchReport,
    FAILURE_PHASES,
    FailureRecord,
    NetResult,
    failure_net_result,
    item_identity,
    optimize_net,
)
from .resilience import (
    ResilientExecutor,
    RetryPolicy,
    WorkItemFailure,
)

__all__ = [
    "AsyncExecutor",
    "BatchConfig",
    "BatchItem",
    "BatchOptimizer",
    "BatchReport",
    "CANDIDATE_BUCKETS",
    "CheckpointJournal",
    "ChunkedExecutor",
    "FAILURE_PHASES",
    "FAULT_KINDS",
    "FailureRecord",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "JournalReader",
    "MultiprocessExecutor",
    "NetResult",
    "ReportFold",
    "ResilientExecutor",
    "RetryPolicy",
    "SHARDS_RECOVERED_COUNTER",
    "SerialExecutor",
    "ShardRecovery",
    "ShardedCheckpoint",
    "TORN_TAIL_COUNTER",
    "WorkItemFailure",
    "default_worker_count",
    "failure_net_result",
    "item_identity",
    "load_checkpoint",
    "load_sharded_checkpoint",
    "make_executor",
    "merge_sharded_checkpoint",
    "net_shard",
    "optimize_net",
    "read_checkpoint_header",
    "record_torn_tail",
    "result_from_json",
    "result_to_json",
]
