"""Track join: distributed joins with minimal network traffic.

A faithful, executable reproduction of Polychroniou, Sen & Ross,
*"Track Join: Distributed Joins with Minimal Network Traffic"*
(SIGMOD 2014).  The package provides:

- a cluster simulator with byte-exact, per-message-class traffic
  accounting (:mod:`repro.cluster`);
- distributed equi-join operators: broadcast join, Grace hash join,
  tracking-aware hash join, Bloom-filtered semi-join variants, and the
  paper's 2-/3-/4-phase track joins (:mod:`repro.joins`,
  :mod:`repro.core`);
- the Section 3 analytic network cost model and query-optimizer hooks
  (:mod:`repro.costmodel`);
- a calibrated timing model reproducing the paper's CPU/network second
  tables (:mod:`repro.timing`);
- workload generators for the synthetic and surrogate real datasets of
  the evaluation (:mod:`repro.workloads`) and one registered experiment
  per paper table/figure (:mod:`repro.experiments`).

Quickstart::

    import numpy as np
    from repro import (
        Cluster, JoinSpec, GraceHashJoin, TrackJoin, Schema, random_uniform,
    )

    cluster = Cluster(num_nodes=4)
    schema = Schema.with_widths(key_bits=32, payload_bits=128)
    keys = np.arange(100_000)
    r = cluster.table_from_assignment("R", schema, keys, random_uniform(len(keys), 4, seed=1))
    s = cluster.table_from_assignment("S", schema, keys, random_uniform(len(keys), 4, seed=2))
    hash_result = GraceHashJoin().run(cluster, r, s)
    track_result = TrackJoin("4TJ").run(cluster, r, s)
    print(hash_result.network_bytes, track_result.network_bytes)
"""

from .cluster import Cluster, MessageClass, Network, TrafficLedger

# ``joins`` before ``core``: the operator registry in ``joins`` imports
# the track join operator, which subclasses ``joins``' base class.
from .joins import (
    BroadcastJoin,
    DistributedJoin,
    GraceHashJoin,
    JoinResult,
    JoinSpec,
)
from .core import (
    TrackJoin,
    generate_schedules,
    migrate_and_broadcast,
    optimal_schedule,
    selective_broadcast_cost,
)
from .encoding import (
    DeltaEncoding,
    DictionaryEncoding,
    Encoding,
    FixedByteEncoding,
    VarByteEncoding,
)
from .errors import FaultExhaustedError, NodeCrashError, ReproError
from .faults import (
    CrashEvent,
    FaultPlan,
    FaultRates,
    FaultStats,
    StragglerEvent,
)
from .parallel import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    resolve_executor,
    set_default_workers,
)
from .storage import (
    Column,
    DistributedTable,
    LocalPartition,
    Schema,
    by_key_hash,
    pattern_nodes,
    random_uniform,
    round_robin,
    shuffled,
)
from .serve import PlanCache, QueryRequest, QueryService, WarmExecutorPool
from .timing import ExecutionProfile, HardwareModel, paper_cluster_2014, scaled_network

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "Network",
    "MessageClass",
    "TrafficLedger",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "resolve_executor",
    "set_default_workers",
    "Schema",
    "Column",
    "DistributedTable",
    "LocalPartition",
    "JoinSpec",
    "JoinResult",
    "DistributedJoin",
    "BroadcastJoin",
    "GraceHashJoin",
    "TrackJoin",
    "Encoding",
    "FixedByteEncoding",
    "VarByteEncoding",
    "DictionaryEncoding",
    "DeltaEncoding",
    "ExecutionProfile",
    "HardwareModel",
    "paper_cluster_2014",
    "scaled_network",
    "selective_broadcast_cost",
    "migrate_and_broadcast",
    "optimal_schedule",
    "generate_schedules",
    "round_robin",
    "random_uniform",
    "by_key_hash",
    "shuffled",
    "pattern_nodes",
    "FaultPlan",
    "FaultRates",
    "FaultStats",
    "CrashEvent",
    "StragglerEvent",
    "NodeCrashError",
    "FaultExhaustedError",
    "ReproError",
    "QueryService",
    "QueryRequest",
    "PlanCache",
    "WarmExecutorPool",
    "__version__",
]
