"""Distributed group-by aggregation.

Every expensive query of the paper's workloads ends with an
aggregation.  The operator here is the standard two-phase scheme: each
node pre-aggregates its local fragment by group key, the partial
aggregates are hash-partitioned on the group key, and the receiving
nodes merge partials into finals.  Pre-aggregation makes the exchanged
volume proportional to per-node distinct groups, not input rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass, TrafficLedger
from ..errors import ReproError
from ..storage.schema import Column, Schema
from ..storage.table import DistributedTable, LocalPartition
from ..timing.profile import ExecutionProfile
from ..util import hash_partition, segment_boundaries

__all__ = ["AggregateSpec", "AggregationResult", "run_aggregation"]

#: Supported aggregate functions and their (mergeable) numpy reducers.
_REDUCERS = {
    "sum": np.add,
    "min": np.minimum,
    "max": np.maximum,
    "count": np.add,  # counts merge by summing partial counts
}


@dataclass(frozen=True)
class AggregateSpec:
    """One output aggregate: ``function(column) AS name``."""

    name: str
    function: str
    column: str

    def __post_init__(self) -> None:
        if self.function not in _REDUCERS:
            raise ReproError(
                f"unknown aggregate {self.function!r}; use {sorted(_REDUCERS)}"
            )


@dataclass
class AggregationResult:
    """Output of a distributed aggregation."""

    table: DistributedTable
    traffic: TrafficLedger
    profile: ExecutionProfile

    @property
    def network_bytes(self) -> float:
        """Bytes the aggregation exchanged."""
        return self.traffic.total_bytes


def _local_partials(
    partition: LocalPartition, specs: tuple[AggregateSpec, ...]
) -> LocalPartition:
    """Pre-aggregate one fragment by its key column."""
    if partition.num_rows == 0:
        return LocalPartition(
            keys=np.empty(0, dtype=np.int64),
            columns={s.name: np.empty(0, dtype=np.int64) for s in specs},
        )
    order = np.argsort(partition.keys, kind="stable")
    sorted_keys = partition.keys[order]
    starts = segment_boundaries(sorted_keys)
    columns: dict[str, np.ndarray] = {}
    for spec in specs:
        if spec.function == "count":
            values = np.ones(partition.num_rows, dtype=np.int64)
        else:
            if spec.column not in partition.columns:
                raise ReproError(
                    f"aggregate references unknown column {spec.column!r}; "
                    f"partition has {sorted(partition.columns)}"
                )
            values = partition.columns[spec.column][order]
        reducer = _REDUCERS[spec.function]
        columns[spec.name] = reducer.reduceat(values, starts)
    return LocalPartition(keys=sorted_keys[starts], columns=columns)


def _merge_partials(
    parts: list[LocalPartition], specs: tuple[AggregateSpec, ...]
) -> LocalPartition:
    """Merge received partial aggregates into finals."""
    merged = LocalPartition.concat(parts)
    if merged.num_rows == 0:
        return merged
    order = np.argsort(merged.keys, kind="stable")
    sorted_keys = merged.keys[order]
    starts = segment_boundaries(sorted_keys)
    columns = {
        spec.name: _REDUCERS[spec.function].reduceat(
            merged.columns[spec.name][order], starts
        )
        for spec in specs
    }
    return LocalPartition(keys=sorted_keys[starts], columns=columns)


def run_aggregation(
    cluster: Cluster,
    table: DistributedTable,
    specs: tuple[AggregateSpec, ...] | list[AggregateSpec],
    spec,
) -> AggregationResult:
    """Aggregate ``table`` by its key column across the cluster.

    Parameters
    ----------
    specs:
        The aggregates to compute; the group key is the table's key.
    spec:
        A :class:`~repro.joins.base.JoinSpec` supplying encoding and
        hash seed (aggregate values are accounted at 8 bytes each).
    """
    specs = tuple(specs)
    if not specs:
        raise ReproError("aggregation needs at least one AggregateSpec")
    cluster.check_table(table)
    cluster.reset()
    profile = ExecutionProfile(cluster.num_nodes)
    key_width = table.schema.key_width(spec.encoding)
    value_width = 8.0  # partial aggregates travel as 64-bit values
    partial_width = key_width + value_width * len(specs)

    def pre_aggregate(node: int) -> None:
        partition = table.partitions[node]
        partials = _local_partials(partition, specs)
        profile.add_cpu_at(
            "Pre-aggregate local groups",
            "aggregate",
            node,
            partition.num_rows * (key_width + value_width),
        )
        if partials.num_rows == 0:
            return
        destinations = hash_partition(partials.keys, cluster.num_nodes, spec.hash_seed)
        cluster.network.send_batches(
            node, MessageClass.AGGREGATES,
            partials.split_by(destinations, cluster.num_nodes), partial_width,
            profile=profile, step="Transfer partial aggregates",
            local_step="Local copy partial aggregates",
        )

    def merge(node: int) -> LocalPartition:
        received = [m.payload for m in cluster.network.deliver(node)]
        merged = _merge_partials(received, specs) if received else LocalPartition(
            keys=np.empty(0, dtype=np.int64),
            columns={s.name: np.empty(0, dtype=np.int64) for s in specs},
        )
        profile.add_cpu_at(
            "Merge partial aggregates", "merge", node, merged.num_rows * partial_width
        )
        return merged

    cluster.run_phase(pre_aggregate, profile=profile)
    partitions = cluster.run_phase(merge, profile=profile)

    out_schema = Schema(
        key_columns=table.schema.key_columns,
        payload_columns=tuple(Column(s.name, bits=64) for s in specs),
    )
    out_table = DistributedTable(f"agg({table.name})", out_schema, partitions)
    return AggregationResult(
        table=out_table,
        traffic=cluster.network.reset_ledger(),
        profile=profile,
    )
