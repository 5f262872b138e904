"""Distributed joins re-implemented on the MapReduce engine (Section 6).

Two algorithms demonstrate the paper's point that the framework level
and the algorithm level optimize at different granularities:

* :func:`mr_hash_join` — the classic repartition join: both tables
  shuffle by key hash and reducers join their partitions.  Its shuffle
  bytes equal the native Grace hash join's transfers.

* :func:`mr_track_join` — 2-phase track join as two chained jobs.
  Job 1 shuffles map-side-deduplicated keys to scheduling reducers,
  which emit (key, destination) location records routed back to the R
  holders.  Job 2 uses those records as a *custom partitioner* (side
  data steering the shuffle, as real frameworks allow): R tuples ship
  only to tracked S locations while S stays in place.  Its traffic
  matches the native ``TrackJoin("2TJ-R")`` byte for byte, showing
  fine-grained "tracking" is expressible on a MapReduce substrate.
"""

from __future__ import annotations

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..joins.base import JoinSpec
from ..joins.local import join_indices, local_join
from ..storage.table import DistributedTable, LocalPartition
from ..util import segmented_cartesian
from .engine import Channel, MapReduceJob, MapReduceResult

__all__ = ["mr_hash_join", "mr_track_join"]


def _identity_with_destination(destination_of_node: bool = False):
    """Mapper factory: emit input records unchanged."""

    def mapper(node: int, partition: LocalPartition) -> LocalPartition:
        if not destination_of_node:
            return partition
        columns = dict(partition.columns)
        columns["dest"] = np.full(partition.num_rows, node, dtype=np.int64)
        return LocalPartition(keys=partition.keys, columns=columns)

    return mapper


def _normalized(partition: LocalPartition, column_names: tuple[str, ...]) -> LocalPartition:
    """Give zero-row groups the channel's column set (dropping 'dest')."""
    columns = {c: v for c, v in partition.columns.items() if c != "dest"}
    if partition.num_rows == 0 and set(columns) != set(column_names):
        return LocalPartition.empty(column_names)
    return LocalPartition(keys=partition.keys, columns=columns)


def mr_hash_join(
    cluster: Cluster,
    table_r: DistributedTable,
    table_s: DistributedTable,
    spec: JoinSpec | None = None,
) -> MapReduceResult:
    """Repartition (hash) join as a single MapReduce job."""
    spec = spec or JoinSpec()
    width_r = table_r.schema.tuple_width(spec.encoding)
    width_s = table_s.schema.tuple_width(spec.encoding)

    def reducer(node: int, groups: dict[str, LocalPartition]) -> LocalPartition:
        return local_join(
            _normalized(groups["R"], table_r.payload_names),
            _normalized(groups["S"], table_s.payload_names),
            "r.",
            "s.",
        )

    job = MapReduceJob(
        channels=[
            Channel("R", list(table_r.partitions), _identity_with_destination(), width_r,
                    category=MessageClass.R_TUPLES),
            Channel("S", list(table_s.partitions), _identity_with_destination(), width_s,
                    category=MessageClass.S_TUPLES),
        ],
        reducer=reducer,
        hash_seed=spec.hash_seed,
    )
    return job.run(cluster)


def _tracking_job(
    cluster: Cluster,
    table_r: DistributedTable,
    table_s: DistributedTable,
    spec: JoinSpec,
) -> MapReduceResult:
    """Job 1: track key locations, emit (key, S-dest) records to R holders."""
    key_width = table_r.schema.key_width(spec.encoding)

    def distinct_keys_mapper(node: int, partition: LocalPartition) -> LocalPartition:
        keys = np.unique(partition.keys)
        return LocalPartition(
            keys=keys, columns={"holder": np.full(len(keys), node, dtype=np.int64)}
        )

    def scheduling_reducer(node: int, groups: dict[str, LocalPartition]) -> LocalPartition:
        r_entries = groups["R-keys"]
        s_entries = groups["S-keys"]
        if r_entries.num_rows == 0 or s_entries.num_rows == 0:
            return LocalPartition.empty(("dest", "route_to"))
        # Per key, pair every R holder with every S holder.
        all_keys = np.union1d(r_entries.keys, s_entries.keys)
        seg_r = np.searchsorted(all_keys, r_entries.keys)
        seg_s = np.searchsorted(all_keys, s_entries.keys)
        ia, ib = segmented_cartesian(seg_r, seg_s)
        return LocalPartition(
            keys=r_entries.keys[ia],
            columns={
                "dest": s_entries.columns["holder"][ib],
                "route_to": r_entries.columns["holder"][ia],
            },
        )

    def location_router(node: int, outputs: LocalPartition):
        return np.arange(outputs.num_rows, dtype=np.int64), outputs.columns["route_to"]

    job = MapReduceJob(
        channels=[
            Channel(
                "R-keys",
                list(table_r.partitions),
                distinct_keys_mapper,
                key_width,
                category=MessageClass.KEYS_COUNTS,
            ),
            Channel(
                "S-keys",
                list(table_s.partitions),
                distinct_keys_mapper,
                key_width,
                category=MessageClass.KEYS_COUNTS,
            ),
        ],
        reducer=scheduling_reducer,
        output_router=location_router,
        output_width=key_width + spec.location_width,
        output_category=MessageClass.KEYS_NODES,
        hash_seed=spec.hash_seed,
    )
    return job.run(cluster)


def mr_track_join(
    cluster: Cluster,
    table_r: DistributedTable,
    table_s: DistributedTable,
    spec: JoinSpec | None = None,
) -> tuple[MapReduceResult, MapReduceResult]:
    """2-phase track join (R -> S) as two chained MapReduce jobs.

    Returns the results of both jobs; the second holds the joined
    output and the combined traffic is the sum of both ledgers.
    """
    spec = spec or JoinSpec()
    tracking = _tracking_job(cluster, table_r, table_s, spec)
    locations = tracking.outputs  # per R-holder: (key, dest) records
    width_r = table_r.schema.tuple_width(spec.encoding)
    width_s = table_s.schema.tuple_width(spec.encoding)

    def broadcast_mapper(node: int, partition: LocalPartition) -> LocalPartition:
        """Emit one copy of each matching R tuple per tracked S location."""
        pairs = locations[node]
        if pairs.num_rows == 0 or partition.num_rows == 0:
            return LocalPartition(
                keys=np.empty(0, dtype=np.int64),
                columns={
                    **{c: np.empty(0, dtype=v.dtype) for c, v in partition.columns.items()},
                    "dest": np.empty(0, dtype=np.int64),
                },
            )
        pair_pos, rows = join_indices(pairs.keys, partition.keys)
        expanded = partition.take(rows)
        columns = dict(expanded.columns)
        columns["dest"] = pairs.columns["dest"][pair_pos]
        return LocalPartition(keys=expanded.keys, columns=columns)

    def join_reducer(node: int, groups: dict[str, LocalPartition]) -> LocalPartition:
        received_r = _normalized(groups["R-tuples"], table_r.payload_names)
        local_s = _normalized(groups["S-tuples"], table_s.payload_names)
        return local_join(received_r, local_s, "r.", "s.")

    job = MapReduceJob(
        channels=[
            Channel(
                "R-tuples",
                list(table_r.partitions),
                broadcast_mapper,
                width_r,
                partition_column="dest",
                category=MessageClass.R_TUPLES,
            ),
            Channel(
                "S-tuples",
                list(table_s.partitions),
                _identity_with_destination(destination_of_node=True),
                width_s,
                partition_column="dest",
                category=MessageClass.S_TUPLES,
            ),
        ],
        reducer=join_reducer,
        hash_seed=spec.hash_seed,
    )
    joined = job.run(cluster)
    return tracking, joined
