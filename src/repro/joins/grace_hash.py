"""Grace hash join over the network: the paper's baseline.

Both tables are hash-partitioned on the join key across the ``N`` nodes
(the Grace/Gamma scheme [9, 17] applied to a network instead of disks).
Each tuple crosses the network unless its key happens to hash to the
node it already lives on (probability ``1/N``), so the algorithm moves
almost the full size of both tables — the inefficiency track join
attacks.

The step structure mirrors Table 3 of the paper: hash-partition R and S,
transfer the fragments, sort the received runs, and merge-join locally.
Each step runs as one cluster phase (:meth:`Cluster.run_phase`), so the
per-node work parallelizes across the cluster's workers while traffic
accounting stays byte-identical to the serial run.
"""

from __future__ import annotations

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..exchange.shuffle import Shuffle
from ..storage.table import DistributedTable, LocalPartition
from ..timing.profile import ExecutionProfile
from .base import DistributedJoin, JoinSpec
from .local import JoinCount, local_join

__all__ = ["GraceHashJoin"]


class GraceHashJoin(DistributedJoin):
    """Distributed hash join (hash-partition both inputs, join locally)."""

    name = "HJ"

    def _execute(
        self,
        cluster: Cluster,
        table_r: DistributedTable,
        table_s: DistributedTable,
        spec: JoinSpec,
        profile: ExecutionProfile,
    ) -> list[LocalPartition] | list[JoinCount]:
        received_r = self._repartition(
            cluster, table_r, spec, profile, MessageClass.R_TUPLES, "R tuples"
        )
        received_s = self._repartition(
            cluster, table_s, spec, profile, MessageClass.S_TUPLES, "S tuples"
        )

        width_r = table_r.schema.tuple_width(spec.encoding)
        width_s = table_s.schema.tuple_width(spec.encoding)
        out_width = width_r + table_s.schema.payload_width(spec.encoding)

        def join_node(node: int) -> LocalPartition | JoinCount:
            part_r = received_r[node]
            part_s = received_s[node]
            profile.add_cpu_at(
                "Sort received R tuples", "sort", node, part_r.num_rows * width_r
            )
            profile.add_cpu_at(
                "Sort received S tuples", "sort", node, part_s.num_rows * width_s
            )
            joined = local_join(part_r, part_s, "r.", "s.", materialize=spec.materialize)
            profile.add_cpu_at(
                "Final merge-join",
                "merge",
                node,
                part_r.num_rows * width_r
                + part_s.num_rows * width_s
                + joined.num_rows * out_width,
            )
            return joined

        return cluster.run_phase(join_node, profile=profile)

    def _repartition(
        self,
        cluster: Cluster,
        table: DistributedTable,
        spec: JoinSpec,
        profile: ExecutionProfile,
        category: MessageClass,
        step: str,
    ) -> list[LocalPartition]:
        """Hash-partition one table; returns the received fragments per node
        (their keys alone when the join only counts)."""
        width = table.schema.tuple_width(spec.encoding)
        return Shuffle(category, width, step, hash_seed=spec.hash_seed).run(
            cluster, profile, table.partitions, table.payload_names, not spec.materialize
        )
