"""Semi-join filtering: Bloom-filtered variants of any distributed join.

Section 3.3 analyzes joins coupled with selective predicates: every node
builds a Bloom filter over its qualifying local keys, the filters are
broadcast (the ``(tR*sR + tS*sS) * N * wbf`` term of the paper's cost
formulas), and each node prunes local tuples that cannot match before
the inner join runs.  False positives survive filtering and are only
eliminated by the join itself — with hash join they cross the network in
vain, whereas track join discards them during tracking.

:class:`SemiJoinFilteredJoin` wraps an arbitrary inner
:class:`~repro.joins.base.DistributedJoin`, so both filtered hash join
and filtered track join of the paper's comparison are expressible.
"""

from __future__ import annotations

import numpy as np

from ..bloom.filter import BloomFilter
from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..exchange.broadcast import replicate_size
from ..exchange.gather import flush
from ..storage.table import DistributedTable, LocalPartition
from ..timing.profile import ExecutionProfile
from .base import DistributedJoin, JoinSpec
from .local import JoinCount

__all__ = ["SemiJoinFilteredJoin"]


class SemiJoinFilteredJoin(DistributedJoin):
    """Two-way Bloom semi-join reduction around an inner join.

    Parameters
    ----------
    inner:
        The join executed on the filtered inputs.
    false_positive_rate:
        Target error rate the per-node filters are sized for.
    """

    def __init__(self, inner: DistributedJoin, false_positive_rate: float = 0.01):
        self.inner = inner
        self.false_positive_rate = false_positive_rate
        self.name = f"BF+{inner.name}"

    def _execute(
        self,
        cluster: Cluster,
        table_r: DistributedTable,
        table_s: DistributedTable,
        spec: JoinSpec,
        profile: ExecutionProfile,
    ) -> list[LocalPartition] | list[JoinCount]:
        filter_r = self._broadcast_filters(cluster, table_r, profile, "R")
        filter_s = self._broadcast_filters(cluster, table_s, profile, "S")

        filtered_r = self._filtered(cluster, table_r, filter_s, spec, profile, "R")
        filtered_s = self._filtered(cluster, table_s, filter_r, spec, profile, "S")
        return self.inner._execute(cluster, filtered_r, filtered_s, spec, profile)

    def _broadcast_filters(
        self,
        cluster: Cluster,
        table: DistributedTable,
        profile: ExecutionProfile,
        side: str,
    ) -> list[BloomFilter]:
        """Build and broadcast per-node filters, one phase task per node;
        receivers keep them separate and probe all of them (a union of
        filters each sized for one fragment would saturate)."""

        def build_and_broadcast(node: int) -> BloomFilter:
            partition = table.partitions[node]
            bloom = BloomFilter.for_capacity(
                max(1, partition.num_rows), self.false_positive_rate
            )
            bloom.add(partition.keys)
            profile.add_cpu_at(
                f"Build {side} filter", "aggregate", node, partition.num_rows * 8.0
            )
            replicate_size(
                cluster, profile, MessageClass.FILTER, node, bloom.wire_bytes,
                f"Broadcast {side} filters",
            )
            return bloom

        filters = cluster.run_phase(build_and_broadcast, profile=profile)
        flush(cluster)
        return filters

    def _filtered(
        self,
        cluster: Cluster,
        table: DistributedTable,
        other_filters: list[BloomFilter],
        spec: JoinSpec,
        profile: ExecutionProfile,
        side: str,
    ) -> DistributedTable:
        """Prune local tuples whose keys every remote filter rejects."""
        partitions = []
        for node, partition in enumerate(table.partitions):
            keep = np.zeros(partition.num_rows, dtype=bool)
            for bloom in other_filters:
                keep |= bloom.contains(partition.keys)
            profile.add_cpu_at(
                f"Probe filters on {side}",
                "aggregate",
                node,
                partition.num_rows * 8.0 * len(other_filters),
            )
            partitions.append(partition.take(keep))
        return DistributedTable(table.name, table.schema, partitions)
