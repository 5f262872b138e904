"""Migrate: consolidation moves of the 4-phase track join (Section 2.5).

Holders told to consolidate extract their matching tuples, ship them to
the designated destination, and keep the rest; the moved tuples join
the destination's local fragment at the next barrier
(:func:`repro.exchange.gather.absorb_received`), shrinking the set of
locations the subsequent selective broadcast must reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import MutableSequence

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..joins.local import join_indices
from ..storage.table import LocalPartition
from ..timing.profile import ExecutionProfile
from ..util import group_bounded
from .base import group_by_link, matched_batches

__all__ = ["Migrate", "ShardedMigrate"]


@dataclass
class Migrate:
    """Move each holder's matching tuples to their consolidation target.

    Parameters
    ----------
    category:
        Message class of the migrated tuples.
    width:
        Wire bytes per migrated tuple.
    transfer_step / copy_step:
        Profile attribution of remote moves and (theoretical)
        self-moves; schedules never consolidate a key onto a node it
        already occupies, so ``copy_step`` stays empty in practice.
    """

    category: MessageClass
    width: float
    transfer_step: str
    copy_step: str

    def run(
        self,
        cluster: Cluster,
        profile: ExecutionProfile,
        holders: MutableSequence[LocalPartition],
        keys: np.ndarray,
        nodes: np.ndarray,
        dests: np.ndarray,
    ) -> None:
        """One phase: each instructed holder extracts, keeps, and sends.

        ``keys``/``nodes``/``dests`` are parallel migration-instruction
        arrays: move the tuples of ``keys[i]`` held at ``nodes[i]`` to
        ``dests[i]``.  ``holders`` is mutated in place — each migrating
        node's entry is replaced by its kept remainder; arrivals are
        absorbed later at the consolidation barrier.
        """
        link_keys, edges = group_by_link(nodes, dests, keys, cluster.num_nodes)
        migrating = np.flatnonzero(edges[:, -1] > edges[:, 0]).tolist()

        def migrate_holder(task: int) -> None:
            node = migrating[task]
            local = holders[node]
            rows, batches = matched_batches(local, link_keys, edges[node])
            if batches is None:
                return
            keep = np.ones(local.num_rows, dtype=bool)
            keep[rows] = False
            holders[node] = local.take(np.flatnonzero(keep))
            cluster.network.send_batches(
                node, self.category, batches, self.width,
                profile=profile, step=self.transfer_step, local_step=self.copy_step,
            )

        # Crash recovery must know which node each task simulates: this
        # phase runs one task per *instructed holder*, not per node.
        cluster.run_phase(
            migrate_holder, tasks=len(migrating), profile=profile, task_nodes=migrating
        )


@dataclass
class ShardedMigrate:
    """Split each holder's matching tuples across several destinations.

    The heavy-hitter extension of :class:`Migrate`: where a plain
    migration consolidates a (key, holder)'s tuples at one node, a
    sharded migration deals them round-robin over the key's shard
    destination list, so no single node absorbs a hot key's whole build
    side.  Row order within the holder decides the deal, making the
    split deterministic for every worker count.
    """

    category: MessageClass
    width: float
    transfer_step: str
    copy_step: str

    def run(
        self,
        cluster: Cluster,
        profile: ExecutionProfile,
        holders: MutableSequence[LocalPartition],
        keys: np.ndarray,
        nodes: np.ndarray,
        dest_offsets: np.ndarray,
        dest_nodes: np.ndarray,
    ) -> None:
        """One phase: each instructed holder deals its rows to the shards.

        ``keys``/``nodes`` are parallel instruction arrays; instruction
        ``i`` moves the tuples of ``keys[i]`` held at ``nodes[i]`` to
        the destinations ``dest_nodes[dest_offsets[i]:dest_offsets[i +
        1]]``, one row at a time in cyclic order.  ``holders`` is
        mutated in place like :meth:`Migrate.run`; a destination that is
        the holder itself keeps its deal as a local copy.
        """
        order, bounds = group_bounded(nodes, cluster.num_nodes)
        sharding = np.flatnonzero(np.diff(bounds)).tolist()

        def shard_holder(task: int) -> None:
            node = sharding[task]
            instr_sel = order[bounds[node] : bounds[node + 1]]
            local = holders[node]
            pair_pos, rows = join_indices(keys[instr_sel], local.keys, right_partition=local)
            if len(rows) == 0:
                return
            # join_indices emits ascending left positions, so the matched
            # rows are already grouped by instruction in their relative
            # order: deal each group cyclically over its destination list.
            group_starts = np.flatnonzero(np.r_[True, pair_pos[1:] != pair_pos[:-1]])
            within = np.arange(len(pair_pos)) - np.repeat(
                group_starts, np.diff(np.append(group_starts, len(pair_pos)))
            )
            instr = instr_sel[pair_pos]
            num_dests = (dest_offsets[instr + 1] - dest_offsets[instr]).astype(
                np.int64
            )
            destinations = dest_nodes[dest_offsets[instr] + within % num_dests]
            keep = np.ones(local.num_rows, dtype=bool)
            keep[rows] = False
            batches = local.split_by(destinations, cluster.num_nodes, rows=rows)
            holders[node] = local.take(np.flatnonzero(keep))
            cluster.network.send_batches(
                node, self.category, batches, self.width,
                profile=profile, step=self.transfer_step, local_step=self.copy_step,
            )

        cluster.run_phase(
            shard_holder, tasks=len(sharding), profile=profile, task_nodes=sharding
        )
