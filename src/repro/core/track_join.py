"""The track join operator: every 2-, 3- and 4-phase variant.

All variants share the same skeleton, faithful to Section 2:

1. **Tracking** — project both inputs to their join keys, deduplicate
   locally, and ship (key [, count]) entries to each key's scheduling
   node (:mod:`repro.core.tracking`).
2. **Scheduling** — the scheduling nodes generate a transfer plan per
   distinct key (:mod:`repro.core.schedule`): a fixed selective
   broadcast direction (2-phase), the cheaper direction per key
   (3-phase), or the cheaper *optimized* direction with migrations
   (4-phase).
3. **Migration** (4-phase only) — nodes told to consolidate move their
   matching tuples of the broadcast-target side to the designated
   destination.
4. **Selective broadcast** — scheduling nodes send (key, destination)
   location messages to the broadcast-side holders, which ship their
   matching tuples only to nodes with matches; each destination joins
   the received tuples against its (post-migration) local fragment.

The variants differ only in the tracking payload, the direction rule,
whether migration runs, and how destinations are picked; :data:`VARIANTS`
fixes those four per registry name.

The executor moves real numpy-backed tuple batches through the
simulated network, so output correctness and byte-exact traffic both
fall out of the same run.
"""

from __future__ import annotations

from itertools import pairwise
from typing import NamedTuple

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..errors import ValidationError
from ..exchange.base import group_by_link
from ..exchange.gather import absorb_received
from ..exchange.locations import LocationExchange
from ..exchange.migrate import Migrate, ShardedMigrate
from ..exchange.selective import SelectiveBroadcast
from ..joins.base import DistributedJoin, JoinSpec
from ..joins.local import JoinCount, local_join
from ..parallel.chunks import chunk_bounds, kernel_chunk_rows, run_chunks
from ..storage.table import DistributedTable, LocalPartition
from ..timing.profile import ExecutionProfile
from ..util import segmented_cartesian
from .balance import balanced_schedules
from .schedule import ScheduleSet, generate_schedules
from .skew import sharded_schedules
from .tracking import run_tracking_phase

__all__ = ["TrackJoin", "VARIANTS"]


class Variant(NamedTuple):
    """What one track join variant fixes (Section 2)."""

    #: Tracking carries per-node match counts (3/4-phase), not bare keys.
    with_counts: bool
    #: "RS" or "SR" pins every key to one broadcast direction (2-phase);
    #: ``None`` picks the cheaper direction per key.
    direction: str | None
    #: The migration phase runs (4-phase).
    migrate: bool
    #: Destination rule: "optimal" (Theorem 1's consolidation node),
    #: "balanced" (least-loaded survivor, :mod:`repro.core.balance`) or
    #: "sharded" (heavy hitters dealt over several nodes,
    #: :mod:`repro.core.skew`).
    destinations: str


VARIANTS: dict[str, Variant] = {
    "2TJ-R": Variant(False, "RS", False, "optimal"),
    "2TJ-S": Variant(False, "SR", False, "optimal"),
    "3TJ": Variant(True, None, False, "optimal"),
    "4TJ": Variant(True, None, True, "optimal"),
    "4TJ-bal": Variant(True, None, True, "balanced"),
    "4TJ-shard": Variant(True, None, True, "sharded"),
}


class TrackJoin(DistributedJoin):
    """Track join, one of the :data:`VARIANTS` by registry name.

    ``2TJ-R``/``2TJ-S`` track bare key locations and selectively
    broadcast R to S locations (or S to R): the direction is a query
    optimizer decision taken before execution, like the inner/outer
    distinction of hash join.  ``3TJ`` tracks per-node match counts
    and picks the cheaper direction per key.  ``4TJ`` adds migrations
    that consolidate a key's broadcast-target tuples whenever that
    lowers traffic, reaching the minimum payload transfers of an
    early-materialized join (Theorems 1-2).  ``4TJ-bal`` and
    ``4TJ-shard`` are 4TJ with load-aware destinations (Section 5).
    """

    def __init__(self, variant: str):
        if variant not in VARIANTS:
            raise ValidationError(
                f"unknown track join variant {variant!r}; valid: {list(VARIANTS)}"
            )
        self.name = variant
        self.variant = VARIANTS[variant]

    def _execute(
        self,
        cluster: Cluster,
        table_r: DistributedTable,
        table_s: DistributedTable,
        spec: JoinSpec,
        profile: ExecutionProfile,
    ) -> list[LocalPartition] | list[JoinCount]:
        variant = self.variant
        tracking = run_tracking_phase(
            cluster, table_r, table_s, spec, profile, with_counts=variant.with_counts
        )
        key_width = table_r.schema.key_width(spec.encoding)
        if tracking.num_entries:
            # Schedule generation happens at the T nodes; its work is
            # linear in the number of tracked (key, node) entries.
            entry_footprint = key_width + spec.location_width + spec.count_width_r
            if float(entry_footprint).is_integer():
                # count x width: exact for integer widths, and avoids
                # both the per-entry t-node gather and the constant
                # weights array.
                per_tnode = (
                    np.bincount(
                        tracking.t_nodes,
                        weights=tracking.entries_per_key.astype(np.float64),
                        minlength=cluster.num_nodes,
                    )
                    * entry_footprint
                )
            else:
                per_tnode = np.bincount(
                    tracking.t_nodes[tracking.seg],
                    weights=np.full(tracking.num_entries, entry_footprint),
                    minlength=cluster.num_nodes,
                )
            profile.add_cpu(
                "Generate schedules and partition by node", "schedule", per_tnode
            )
        # The paper's scheduling pseudocode treats M as the size of one
        # whole location message ("logically seen as key and node pairs,
        # have size equal to M"), so schedules are generated with the
        # full wire width of a (key, node) pair — keeping migration
        # decisions consistent with the bytes actually sent.
        location_width = key_width + spec.location_width
        if variant.destinations == "balanced":
            schedules = balanced_schedules(tracking, location_width, cluster.num_nodes)
        elif variant.destinations == "sharded":
            schedules = sharded_schedules(tracking, location_width, cluster.num_nodes)
        else:
            schedules = generate_schedules(
                tracking,
                location_width=location_width,
                allow_migration=variant.migrate,
                forced_direction=variant.direction,
            )
        return _execute_schedules(cluster, table_r, table_s, spec, profile, schedules)


# ---------------------------------------------------------------------------
# Schedule execution
# ---------------------------------------------------------------------------


#: Most keys per block of the pair expansion, which bounds a block's
#: temporaries (some eighty bytes per key) to a few MiB.
_PAIR_BLOCK = 1 << 15


def _broadcast_pairs(sched: ScheduleSet) -> list[tuple[np.ndarray, ...]]:
    """Location pairs of the plain selective broadcasts, both directions.

    Per direction (R → S, then S → R) returns ``(pair_src, pair_dst,
    pair_key, pair_t)``: every broadcast-side holder of a key paired
    with every surviving (non-migrating) target-side holder, plus the
    key and its scheduling node; node ids keep the tracking table's
    dtype.  Sharded keys are left out; they broadcast to their shard
    destinations instead.

    Pairs are built per key-range block on the kernel pool and the
    blocks concatenate in key order, which is the order one pass over
    the whole table produces; block bounds depend on the key count and
    the kernel chunk rows only.  The blocks' columns are as narrow as
    the outputs', so the concatenation costs the pairs' 11 bytes (with
    int8 node ids) once more; sizing the outputs first by counting every
    key's pairs took longer than the expansion itself.
    """
    tracking = sched.tracking
    starts, counts = tracking.key_starts, tracking.entries_per_key
    migrates = bool(sched.migrate.any())
    key_rs = sched.direction_rs
    key_sr = ~key_rs
    if sched.has_shards:
        key_rs = key_rs & ~sched.sharded
        key_sr = key_sr & ~sched.sharded

    def expand(bounds: tuple[int, int]):
        klo, khi = bounds
        elo = int(starts[klo])
        entries = slice(elo, elo + int(counts[klo:khi].sum()))
        seg = np.repeat(np.arange(khi - klo), counts[klo:khi])
        nodes, keys = tracking.nodes[entries], tracking.keys[entries]
        t_nodes = tracking.t_nodes[klo:khi]
        has_r = tracking.count_r[entries] > 0
        has_s = tracking.count_s[entries] > 0
        pairs = []
        for key_mask, has_b, has_t in ((key_rs, has_r, has_s), (key_sr, has_s, has_r)):
            in_dir = key_mask[klo:khi][seg]
            b_idx = np.flatnonzero(in_dir & has_b)
            in_dir &= has_t
            if migrates:
                in_dir &= ~sched.migrate[entries]
            d_idx = np.flatnonzero(in_dir)
            seg_b = seg[b_idx]
            ia, ib = segmented_cartesian(seg_b, seg[d_idx])
            # Gather per holder first: a key with many holders makes far
            # more pairs than holders.
            pairs.append(
                (nodes[b_idx][ia], nodes[d_idx][ib], keys[b_idx][ia], t_nodes[seg_b][ia])
            )
        return pairs

    edges = chunk_bounds(tracking.num_keys, min(_PAIR_BLOCK, kernel_chunk_rows()))
    blocks = run_chunks(expand, pairwise(edges.tolist()))
    if len(blocks) == 1:
        return blocks[0]
    return [
        tuple(np.concatenate(column) for column in zip(*(block[d] for block in blocks)))
        for d in range(2)
    ]


def _execute_schedules(
    cluster: Cluster,
    table_r: DistributedTable,
    table_s: DistributedTable,
    spec: JoinSpec,
    profile: ExecutionProfile,
    sched: ScheduleSet,
) -> list[LocalPartition] | list[JoinCount]:
    """Run migrations, selective broadcasts, and final local joins."""
    num_nodes = cluster.num_nodes
    tracking = sched.tracking
    key_width = table_r.schema.key_width(spec.encoding)
    widths = {
        "R": table_r.schema.tuple_width(spec.encoding),
        "S": table_s.schema.tuple_width(spec.encoding),
    }
    categories = {"R": MessageClass.R_TUPLES, "S": MessageClass.S_TUPLES}
    work: dict[str, list[LocalPartition]] = {
        "R": list(table_r.partitions),
        "S": list(table_s.partitions),
    }
    out_names = tuple("r." + n for n in table_r.payload_names) + tuple(
        "s." + n for n in table_s.payload_names
    )
    out_width = widths["R"] + table_s.schema.payload_width(spec.encoding)

    if tracking.num_entries == 0:
        return [LocalPartition.empty(out_names) for _ in range(num_nodes)]

    # ---- Phase A: migrations (4-phase only; sched.migrate is all-False
    # otherwise).  For RS keys the S side consolidates, for SR keys R.
    # Sharded keys consolidate separately: every target-side holder
    # deals its rows across the key's shard destinations (their
    # ``sched.migrate`` bits are clear, so the plain migration pass
    # never touches them).
    mig_idx = np.flatnonzero(sched.migrate)
    if len(mig_idx) or sched.has_shards:
        seg = tracking.seg
        mig_rs = sched.direction_rs[seg[mig_idx]]
        for side, idx in (("S", mig_idx[mig_rs]), ("R", mig_idx[~mig_rs])):
            _run_migrations(
                cluster, spec, profile, tracking, sched, side, idx,
                work, widths, key_width,
            )
        if sched.has_shards:
            sh_entry = sched.sharded[seg]
            entry_dir_rs = sched.direction_rs[seg]
            for side, entry_mask in (
                ("S", sh_entry & entry_dir_rs & (tracking.count_s > 0)),
                ("R", sh_entry & ~entry_dir_rs & (tracking.count_r > 0)),
            ):
                _run_shard_migrations(
                    cluster, spec, profile, tracking, sched, side,
                    np.flatnonzero(entry_mask), work, widths, key_width,
                )
    # Consolidation barrier: moved tuples join their destination's local
    # fragment before the selective broadcasts run against it.
    absorb_received(
        cluster,
        {MessageClass.R_TUPLES: work["R"], MessageClass.S_TUPLES: work["S"]},
    )

    # ---- Phase B: location messages + selective broadcasts.  Each
    # direction's location messages are a phase of their own, sent from
    # the scheduling nodes' tasks.
    pairs = _broadcast_pairs(sched)
    for b_side, t_side in (("R", "S"), ("S", "R")):
        pair_src, pair_dst, pair_key, pair_t = pairs.pop(0)
        if sched.has_shards:
            # Each broadcast-side holder of a sharded key replicates
            # its tuples to *every* shard, so each of the dealt
            # target rows meets each matching broadcast row exactly
            # once.
            count_b = tracking.count_r if b_side == "R" else tracking.count_s
            key_mask = sched.sharded & (sched.direction_rs == (b_side == "R"))
            sb_idx = np.flatnonzero(key_mask[tracking.seg] & (count_b > 0))
            if len(sb_idx):
                sb_seg = tracking.seg[sb_idx]
                off = sched.shard_offsets
                counts = (off[sb_seg + 1] - off[sb_seg]).astype(np.int64)
                rep = np.repeat(np.arange(len(sb_idx)), counts)
                within = np.arange(int(counts.sum())) - np.repeat(
                    np.cumsum(counts) - counts, counts
                )
                dests = sched.shard_dests[np.repeat(off[sb_seg], counts) + within]
                pair_src = np.concatenate([pair_src, tracking.nodes[sb_idx][rep]])
                pair_dst = np.concatenate([pair_dst, dests])
                pair_key = np.concatenate([pair_key, tracking.keys[sb_idx][rep]])
                pair_t = np.concatenate([pair_t, tracking.t_nodes[sb_seg][rep]])
        if len(pair_src) == 0:
            continue
        _locations(spec, key_width, f"Tran. {b_side} → {t_side} keys, nodes").run(
            cluster, profile, pair_t, pair_src, pair_dst
        )
        link_keys, edges = group_by_link(pair_src, pair_dst, pair_key, num_nodes)
        # The broadcast reads only the grouped keys: drop the pairs.
        del pair_src, pair_dst, pair_key, pair_t
        SelectiveBroadcast(
            category=categories[b_side],
            width=widths[b_side],
            match_width=key_width + spec.location_width,
            transfer_step=f"Transfer {b_side} → {t_side} tuples",
            copy_step=f"Local copy {b_side} → {t_side} tuples",
            translate_step=(
                f"Merge-join {b_side} → {t_side} keys, nodes ⇒ payloads "
                "and partition by node"
            ),
        ).run(cluster, profile, work[b_side], link_keys, edges)
        del link_keys

    # ---- Phase C: final local joins at every destination.  Each
    # direction joins the tuples received from the broadcast side with
    # the node's resident (post-migration) fragment of the other side.
    def join_node(node: int) -> LocalPartition | JoinCount:
        received: dict[str, list[LocalPartition]] = {"R": [], "S": []}
        for msg in cluster.network.deliver(node):
            if msg.category is MessageClass.R_TUPLES:
                received["R"].append(msg.payload)
            elif msg.category is MessageClass.S_TUPLES:
                received["S"].append(msg.payload)
        parts: list[LocalPartition | JoinCount] = []
        for b_side, t_side in (("R", "S"), ("S", "R")):
            if not received[b_side]:
                continue
            # A count probes keys only; the payload columns stay where
            # they arrived.
            batch = LocalPartition.concat(received[b_side], not spec.materialize)
            resident = work[t_side][node]
            profile.add_cpu_at(
                f"Merge rec. {b_side} → {t_side} tuples",
                "sort",
                node,
                batch.num_rows * widths[b_side],
            )
            left, right = (batch, resident) if b_side == "R" else (resident, batch)
            joined = local_join(left, right, "r.", "s.", materialize=spec.materialize)
            profile.add_cpu_at(
                f"Final merge-join {b_side} → {t_side}",
                "merge",
                node,
                batch.num_rows * widths[b_side]
                + resident.num_rows * widths[t_side]
                + joined.num_rows * out_width,
            )
            parts.append(joined)
        if not spec.materialize:
            return JoinCount(sum(joined.num_rows for joined in parts))
        if parts:
            return LocalPartition.concat(parts)
        return LocalPartition.empty(out_names)

    return cluster.run_phase(join_node, profile=profile)


def _locations(spec: JoinSpec, key_width: float, step: str) -> LocationExchange:
    """The (key, node) instruction exchange under this join's encodings."""
    return LocationExchange(
        step=step,
        key_width=key_width,
        location_width=spec.location_width,
        group_by_node=spec.group_locations,
    )


def _run_migrations(
    cluster: Cluster,
    spec: JoinSpec,
    profile: ExecutionProfile,
    tracking,
    sched: ScheduleSet,
    side: str,
    idx: np.ndarray,
    work: dict[str, list[LocalPartition]],
    widths: dict[str, float],
    key_width: float,
) -> None:
    """Send migration instructions and move the tuples of entries ``idx``."""
    if len(idx) == 0:
        return
    mig_keys = tracking.keys[idx]
    mig_nodes = tracking.nodes[idx]
    entry_key = tracking.seg[idx]
    mig_dest = sched.dest_node[entry_key]
    mig_t = tracking.t_nodes[entry_key]

    # Migration instructions: (key, destination) from the scheduler to
    # each migrating holder.  Accounted under the direction that uses
    # them ("Tran. R -> S keys, nodes" when S consolidates, since those
    # messages enable the R -> S broadcast, and vice versa).
    other = "R" if side == "S" else "S"
    _locations(spec, key_width, f"Tran. {other} → {side} keys, nodes").run(
        cluster, profile, mig_t, mig_nodes, mig_dest
    )

    Migrate(
        category=MessageClass.R_TUPLES if side == "R" else MessageClass.S_TUPLES,
        width=widths[side],
        transfer_step=f"Transfer {side} → {other} tuples",
        copy_step=f"Local copy {side} tuples ({side} migration)",
    ).run(cluster, profile, work[side], mig_keys, mig_nodes, mig_dest)


def _run_shard_migrations(
    cluster: Cluster,
    spec: JoinSpec,
    profile: ExecutionProfile,
    tracking,
    sched: ScheduleSet,
    side: str,
    idx: np.ndarray,
    work: dict[str, list[LocalPartition]],
    widths: dict[str, float],
    key_width: float,
) -> None:
    """Instruct hot keys' target-side holders to deal across the shards.

    The sharded analogue of :func:`_run_migrations`: every target-side
    holder of a sharded key receives one (key, destination) instruction
    per shard, then deals its matching tuples cyclically over that list
    (:class:`~repro.exchange.migrate.ShardedMigrate`).
    """
    if len(idx) == 0:
        return
    entry_key = tracking.seg[idx]
    off = sched.shard_offsets
    counts = (off[entry_key + 1] - off[entry_key]).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    within = np.arange(offsets[-1]) - np.repeat(offsets[:-1], counts)
    flat = sched.shard_dests[np.repeat(off[entry_key], counts) + within]

    # Shard instructions: one (key, destination) message per
    # (holder, shard) pair, accounted like migration instructions.
    rep = np.repeat(np.arange(len(idx)), counts)
    other = "R" if side == "S" else "S"
    _locations(spec, key_width, f"Tran. {other} → {side} keys, nodes").run(
        cluster, profile, tracking.t_nodes[entry_key][rep],
        tracking.nodes[idx][rep], flat,
    )

    ShardedMigrate(
        category=MessageClass.R_TUPLES if side == "R" else MessageClass.S_TUPLES,
        width=widths[side],
        transfer_step=f"Transfer {side} → {other} tuples",
        copy_step=f"Local copy {side} tuples ({side} migration)",
    ).run(
        cluster, profile, work[side], tracking.keys[idx], tracking.nodes[idx],
        offsets, flat,
    )
