"""Per-key transfer schedule generation (Sections 2.2-2.3 of the paper).

Track join logically decomposes the join into one cartesian-product join
per distinct key and minimizes each key's network cost independently.
This module implements that optimization twice:

* A **scalar** form (:func:`selective_broadcast_cost`,
  :func:`migrate_and_broadcast`, :func:`optimal_schedule`) that mirrors
  the paper's pseudocode line by line.  It reproduces the worked
  examples of Figures 1 and 2 exactly and is the oracle for property
  tests against brute-force enumeration.

* A **vectorized** form (:func:`generate_schedules`) operating on a full
  :class:`~repro.core.tracking.TrackingTable`, which is what the join
  operators execute.  One holder-column kernel
  (:func:`both_direction_plans`) views each block of keys as one
  per-key column per tracking entry and evaluates every key with a few
  elementwise numpy passes per column.  Python-level loops over
  millions of keys would dominate runtime otherwise.

Terminology: for the ``R -> S`` direction, R tuples are *selectively
broadcast* to the nodes holding matching S tuples, optionally after
*migrating* some nodes' S tuples onto fewer nodes (Theorem 1 shows the
per-node migration decisions are independent; Theorem 2 that the better
of the two optimized directions is the global single-key optimum).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from ..errors import ScheduleError
from ..parallel.chunks import chunk_bounds, kernel_chunk_rows, run_chunks
from .destinations import (
    column_consolidation,
    column_sum,
    migration_delta,
    scalar_consolidation,
)
from .tracking import TrackingTable

__all__ = [
    "BroadcastPlan",
    "KeySchedule",
    "ScheduleSet",
    "selective_broadcast_cost",
    "migrate_and_broadcast",
    "optimal_schedule",
    "both_direction_plans",
    "generate_schedules",
]


# ---------------------------------------------------------------------------
# Scalar (single key) schedule generation -- mirrors the paper's pseudocode.
# ---------------------------------------------------------------------------


@dataclass
class BroadcastPlan:
    """Cost breakdown of one optimized selective-broadcast direction."""

    #: Total network cost: broadcast + location messages + migrations.
    cost: float
    #: Cost paid moving migrating-side tuples.
    migration_cost: float
    #: Nodes whose target-side tuples migrate to ``destination``.
    migrating_nodes: tuple[int, ...]
    #: Migration destination (the forced-stay node with maximal locality),
    #: or None when nothing migrates.
    destination: int | None


@dataclass
class KeySchedule:
    """The chosen schedule for one join key."""

    #: "RS" broadcasts R tuples to S locations; "SR" the opposite.
    direction: str
    plan: BroadcastPlan
    #: The rejected direction's plan (for introspection / examples).
    alternative: BroadcastPlan


def selective_broadcast_cost(
    broadcast_sizes: dict[int, float],
    target_sizes: dict[int, float],
    scheduler_node: int,
    location_width: float = 0.0,
) -> float:
    """Network cost of selectively broadcasting one side, no migration.

    Implements the paper's ``broadcast R to S`` cost routine: with
    ``R`` = broadcast side and ``S`` = target side,

    ``RScost = Rall * Snodes - Rlocal + Rnodes * Snodes * M``

    where ``Rnodes`` excludes the scheduler (location messages to self
    are free) and ``Rlocal`` credits broadcast-side bytes already living
    on a target node.
    """
    r_all = sum(broadcast_sizes.values())
    s_holders = [i for i, size in target_sizes.items() if size > 0]
    r_local = sum(size for i, size in broadcast_sizes.items() if target_sizes.get(i, 0) > 0)
    r_nodes = sum(1 for i, size in broadcast_sizes.items() if size > 0 and i != scheduler_node)
    return r_all * len(s_holders) - r_local + r_nodes * len(s_holders) * location_width


def migrate_and_broadcast(
    broadcast_sizes: dict[int, float],
    target_sizes: dict[int, float],
    scheduler_node: int,
    location_width: float = 0.0,
) -> BroadcastPlan:
    """Optimized selective broadcast: the ``migrate S & broadcast R`` routine.

    Checks, independently for every target-side holder, whether moving
    its tuples to the consolidation destination lowers total cost
    (Theorem 1), forcing the node with maximal ``|Ri| + |Si|`` to stay.
    """
    r_all = sum(broadcast_sizes.values())
    r_nodes = sum(1 for i, size in broadcast_sizes.items() if size > 0 and i != scheduler_node)
    cost = selective_broadcast_cost(
        broadcast_sizes, target_sizes, scheduler_node, location_width
    )
    holders = [i for i, size in target_sizes.items() if size > 0]
    if not holders:
        return BroadcastPlan(cost=cost, migration_cost=0.0, migrating_nodes=(), destination=None)

    def delta_of(i: int) -> float:
        return migration_delta(
            broadcast_sizes.get(i, 0.0),
            target_sizes[i],
            r_all,
            r_nodes,
            location_width,
            i == scheduler_node,
        )

    # One holder must stay (the migration destination); the shared core
    # forces out the maximal-delta holder and migrates every other
    # holder with a negative delta.  With a uniform message charge the
    # forced stay is the paper's max |Ri| + |Si| rule; with the
    # scheduler-local discount it also breaks ties correctly.
    forced_stay, migrating = scalar_consolidation(holders, delta_of)
    migration_cost = 0.0
    for i in migrating:
        cost += delta_of(i)
        migration_cost += target_sizes[i]
    destination = forced_stay if migrating else None
    return BroadcastPlan(
        cost=cost,
        migration_cost=migration_cost,
        migrating_nodes=tuple(migrating),
        destination=destination,
    )


def optimal_schedule(
    sizes_r: dict[int, float],
    sizes_s: dict[int, float],
    scheduler_node: int = 0,
    location_width: float = 0.0,
) -> KeySchedule:
    """Minimum-traffic schedule for a single key (Theorem 2).

    Computes both optimized directions and keeps the cheaper one; ties
    resolve to ``S -> R`` as in the paper's pseudocode (``if RScost <
    SRcost`` picks R->S strictly).
    """
    plan_rs = migrate_and_broadcast(sizes_r, sizes_s, scheduler_node, location_width)
    plan_sr = migrate_and_broadcast(sizes_s, sizes_r, scheduler_node, location_width)
    if plan_rs.cost < plan_sr.cost:
        return KeySchedule(direction="RS", plan=plan_rs, alternative=plan_sr)
    return KeySchedule(direction="SR", plan=plan_sr, alternative=plan_rs)


# ---------------------------------------------------------------------------
# Vectorized schedule generation over a TrackingTable.
# ---------------------------------------------------------------------------


@dataclass
class ScheduleSet:
    """Schedules for every tracked key, in tracking-table order.

    Per-key arrays are parallel to ``tracking.key_starts``; per-entry
    arrays are parallel to the tracking table's union rows.
    """

    tracking: TrackingTable
    #: Per key: True when R tuples are broadcast to S locations.
    direction_rs: np.ndarray
    #: Per key: cost of the chosen direction (diagnostics only).
    cost: np.ndarray
    #: Per entry: this entry's migrating-side tuples move to ``dest_node``.
    migrate: np.ndarray
    #: Per key: migration destination node (-1 when nothing migrates), in
    #: the tracking table's node dtype.
    dest_node: np.ndarray
    #: Optional heavy-hitter sharding (``None`` ⇒ every key consolidates
    #: at a single destination and execution is byte-identical to the
    #: plain 4-phase plan).  ``sharded`` marks keys whose target side
    #: splits row-wise across multiple destinations; per sharded key
    #: ``k`` the destinations are ``shard_dests[shard_offsets[k]:
    #: shard_offsets[k + 1]]`` and the broadcast side replicates to all
    #: of them.  ``migrate``/``dest_node`` are cleared for sharded keys.
    sharded: np.ndarray | None = None
    #: CSR offsets into ``shard_dests``, length ``num_keys + 1``.
    shard_offsets: np.ndarray | None = None
    #: Concatenated shard destination node lists.
    shard_dests: np.ndarray | None = None

    @property
    def num_keys(self) -> int:
        """Number of scheduled keys."""
        return len(self.direction_rs)

    @property
    def has_shards(self) -> bool:
        """True when at least one key is sharded across destinations."""
        return self.sharded is not None and bool(self.sharded.any())


#: Most keys per schedule block.  A block's working set is a few dozen
#: per-key temporaries per holder column, so blocks of 2^15 keys stay
#: cache-resident instead of streaming every operand through memory
#: over and over.  Measured optimum on the bench box at two holder
#: columns (smaller blocks pay python overhead, larger spill the
#: cache); at three to sixteen columns 2^13 to 2^16 measure alike.
_SCHEDULE_BLOCK = 1 << 15


def _tally_dtype(width: int) -> np.dtype:
    """Narrowest integer dtype for holder tallies of keys ``width`` wide.

    A cost term multiplies two tallies, so the dtype must hold
    ``width ** 2``; the float64 cost terms the tallies promote to are
    the same whatever the integer width.
    """
    for dtype in (np.int8, np.int16, np.int32):
        if width * width <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def both_direction_plans(
    tracking: TrackingTable,
    location_width: float = 1.0,
    allow_migration: bool = True,
) -> tuple[tuple, tuple]:
    """Both optimized directions' plans for every key at once.

    Returns ``((cost_rs, migrate_rs, dest_rs), (cost_sr, migrate_sr,
    dest_sr))`` — per-key costs and default destinations, per-entry
    migration masks.  This is the vectorized candidate evaluation
    shared by :func:`generate_schedules` and the load-aware policies
    (:mod:`repro.core.balance`, :mod:`repro.core.skew`), which differ
    only in how they pick a direction and destination from these plans.

    One holder-column kernel serves every key.  Keys run in blocks on
    the kernel pool; a block of keys at most ``k`` entries wide is
    ``k`` per-key columns, column ``j`` being each key's entry
    ``start + j``, or a phantom with zero sizes (hence no holder) when
    the key has ``j`` entries or fewer.  Sums, holder tallies, both
    directions' costs and the Theorem 1 consolidation are then ``k``
    elementwise passes per block — no segment ids, no ``reduceat``.
    Each block writes its own slices of the outputs, and block bounds
    (a function of the key count and the kernel chunk rows) change no
    result.
    """
    starts, counts = tracking.key_starts, tracking.entries_per_key
    nodes, t_nodes = tracking.nodes, tracking.t_nodes
    num_keys = len(starts)
    lw = location_width
    cost_rs = np.empty(num_keys, dtype=np.float64)
    cost_sr = np.empty(num_keys, dtype=np.float64)
    mig_rs = np.zeros(tracking.num_entries, dtype=bool)
    mig_sr = np.zeros(tracking.num_entries, dtype=bool)
    dest_rs = np.full(num_keys, -1, dtype=nodes.dtype)
    dest_sr = np.full(num_keys, -1, dtype=nodes.dtype)

    def plan_block(bounds: tuple[int, int]) -> None:
        lo, hi = bounds
        first, width = starts[lo:hi], counts[lo:hi]
        tn = t_nodes[lo:hi]
        rows, size_r, size_s = [first], [tracking.size_r(first)], [tracking.size_s(first)]
        for j in range(1, int(width.max())):
            # A phantom re-reads the key's last entry; multiplying its
            # finite, non-negative sizes by False makes them +0.0 bit
            # for bit.
            present = width > j
            row = rows[-1] + present
            rows.append(row)
            size_r.append(tracking.size_r(row) * present)
            size_s.append(tracking.size_s(row) * present)
        has_r = [size > 0 for size in size_r]
        has_s = [size > 0 for size in size_s]
        not_t = [nodes[row] != tn for row in rows]

        tally = _tally_dtype(len(rows))
        r_all, s_all = column_sum(size_r), column_sum(size_s)
        r_holders, s_holders = _tally(has_r, tally), _tally(has_s, tally)
        r_nodes = _tally([h & n for h, n in zip(has_r, not_t)], tally)
        s_nodes = _tally([h & n for h, n in zip(has_s, not_t)], tally)
        r_local = column_sum([r * h for r, h in zip(size_r, has_s)])
        s_local = column_sum([s * h for s, h in zip(size_s, has_r)])
        cost_rs[lo:hi] = r_all * s_holders - r_local + r_nodes * s_holders * lw
        cost_sr[lo:hi] = s_all * r_holders - s_local + s_nodes * r_holders * lw
        if not allow_migration:
            return
        # Only keys with two or more target-side holders can migrate
        # one; everywhere else the base cost above already stands.
        gate_rs = np.flatnonzero(s_holders >= 2)
        gate_sr = np.flatnonzero(r_holders >= 2)
        if len(gate_rs) == 0 and len(gate_sr) == 0:
            return
        # Both directions' deltas share each column's holder bytes and
        # migration instruction charge.
        held = [r + s for r, s in zip(size_r, size_s)]
        instruct = [np.where(n, lw, 0.0) for n in not_t]

        def consolidate(sel, b_all, b_nodes, has_t, cost, mig, dest):
            if len(sel) == 0:
                return
            keys = lo + sel
            if len(sel) == hi - lo:
                sel, keys = slice(None), slice(lo, hi)
            b_all, bn_lw = b_all[sel], b_nodes[sel] * lw
            delta = [h[sel] - b_all - bn_lw + m[sel] for h, m in zip(held, instruct)]
            migrate, dest[keys], savings = column_consolidation(
                delta, [h[sel] for h in has_t], [nodes[row[sel]] for row in rows]
            )
            cost[keys] += savings
            # Last column first: a phantom re-reads its key's last real
            # entry, whose own (later) write then overwrites the phantom's.
            for row, moves in zip(rows[::-1], migrate[::-1]):
                mig[row[sel]] = moves

        consolidate(gate_rs, r_all, r_nodes, has_s, cost_rs, mig_rs, dest_rs)
        consolidate(gate_sr, s_all, s_nodes, has_r, cost_sr, mig_sr, dest_sr)

    edges = chunk_bounds(num_keys, min(_SCHEDULE_BLOCK, kernel_chunk_rows()))
    run_chunks(plan_block, pairwise(edges.tolist()))
    return (cost_rs, mig_rs, dest_rs), (cost_sr, mig_sr, dest_sr)


def _tally(flags: list[np.ndarray], dtype: np.dtype) -> np.ndarray:
    """Per key: how many of the columns' ``flags`` are set."""
    total = flags[0].astype(dtype)
    for flag in flags[1:]:
        total += flag
    return total


def empty_schedule_set(tracking: TrackingTable) -> ScheduleSet:
    """A schedule set over zero tracked keys."""
    empty_b = np.empty(0, dtype=bool)
    return ScheduleSet(
        tracking, empty_b, np.empty(0), empty_b, np.empty(0, dtype=tracking.nodes.dtype)
    )


def generate_schedules(
    tracking: TrackingTable,
    location_width: float = 1.0,
    allow_migration: bool = True,
    forced_direction: str | None = None,
) -> ScheduleSet:
    """Generate per-key schedules for the whole tracking table at once.

    Parameters
    ----------
    allow_migration:
        ``True`` for 4-phase track join; ``False`` gives the 3-phase
        bi-directional selective broadcast.
    forced_direction:
        ``"RS"`` or ``"SR"`` pins every key to one direction (2-phase
        track join); ``None`` chooses per key.
    """
    if forced_direction not in (None, "RS", "SR"):
        raise ScheduleError(f"invalid forced direction {forced_direction!r}")
    if tracking.num_entries == 0:
        return empty_schedule_set(tracking)

    (cost_rs, mig_rs, dest_rs), (cost_sr, mig_sr, dest_sr) = both_direction_plans(
        tracking, location_width, allow_migration
    )

    if forced_direction == "RS":
        direction_rs = np.ones(tracking.num_keys, dtype=bool)
    elif forced_direction == "SR":
        direction_rs = np.zeros(tracking.num_keys, dtype=bool)
    else:
        direction_rs = cost_rs < cost_sr

    # The chosen direction's plan overwrites the R -> S arrays in place.
    sr = ~direction_rs
    np.copyto(cost_rs, cost_sr, where=sr)
    np.copyto(dest_rs, dest_sr, where=sr)
    if mig_rs.any() or mig_sr.any():
        np.copyto(mig_rs, mig_sr, where=sr[tracking.seg])
    return ScheduleSet(
        tracking=tracking,
        direction_rs=direction_rs,
        cost=cost_rs,
        migrate=mig_rs,
        dest_node=dest_rs,
    )
