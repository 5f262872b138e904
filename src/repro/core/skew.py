"""Heavy-hitter sharding: skew-resistant 4-phase track join.

Track join's per-key optimum consolidates a key at a *single* node
(Theorem 1): the migrating side's tuples move there, and the broadcast
side converges on the survivors.  Under heavy skew that optimum is the
problem — a hot key's bytes (both sides) pile onto one destination, so
minimal total traffic comes with a maximal per-node peak
(:attr:`~repro.cluster.network.TrafficLedger.max_received_bytes`).

:func:`sharded_schedules` (the ``4TJ-shard`` variant of
:class:`~repro.core.track_join.TrackJoin`) trades a bounded amount of
replication for a flat load profile.  Keys that the optimal plan
consolidates and whose combined bytes exceed ``hot_fraction`` of the
total tracked bytes are *sharded*: their larger side is dealt row-wise
across several destinations
(:class:`~repro.exchange.migrate.ShardedMigrate`) picked least-loaded
first (:func:`~repro.core.destinations.rank_by_load`), and the smaller
side replicates to every shard so each output pair is still produced
exactly once.  Dealing the larger side may flip the key's
broadcast direction — replication is paid once per shard, so the
replicated side must be the cheap one.  Cold keys keep their
traffic-optimal schedule untouched: with no hot keys the plan (and
therefore the byte ledger) is identical to plain 4TJ.

The planner is exact, not sketched: tracking already delivers per-key,
per-node byte counts to the scheduling nodes, so hot keys are read off
the tracked sizes directly.  The cost model has no skew term: it
estimates ``4TJ-shard`` at plain 4TJ's cost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import pairwise

import numpy as np

from ..errors import ValidationError
from ..parallel.chunks import chunk_bounds, run_chunks
from .destinations import rank_by_load
from .schedule import ScheduleSet, generate_schedules
from .tracking import TrackingTable

__all__ = ["ShardPlan", "plan_shards", "attach_shards", "sharded_schedules"]


@dataclass
class ShardPlan:
    """Shard destinations for the heavy hitters of one schedule set."""

    #: Per key: True when the key is sharded.
    sharded: np.ndarray
    #: CSR offsets into ``dests``, length ``num_keys + 1``.
    offsets: np.ndarray
    #: Concatenated shard destination node lists.
    dests: np.ndarray
    #: Per key: broadcast direction after sharding (sharding deals the
    #: larger side, which may flip the traffic-optimal direction).
    direction_rs: np.ndarray


def plan_shards(
    tracking: TrackingTable,
    schedules: ScheduleSet,
    num_nodes: int,
    hot_fraction: float = 0.05,
) -> ShardPlan | None:
    """Pick shard destinations for the heavy hitters of a schedule set.

    A key is *hot* when the optimal plan consolidates it
    (``dest_node >= 0``) and its combined tracked bytes exceed
    ``hot_fraction`` of the total — exactly the keys whose bytes the
    single-destination optimum piles onto one node.  A hot key's larger
    side is split over ``ceil(larger_bytes / (hot_fraction *
    total_bytes))`` shards (at least 2, at most ``num_nodes``),
    assigned least-loaded first against the cold keys' estimated
    per-node received bytes.  Hot keys are placed in descending
    combined-size order so the largest key gets the emptiest nodes; the
    order (and hence the plan) is deterministic.

    Returns a :class:`ShardPlan`, or ``None`` when no key qualifies (or
    the cluster cannot split: fewer than two nodes).
    """
    if not 0.0 < hot_fraction <= 1.0:
        raise ValidationError(f"hot_fraction must be in (0, 1], got {hot_fraction}")
    if num_nodes < 2 or tracking.num_entries == 0:
        return None
    # Tuple widths are whole eighths of a byte (bits / 8), so the byte
    # total is exact whatever the summation order.
    total = (
        float(tracking.count_r.sum(dtype=np.int64)) * tracking.width_r
        + float(tracking.count_s.sum(dtype=np.int64)) * tracking.width_s
    )
    if total <= 0.0:
        return None

    # Hot keys are read off block by block, so a schedule set with none
    # costs no per-entry array.
    threshold = hot_fraction * total
    hot = np.empty(tracking.num_keys, dtype=bool)

    def mark_hot(bounds: tuple[int, int]) -> None:
        lo, hi = bounds
        r_all, s_all = tracking.key_sizes(lo, hi)
        hot[lo:hi] = (schedules.dest_node[lo:hi] >= 0) & (r_all + s_all > threshold)

    run_chunks(mark_hot, pairwise(chunk_bounds(tracking.num_keys).tolist()))
    if not hot.any():
        return None

    starts, seg = tracking.key_starts, tracking.seg
    size_r, size_s = tracking.size_r(), tracking.size_s()
    r_all, s_all = tracking.key_sizes()

    # Sharded keys deal their larger side: the dealt side is paid once,
    # the replicated side once *per shard*, so replicate the cheap one.
    direction_rs = np.where(hot, s_all >= r_all, schedules.direction_rs)
    t_all = np.where(direction_rs, s_all, r_all)
    b_all = np.where(direction_rs, r_all, s_all)
    num_shards = np.clip(
        np.ceil(t_all / (hot_fraction * total)).astype(np.int64), 2, num_nodes
    )

    # Estimated received bytes per node under the *cold* keys' plan:
    # every surviving target holder receives the broadcast side's
    # remote bytes, and each migration destination the moved bytes.
    dir_e = schedules.direction_rs[seg]
    size_b = np.where(dir_e, size_r, size_s)
    size_t = np.where(dir_e, size_s, size_r)
    cold_b_all = np.where(schedules.direction_rs, r_all, s_all)
    surv = (size_t > 0) & ~schedules.migrate & ~hot[seg]
    recv = cold_b_all[seg] - size_b
    load = np.zeros(num_nodes)
    np.add.at(load, tracking.nodes[surv], recv[surv])
    migbytes = np.add.reduceat(np.where(schedules.migrate, size_t, 0.0), starts)
    cold_mig = np.flatnonzero((schedules.dest_node >= 0) & ~hot)
    np.add.at(load, schedules.dest_node[cold_mig], migbytes[cold_mig])

    # Largest hot keys first (ties broken by key index via the stable
    # lexsort), each taking the currently least-loaded nodes.
    hot_keys = np.flatnonzero(hot)
    order = hot_keys[np.lexsort((hot_keys, -(r_all + s_all)[hot_keys]))]
    offsets = np.zeros(tracking.num_keys + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(np.where(hot, num_shards, 0))
    dests = np.empty(offsets[-1], dtype=np.int64)
    for key in order:
        chosen = rank_by_load(load, int(num_shards[key]))
        dests[offsets[key] : offsets[key + 1]] = chosen
        # Each shard absorbs its deal of the dealt side plus a full
        # replica of the broadcast side.
        load[chosen] += t_all[key] / len(chosen) + b_all[key]
    return ShardPlan(hot, offsets, dests, direction_rs)


def attach_shards(schedules: ScheduleSet, plan: ShardPlan | None) -> ScheduleSet:
    """Graft a shard plan onto a schedule set.

    Sharded keys leave the single-destination machinery entirely: their
    ``migrate`` bits and ``dest_node`` are cleared so Phase A's plain
    migrations and Phase B's tracked-entry broadcasts skip them, their
    direction follows the plan, and the sharding arrays take over.
    ``plan=None`` returns the input unchanged.
    """
    if plan is None:
        return schedules
    return replace(
        schedules,
        direction_rs=plan.direction_rs,
        migrate=schedules.migrate & ~plan.sharded[schedules.tracking.seg],
        dest_node=np.where(plan.sharded, -1, schedules.dest_node),
        sharded=plan.sharded,
        shard_offsets=plan.offsets,
        shard_dests=plan.dests,
    )


def sharded_schedules(
    tracking: TrackingTable, location_width: float, num_nodes: int
) -> ScheduleSet:
    """4-phase schedules with the heavy hitters sharded.

    The traffic-optimal schedules, then :func:`plan_shards` at its
    default ``hot_fraction`` grafted on by :func:`attach_shards`.  The
    three are called through this module's namespace, where the
    benchmark tracer (``benchmarks/e2e/trace.py``) wraps them.
    """
    schedules = generate_schedules(
        tracking, location_width=location_width, allow_migration=True
    )
    return attach_shards(schedules, plan_shards(tracking, schedules, num_nodes))
