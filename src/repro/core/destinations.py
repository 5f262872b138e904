"""Shared destination-choice core of per-key schedule generation.

Every scheduling path — the scalar oracle
(:func:`repro.core.schedule.migrate_and_broadcast`), the vectorized
:func:`repro.core.schedule.generate_schedules`, and the load-aware
policies (:func:`repro.core.balance.balanced_schedules`,
:func:`repro.core.skew.sharded_schedules`) — answers the same
question for each key and direction: *which target-side holders
migrate, and where do the migrating tuples consolidate?*

The answer has two parts (Theorem 1 of the paper):

1. **Forced stay.**  One target-side holder must survive.  The optimal
   choice is the holder whose migration would save the least — the one
   with maximal migration delta — because the per-node decisions are
   otherwise independent.  Ties resolve to the lowest node id,
   deterministically.
2. **Migrate-if-saving.**  Every other holder migrates exactly when its
   delta is negative (migrating lowers total cost).

The *default* consolidation destination is the forced-stay holder; the
load-aware policies exploit the fact that any surviving holder is
cost-equivalent as a destination and instead pick the least-loaded one
(:func:`least_loaded`), or split a heavy key's migrating tuples over
several destinations (:func:`rank_by_load`).

This module is the single implementation of those rules, in two data
layouts: one key at a time (:func:`scalar_consolidation`, the oracle)
and a block of keys as holder columns (:func:`column_consolidation`,
what :func:`repro.core.schedule.both_direction_plans` runs).  Both take
the same forced stay and migrating set; the schedule tests compare
them key by key.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "migration_delta",
    "scalar_consolidation",
    "column_sum",
    "column_consolidation",
    "least_loaded",
    "rank_by_load",
]


def migration_delta(
    broadcast_size: float,
    target_size: float,
    broadcast_all: float,
    broadcast_nodes: int,
    location_width: float,
    is_scheduler: bool,
) -> float:
    """Cost change of migrating one target-side holder (Theorem 1).

    Moving node *i*'s target tuples to the consolidation destination
    pays their transfer (``target_size``) and one migration instruction
    (``location_width``, free when *i* is the scheduler), and saves the
    broadcast bytes and location messages that would otherwise have
    been sent to *i* (``broadcast_all - broadcast_size`` plus
    ``broadcast_nodes * location_width``).  Negative delta ⇒ migrating
    is cheaper.
    """
    delta = (
        broadcast_size + target_size - broadcast_all - broadcast_nodes * location_width
    )
    if not is_scheduler:
        delta += location_width  # the migration instruction message
    return delta


def scalar_consolidation(
    holders: Sequence[int], delta_of: Callable[[int], float]
) -> tuple[int, list[int]]:
    """Forced-stay holder and migrating set for one key.

    ``holders`` are the target-side holders (any iteration order);
    ``delta_of`` evaluates :func:`migration_delta` for one of them.
    Returns ``(forced_stay, migrating)`` with ``migrating`` in
    ascending node order — the caller accumulates costs in that order
    so the scalar oracle's float arithmetic stays reproducible.
    """
    # max() keeps the first maximal element, so sorting first makes the
    # tie-break "lowest node id" — matching the vectorized forms, whose
    # entries are sorted by node within each key.
    forced_stay = max(sorted(holders), key=delta_of)
    migrating = [
        i for i in sorted(holders) if i != forced_stay and delta_of(i) < 0
    ]
    return forced_stay, migrating


def column_sum(columns: list[np.ndarray]) -> np.ndarray:
    """Per key: ``col0 + (col1 + ... + colk-1)`` over holder columns.

    That association is the one ``np.add.reduceat`` uses over a segment
    of at most eight entries, so column sums equal a segmented
    reduction's bit for bit there; wider keys agree whenever their
    values are exact sums (integer byte widths make them so).  Phantom
    columns hold ``+0.0``, which adds nothing.
    """
    if len(columns) == 1:
        return columns[0]
    tail = columns[1]
    for column in columns[2:]:
        tail = tail + column
    return columns[0] + tail


def column_consolidation(
    delta: list[np.ndarray], has_target: list[np.ndarray], nodes: list[np.ndarray]
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Vectorized consolidation choice over a block of holder columns.

    Each argument holds one per-key array per column: column ``j`` is
    every key's ``j``-th tracking entry, so columns run in node order
    within a key.  A phantom column entry (the key has fewer entries)
    has no target.  Every key must have a target-side holder.  Returns
    ``(migrate, dest, savings)``: the per-column migration masks, the
    per-key default destination (``-1`` when nothing migrates), and the
    per-key summed negative deltas (:func:`column_sum`) to add onto the
    no-migration base cost.
    """
    score = [np.where(has, d, -np.inf) for d, has in zip(delta, has_target)]
    best = score[0]
    for column in score[1:]:
        best = np.maximum(best, column)
    # The forced stay is the first column holding the maximal score, so
    # ties go to the lowest node.  It is a target holder, so
    # ``has > stay`` is "a target holder other than the stay".
    migrate, stay_node = [], nodes[0].copy()
    for j, (column, has) in enumerate(zip(score, has_target)):
        at_max = column == best
        stay = at_max if j == 0 else at_max > seen
        seen = at_max if j == 0 else seen | at_max
        if j:
            np.copyto(stay_node, nodes[j], where=stay)
        migrate.append((column < 0) & (has > stay))
    savings = column_sum([np.where(m, d, 0.0) for m, d in zip(migrate, delta)])
    # Migrating deltas are negative, so their sum is exactly when any
    # holder migrates.
    dest = np.where(savings < 0, stay_node, -1)
    return migrate, dest, savings


def least_loaded(candidates: np.ndarray, load: np.ndarray) -> int:
    """The least-loaded candidate node; ties go to the lowest node id.

    Any surviving target holder is a cost-equivalent consolidation
    destination (the migration deltas never depend on *which* survivor
    receives the tuples), so load-aware policies are free to pick by
    ``load``.  ``candidates`` must be in ascending node order —
    ``argmin`` keeps the first minimum, making the tie-break match the
    default forced-stay choice.
    """
    return int(candidates[np.argmin(load[candidates])])


def rank_by_load(load: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` least-loaded nodes, ascending by (load, node id).

    Used by heavy-hitter sharding to spread one key's consolidation
    over several destinations deterministically.
    """
    order = np.lexsort((np.arange(len(load)), load))
    return order[: min(count, len(load))]
