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

This module is the single implementation of those rules.  The three
entry points share the decision logic across the three data layouts the
schedulers use: one key at a time (:func:`scalar_consolidation`),
segmented entry arrays (:func:`segmented_consolidation`), and the
two-holders-per-key fast path (:func:`paired_consolidation`).  The
arithmetic is arranged so each form is bit-identical to the others on
the shapes they share — the schedule golden suites pin that.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "migration_delta",
    "scalar_consolidation",
    "segmented_consolidation",
    "paired_consolidation",
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


def segmented_consolidation(
    seg: np.ndarray,
    starts: np.ndarray,
    nodes: np.ndarray,
    delta: np.ndarray,
    has_target: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized consolidation choice over segmented per-entry arrays.

    ``delta`` and ``has_target`` are per entry; ``seg``/``starts``
    delimit the per-key segments.  Returns ``(migrate, stay, dest,
    savings)``: the per-entry migration mask, the per-entry forced-stay
    marker, the per-key default destination (``-1`` when nothing
    migrates), and the per-key summed negative deltas to add onto the
    no-migration base cost.
    """
    num_entries = len(seg)
    stay_score = np.where(has_target, delta, -np.inf)
    maxima = np.maximum.reduceat(stay_score, starts)
    is_max = stay_score == maxima[seg]
    positions = np.arange(num_entries, dtype=np.int64)
    first_pos = np.minimum.reduceat(np.where(is_max, positions, num_entries), starts)
    stay = np.zeros(num_entries, dtype=bool)
    stay[first_pos] = True
    migrate = has_target & ~stay & (delta < 0)
    savings = np.add.reduceat(np.where(migrate, delta, 0.0), starts)
    any_migration = np.logical_or.reduceat(migrate, starts)
    dest = np.where(any_migration, nodes[first_pos], -1)
    return migrate, stay, dest, savings


def paired_consolidation(
    delta_a: np.ndarray,
    delta_b: np.ndarray,
    nodes_a: np.ndarray,
    nodes_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Consolidation choice for keys whose two entries both hold targets.

    The inputs are per-key arrays for the two entries ``a`` and ``b``
    (``a`` first in node order).  Returns ``(migrate_a, migrate_b,
    dest)`` — the same decisions :func:`segmented_consolidation` makes
    on two-holder segments, without materializing segment ids.  Keys
    with fewer target-side holders never reach this function: their
    only holder is the forced stay, so nothing can migrate.
    """
    stay_is_a = delta_a >= delta_b
    migrate_a = ~stay_is_a & (delta_a < 0)
    migrate_b = stay_is_a & (delta_b < 0)
    dest = np.where(migrate_a | migrate_b, np.where(stay_is_a, nodes_a, nodes_b), -1)
    return migrate_a, migrate_b, dest


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
