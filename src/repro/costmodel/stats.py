"""Input statistics for the analytic network cost model (Section 3.1).

The query optimizer decides between broadcast join, hash join, and the
track join variants from closed-form traffic estimates.  Those formulas
consume the statistics collected here: table cardinalities, distinct key
counts, column widths under the chosen encoding, and input
selectivities.  Derived quantities follow the paper's notation:

- ``n_r = min(N, tR/dR)`` — expected nodes holding matches of a key
  (worst case: equal keys randomly distributed);
- ``m_r = min(N, tR*sR/dR)`` — the same after selective predicates;
- ``c_r = log2(tR/(dR*nR))`` — bits needed for tracking counters, the
  average per-node key repetition.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable

from ..errors import CostModelError

__all__ = [
    "JoinStats",
    "stats_epoch",
    "bump_stats_epoch",
    "register_epoch_listener",
]


# ---------------------------------------------------------------------------
# Statistics epochs
# ---------------------------------------------------------------------------
#
# Cached artifacts derived from table statistics — compiled-plan
# fingerprints, per-operator JoinStats on a run context — stay valid
# only while the underlying data does.  The epoch registry is the
# invalidation contract: loading, mutating, or re-partitioning a
# resident table bumps its epoch (or the global epoch for wholesale
# changes), every fingerprint that embeds the old epoch stops matching,
# and registered listeners (the serve-layer plan cache) drop stale
# entries eagerly.

_epoch_lock = threading.Lock()
_global_epoch: int = 0
_table_epochs: dict[str, int] = {}
_epoch_listeners: list[Callable[[str | None, int], None]] = []


def stats_epoch(table: str | None = None) -> int:
    """Current statistics epoch of ``table``, or the global epoch.

    A table's epoch is the global epoch plus its own bump count, so
    both :func:`bump_stats_epoch(name) <bump_stats_epoch>` and a global
    ``bump_stats_epoch()`` advance it.  Epochs only ever grow.
    """
    with _epoch_lock:
        if table is None:
            return _global_epoch
        return _global_epoch + _table_epochs.get(table, 0)


def bump_stats_epoch(table: str | None = None) -> int:
    """Invalidate statistics for ``table`` (or, with ``None``, every table).

    Returns the table's (or global) new epoch and notifies every
    listener registered via :func:`register_epoch_listener` with
    ``(table, new_epoch)``.  Call this whenever a resident table's data
    changes: rows appended, partitions rebalanced, a fresh load.
    """
    with _epoch_lock:
        global _global_epoch
        if table is None:
            _global_epoch += 1
            epoch = _global_epoch
        else:
            _table_epochs[table] = _table_epochs.get(table, 0) + 1
            epoch = _global_epoch + _table_epochs[table]
        listeners = list(_epoch_listeners)
    for listener in listeners:
        listener(table, epoch)
    return epoch


def register_epoch_listener(
    listener: Callable[[str | None, int], None]
) -> Callable[[], None]:
    """Subscribe to epoch bumps; returns an unsubscribe callable.

    Listeners fire after the epoch has advanced, outside the registry
    lock, with the bumped table name (``None`` for a global bump) and
    its new epoch.  The serve-layer plan cache uses this to evict
    fingerprints of stale statistics instead of waiting for capacity
    pressure to push them out.
    """
    with _epoch_lock:
        _epoch_listeners.append(listener)

    def unregister() -> None:
        with _epoch_lock:
            if listener in _epoch_listeners:
                _epoch_listeners.remove(listener)

    return unregister


@dataclass(frozen=True)
class JoinStats:
    """Statistics describing one distributed equi-join.

    Widths are bytes on the wire; ``key_width`` is ``wk``, the width of
    all join key columns together, and the payloads are ``wR``/``wS``.
    Selectivities are the fraction of each table with matches on the
    other side after applying all other predicates (``sR``, ``sS``).
    """

    num_nodes: int
    tuples_r: float
    tuples_s: float
    distinct_r: float
    distinct_s: float
    key_width: float
    payload_r: float
    payload_s: float
    selectivity_r: float = 1.0
    selectivity_s: float = 1.0
    location_width: float = 1.0

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise CostModelError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.tuples_r < 0 or self.tuples_s < 0:
            raise CostModelError("tuple counts must be non-negative")
        if not (0 < self.distinct_r <= max(self.tuples_r, 1)):
            raise CostModelError(
                f"distinct_r={self.distinct_r} inconsistent with tuples_r={self.tuples_r}"
            )
        if not (0 < self.distinct_s <= max(self.tuples_s, 1)):
            raise CostModelError(
                f"distinct_s={self.distinct_s} inconsistent with tuples_s={self.tuples_s}"
            )
        for name in ("selectivity_r", "selectivity_s"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise CostModelError(f"{name} must be in [0, 1], got {value}")

    # -- derived quantities (paper notation) ----------------------------

    @property
    def tuple_width_r(self) -> float:
        """Full R tuple width ``wk + wR``."""
        return self.key_width + self.payload_r

    @property
    def tuple_width_s(self) -> float:
        """Full S tuple width ``wk + wS``."""
        return self.key_width + self.payload_s

    @property
    def nodes_per_key_r(self) -> float:
        """``nR = min(N, tR/dR)``: nodes holding R matches of a key."""
        return min(self.num_nodes, self.tuples_r / self.distinct_r)

    @property
    def nodes_per_key_s(self) -> float:
        """``nS = min(N, tS/dS)``."""
        return min(self.num_nodes, self.tuples_s / self.distinct_s)

    @property
    def matching_nodes_r(self) -> float:
        """``mR = min(N, tR*sR/dR)``: R match nodes after predicates."""
        return min(self.num_nodes, self.tuples_r * self.selectivity_r / self.distinct_r)

    @property
    def matching_nodes_s(self) -> float:
        """``mS = min(N, tS*sS/dS)``."""
        return min(self.num_nodes, self.tuples_s * self.selectivity_s / self.distinct_s)

    def counter_width_r(self) -> float:
        """Bytes for R tracking counters: ``log2`` of per-node repetition."""
        repetition = max(2.0, self.tuples_r / (self.distinct_r * max(self.nodes_per_key_r, 1e-9)))
        return max(1.0, math.log2(repetition)) / 8.0

    def counter_width_s(self) -> float:
        """Bytes for S tracking counters."""
        repetition = max(2.0, self.tuples_s / (self.distinct_s * max(self.nodes_per_key_s, 1e-9)))
        return max(1.0, math.log2(repetition)) / 8.0

    def swapped(self) -> "JoinStats":
        """The same join with R and S roles exchanged."""
        return JoinStats(
            num_nodes=self.num_nodes,
            tuples_r=self.tuples_s,
            tuples_s=self.tuples_r,
            distinct_r=self.distinct_s,
            distinct_s=self.distinct_r,
            key_width=self.key_width,
            payload_r=self.payload_s,
            payload_s=self.payload_r,
            selectivity_r=self.selectivity_s,
            selectivity_s=self.selectivity_r,
            location_width=self.location_width,
        )
