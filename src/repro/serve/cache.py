"""Plan cache: compiled physical plans keyed by plan fingerprint.

A compiled :class:`~repro.query.executor.PhysicalPlan` is an immutable,
reusable artifact (PR 5's ``compile_plan`` split); what made it
single-use in practice was that every query recompiled from scratch.
The cache closes that gap: queries are keyed by
:meth:`PlanNode.fingerprint() <repro.query.plan.PlanNode.fingerprint>`
— a deterministic digest of plan shape, algorithm choices, table
schemas, and each table's statistics epoch — so a resubmitted query
reuses both the compiled operator pipeline and the
:class:`~repro.query.executor.RunContext` holding its measured join
statistics.

Invalidation is epoch-driven: the fingerprint embeds
:func:`repro.costmodel.stats.stats_epoch` per scanned table, so bumping
an epoch makes stale entries unreachable, and the cache also registers
an epoch listener to evict them eagerly (counted separately from
capacity evictions).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..cluster.sanitizer import shared_key, track_shared
from ..costmodel.stats import register_epoch_listener
from ..errors import ValidationError
from ..query.executor import PhysicalPlan, RunContext, compile_plan
from ..query.plan import PlanNode

__all__ = ["CacheEntry", "PlanCache"]


@dataclass
class CacheEntry:
    """One cached compiled plan plus its reusable run state."""

    fingerprint: str
    physical: PhysicalPlan
    #: Cross-run context: cached join statistics keyed by operator.
    context: RunContext = field(default_factory=RunContext)
    hits: int = 0


class PlanCache:
    """LRU cache of compiled plans with hit/miss/eviction counters.

    Thread-safe: lookups and inserts from concurrent query drivers
    serialize on one lock (compilation itself happens outside the lock;
    a rare duplicate compile of the same fingerprint is benign — one
    entry wins, both runs are correct).

    ``capacity`` bounds the entry count; least-recently-used entries
    fall off.  ``close()`` unregisters the epoch listener.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValidationError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._track = shared_key("serve.cache.entries")
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._unregister = register_epoch_listener(self._on_epoch_bump)

    def get_or_compile(self, plan: PlanNode) -> tuple[CacheEntry, bool]:
        """The cached entry for ``plan``, compiling on a miss.

        Returns ``(entry, hit)``.  The fingerprint embeds each scanned
        table's statistics epoch, so a post-bump resubmission of the
        same plan shape misses and compiles fresh.
        """
        fingerprint = plan.fingerprint()
        with self._lock:
            track_shared(self._track, write=True, locks=(self._lock,))
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                entry.hits += 1
                self.hits += 1
                return entry, True
            self.misses += 1
        physical = compile_plan(plan)
        entry = CacheEntry(fingerprint=fingerprint, physical=physical)
        with self._lock:
            track_shared(self._track, write=True, locks=(self._lock,))
            existing = self._entries.get(fingerprint)
            if existing is not None:
                # A concurrent driver compiled the same plan first;
                # keep its entry (and its warmed statistics).
                self._entries.move_to_end(fingerprint)
                return existing, False
            self._entries[fingerprint] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry, False

    def _on_epoch_bump(self, table: str | None, _epoch: int) -> None:
        """Eagerly drop entries whose statistics just went stale."""
        with self._lock:
            track_shared(self._track, write=True, locks=(self._lock,))
            if table is None:
                stale = list(self._entries)
            else:
                stale = [
                    fingerprint
                    for fingerprint, entry in self._entries.items()
                    if table in entry.physical.table_names
                ]
            for fingerprint in stale:
                del self._entries[fingerprint]
            self.invalidations += len(stale)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Counter snapshot: hits, misses, evictions, invalidations."""
        with self._lock:
            track_shared(self._track, write=False, locks=(self._lock,))
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def close(self) -> None:
        """Unregister the statistics-epoch listener."""
        self._unregister()
