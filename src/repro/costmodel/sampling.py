"""Correlated sampling: populating correlation classes from data.

Section 3.1 proposes estimating the exact track join cost — and the
R1/R2/R3 correlation classes of the 3/4-phase formulas — with correlated
sampling [37]: a sample that includes a tuple iff its *join key* is
sampled, so join relationships between the tables are preserved
regardless of distribution.  The sample is augmented with the tuples'
initial node placements.

We sample keys by hashing them to ``[0, 1)`` and keeping those below the
rate, which is consistent across tables and can be computed offline.
The sampled tracking table then runs through the real schedule
generator, classifying every sampled key by how its optimal schedule
moves data and scaling costs back by ``1 / rate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.schedule import generate_schedules
from ..core.tracking import TrackingTable, merge_streams
from ..errors import CostModelError
from ..storage.table import DistributedTable
from ..util import mix64
from .formulas import CorrelationClasses

__all__ = ["CorrelatedSample", "correlated_sample", "estimate_classes"]

_SAMPLE_SEED = 0xC52


@dataclass
class CorrelatedSample:
    """A key-correlated sample of both join inputs with placements."""

    rate: float
    tracking: TrackingTable
    #: Distinct sampled keys.
    num_keys: int

    def scale(self, value: float) -> float:
        """Scale a sampled quantity back to the full population."""
        return value / self.rate


def _sample_mask(keys: np.ndarray, rate: float) -> np.ndarray:
    """Deterministic key-correlated inclusion mask."""
    draws = mix64(keys, seed=_SAMPLE_SEED).astype(np.float64) / 2.0**64
    return draws < rate


def correlated_sample(
    table_r: DistributedTable,
    table_s: DistributedTable,
    rate: float,
    encoding,
    hash_seed: int = 0,
) -> CorrelatedSample:
    """Build the sampled tracking table for both inputs.

    The same key-hash decides inclusion in both tables, so every sampled
    key carries its complete match structure.  Each node's sampled
    distinct keys and counts form one stream per side, merged exactly
    as the tracking phase merges its streams, so at ``rate=1`` the
    sample is the tracking phase's table.
    """
    if not 0.0 < rate <= 1.0:
        raise CostModelError(f"sampling rate must be in (0, 1], got {rate}")
    num_nodes = table_r.num_nodes

    sides = []
    for table in (table_r, table_s):
        streams = []
        for node, partition in enumerate(table.partitions):
            kept = partition.keys[_sample_mask(partition.keys, rate)]
            if len(kept):
                streams.append((node, *np.unique(kept, return_counts=True)))
        sides.append(streams)
    streams = sides[0] + sides[1]
    if not streams:
        return CorrelatedSample(rate=rate, tracking=TrackingTable.empty(num_nodes), num_keys=0)

    tracking = TrackingTable(
        *merge_streams(
            [keys for _, keys, _ in streams],
            [node for node, _, _ in streams],
            [counts for _, _, counts in streams],
            len(sides[0]),
            num_nodes,
            hash_seed,
        ),
        table_r.schema.tuple_width(encoding),
        table_s.schema.tuple_width(encoding),
    )
    return CorrelatedSample(rate=rate, tracking=tracking, num_keys=tracking.num_keys)


def estimate_classes(
    sample: CorrelatedSample, location_width: float = 1.0
) -> tuple[CorrelationClasses, float]:
    """Classify sampled keys and estimate 4-phase payload traffic.

    Runs real schedule generation on the sampled tracking table and
    returns (correlation classes, estimated full-population schedule
    cost in bytes).  A key counts as *hash-like* when its schedule
    consolidates everything onto a single node via migrations.
    """
    tracking = sample.tracking
    if tracking.num_keys == 0:
        return CorrelationClasses(rs=0.5, sr=0.5, hashlike=0.0), 0.0
    schedules = generate_schedules(tracking, location_width=location_width)
    seg = tracking.seg

    # Hash-like: after migration, the target side occupies one node.
    target_entries = np.where(
        schedules.direction_rs[seg], tracking.count_s > 0, tracking.count_r > 0
    )
    survivors = target_entries & ~schedules.migrate
    survivors_per_key = np.add.reduceat(survivors.astype(np.int64), tracking.key_starts)
    migrations_per_key = np.add.reduceat(
        schedules.migrate.astype(np.int64), tracking.key_starts
    )
    hashlike = (survivors_per_key == 1) & (migrations_per_key > 0)

    num_keys = tracking.num_keys
    frac_hash = float(hashlike.sum()) / num_keys
    frac_rs = float((schedules.direction_rs & ~hashlike).sum()) / num_keys
    frac_sr = max(0.0, 1.0 - frac_hash - frac_rs)
    classes = CorrelationClasses(rs=frac_rs, sr=frac_sr, hashlike=frac_hash)
    estimated_cost = sample.scale(float(schedules.cost.sum()))
    return classes, estimated_cost
