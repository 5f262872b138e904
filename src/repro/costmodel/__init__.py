"""Analytic network cost model (Section 3).

The optimizer that ranks the registry's operators by these estimates
lives in :mod:`repro.costmodel.optimizer`; it is not re-exported here,
because it reads the operator registry, which itself imports the
formulas.
"""

from .formulas import (
    CorrelationClasses,
    broadcast_cost,
    filtered_hash_join_cost,
    filtered_late_materialization_cost,
    filtered_track2_cost,
    hash_join_cost,
    late_materialization_cost,
    track2_cost,
    track3_cost,
    track4_cost,
    track_join_beats_hash_join_width_rule,
    tracking_aware_cost,
)
from .sampling import CorrelatedSample, correlated_sample, estimate_classes
from .stats import (
    JoinStats,
    bump_stats_epoch,
    register_epoch_listener,
    stats_epoch,
)

__all__ = [
    "JoinStats",
    "stats_epoch",
    "bump_stats_epoch",
    "register_epoch_listener",
    "CorrelationClasses",
    "hash_join_cost",
    "broadcast_cost",
    "track2_cost",
    "track3_cost",
    "track4_cost",
    "late_materialization_cost",
    "tracking_aware_cost",
    "filtered_hash_join_cost",
    "filtered_late_materialization_cost",
    "filtered_track2_cost",
    "track_join_beats_hash_join_width_rule",
    "CorrelatedSample",
    "correlated_sample",
    "estimate_classes",
]
