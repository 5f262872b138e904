"""Analytic network cost model and optimizer hooks (Section 3)."""

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
    track4_shard_cost,
    track_join_beats_hash_join_width_rule,
    tracking_aware_cost,
)
from .optimizer import AlgorithmEstimate, choose_algorithm, rank_algorithms
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
    "track4_shard_cost",
    "late_materialization_cost",
    "tracking_aware_cost",
    "filtered_hash_join_cost",
    "filtered_late_materialization_cost",
    "filtered_track2_cost",
    "track_join_beats_hash_join_width_rule",
    "AlgorithmEstimate",
    "rank_algorithms",
    "choose_algorithm",
    "CorrelatedSample",
    "correlated_sample",
    "estimate_classes",
]
