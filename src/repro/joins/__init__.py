"""Distributed join operators: baselines and shared infrastructure."""

from .base import DistributedJoin, JoinResult, JoinSpec
from .broadcast import BroadcastJoin
from .grace_hash import GraceHashJoin
from .local import JoinCount, join_indices, local_join
from .registry import ALGORITHMS, AlgorithmInfo, algorithm, algorithm_names, create
from .semijoin import SemiJoinFilteredJoin
from .tracking_aware import LateMaterializationHashJoin, TrackingAwareHashJoin, rid_width

__all__ = [
    "DistributedJoin",
    "JoinResult",
    "JoinSpec",
    "ALGORITHMS",
    "AlgorithmInfo",
    "algorithm",
    "algorithm_names",
    "create",
    "BroadcastJoin",
    "GraceHashJoin",
    "SemiJoinFilteredJoin",
    "LateMaterializationHashJoin",
    "TrackingAwareHashJoin",
    "rid_width",
    "JoinCount",
    "join_indices",
    "local_join",
]
