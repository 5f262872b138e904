"""Storage layer: schemas, distributed tables, and placement policies."""

from .placement import (
    by_key_hash,
    pattern_nodes,
    random_uniform,
    round_robin,
    shuffled,
)
from .schema import Column, Schema
from .table import DistributedTable, KeyIndex, LocalPartition, ScatterPlan

__all__ = [
    "Column",
    "Schema",
    "DistributedTable",
    "KeyIndex",
    "ScatterPlan",
    "LocalPartition",
    "round_robin",
    "random_uniform",
    "by_key_hash",
    "shuffled",
    "pattern_nodes",
]
