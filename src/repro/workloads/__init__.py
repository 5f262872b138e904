"""Workload generators for the paper's synthetic and real evaluations."""

from .base import Workload
from .real import (
    X_PAPER,
    X_TABLE1_R,
    X_TABLE1_S,
    XColumnStat,
    Y_PAPER,
    workload_x,
    workload_y,
    x_query_schemas,
)
from .synthetic import (
    PATTERN_COLLOCATED,
    PATTERN_PARTIAL,
    PATTERN_SPREAD,
    both_sides_pattern_workload,
    hot_key_workload,
    single_side_pattern_workload,
    unique_keys_workload,
    zipf_workload,
)

__all__ = [
    "Workload",
    "unique_keys_workload",
    "single_side_pattern_workload",
    "both_sides_pattern_workload",
    "zipf_workload",
    "hot_key_workload",
    "PATTERN_COLLOCATED",
    "PATTERN_PARTIAL",
    "PATTERN_SPREAD",
    "workload_x",
    "workload_y",
    "x_query_schemas",
    "X_PAPER",
    "Y_PAPER",
    "X_TABLE1_R",
    "X_TABLE1_S",
    "XColumnStat",
]
