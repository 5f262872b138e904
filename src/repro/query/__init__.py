"""Query plans over distributed tables: scans, joins, aggregation."""

from .aggregate import AggregateSpec, AggregationResult, run_aggregation
from .executor import (
    OperatorStats,
    PhysicalPlan,
    QueryResult,
    RunContext,
    compile_plan,
    execute,
    rekey_table,
    table_stats,
)
from .plan import Aggregate, Join, PlanNode, Rekey, Scan
from .predicates import And, ColumnPredicate, Or, Predicate

__all__ = [
    "Scan",
    "Join",
    "Aggregate",
    "Rekey",
    "rekey_table",
    "PlanNode",
    "execute",
    "compile_plan",
    "PhysicalPlan",
    "RunContext",
    "QueryResult",
    "OperatorStats",
    "table_stats",
    "AggregateSpec",
    "AggregationResult",
    "run_aggregation",
    "Predicate",
    "ColumnPredicate",
    "And",
    "Or",
]
