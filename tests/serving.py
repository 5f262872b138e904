"""Query-service workload: two resident tables and a mixed plan list.

The serve test suites (``tests/test_serve.py``,
``tests/test_serve_isolation.py``) drive this mix through
:class:`~repro.serve.service.QueryService` and compare every outcome
with a solo run of the same plan.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.query.aggregate import AggregateSpec
from repro.query.plan import Aggregate, Join, PlanNode, Scan
from repro.query.predicates import ColumnPredicate
from repro.storage.placement import random_uniform
from repro.storage.schema import Column, Schema
from repro.storage.table import DistributedTable

__all__ = ["serve_query_mix", "serve_tables"]


def serve_tables(
    num_nodes: int = 8, scaled_tuples: int = 20_000, seed: int = 0
) -> dict[str, DistributedTable]:
    """Two resident tables (orders R, items S) the query mix runs over."""
    rng = np.random.default_rng(seed)
    cluster = Cluster(num_nodes)
    distinct = max(1, scaled_tuples // 8)
    schema_r = Schema(
        (Column("key", bits=32),),
        (Column("amount", bits=64), Column("cust", bits=64)),
    )
    table_r = cluster.table_from_assignment(
        "serve_orders",
        schema_r,
        rng.integers(0, distinct, scaled_tuples).astype(np.int64),
        random_uniform(scaled_tuples, num_nodes, seed=seed * 19 + 1),
        columns={
            "amount": rng.integers(1, 100, scaled_tuples).astype(np.int64),
            "cust": rng.integers(0, 200, scaled_tuples).astype(np.int64),
        },
    )
    schema_s = Schema((Column("key", bits=32),), (Column("qty", bits=64),))
    rows_s = scaled_tuples + scaled_tuples // 2
    table_s = cluster.table_from_assignment(
        "serve_items",
        schema_s,
        rng.integers(0, distinct, rows_s).astype(np.int64),
        random_uniform(rows_s, num_nodes, seed=seed * 19 + 2),
        columns={"qty": rng.integers(1, 10, rows_s).astype(np.int64)},
    )
    return {table_r.name: table_r, table_s.name: table_s}


def serve_query_mix(tables: dict[str, DistributedTable]) -> list[PlanNode]:
    """The distinct plan shapes the serve tests cycle through.

    A realistic mix: cheap filter scans, joins with fixed and cost-model
    algorithm choice (some over filtered inputs), and join+aggregate
    plans.  Joins dominate the list because they are where the plan
    cache pays twice — skipped compilation *and* skipped statistics.
    """
    orders = tables["serve_orders"]
    items = tables["serve_items"]
    return [
        Scan(orders, ColumnPredicate("amount", "<", 50)),
        Scan(items, ColumnPredicate("qty", ">=", 5)),
        Join(Scan(orders), Scan(items), algorithm="HJ"),
        Join(Scan(orders), Scan(items)),
        Join(Scan(orders), Scan(items), algorithm="2TJ-R"),
        Join(Scan(orders, ColumnPredicate("amount", "<", 25)), Scan(items)),
        Join(Scan(orders), Scan(items, ColumnPredicate("qty", ">=", 8))),
        Aggregate(
            Join(Scan(orders), Scan(items), algorithm="HJ"),
            aggregates=(AggregateSpec("total_qty", "sum", "s.qty"),),
        ),
        Aggregate(
            Join(Scan(orders, ColumnPredicate("amount", ">=", 50)), Scan(items)),
            aggregates=(AggregateSpec("n", "count", "s.qty"),),
        ),
    ]
