"""The five benchmark workloads: inputs, configuration and references.

A workload is a pair of distributed tables on a cluster (the *join
input*), plus the two small resident tables and nine plans of the query
mix.  Every workload measures both surfaces of the system — operator
runs (``create(alg).run(...)``) and queries through ``QueryService`` —
and differs in the join input, the engine configuration and how the
measured seconds are split between the two (``query_share``).

Inputs depend on the seed only; the program under test sees nothing but
the generated tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cluster.cluster import Cluster
from repro.encoding.dictionary import DictionaryEncoding
from repro.joins.base import JoinSpec
from repro.query import Aggregate, AggregateSpec, ColumnPredicate, Join, PlanNode, Scan
from repro.storage.placement import random_uniform
from repro.storage.schema import Column, Schema
from repro.storage.table import DistributedTable
from repro.workloads import (
    PATTERN_PARTIAL,
    Workload,
    both_sides_pattern_workload,
    hot_key_workload,
    unique_keys_workload,
)

__all__ = [
    "ALGORITHMS",
    "EXTRA_ALGORITHMS",
    "PREFIX",
    "QUERY_NODES",
    "SMOKE_SCALE",
    "WORKLOADS",
    "WorkloadConfig",
    "query_plans",
    "query_tables",
    "reference_cardinality",
]

#: Timed in every workload, round-robin inside each round.
ALGORITHMS = ("HJ", "4TJ", "4TJ-shard")
#: Timed in the traced run only (``tj2.run_s`` / ``tj3.run_s``).
EXTRA_ALGORITHMS = ("2TJ-R", "3TJ")
#: Metric-name prefix of each algorithm.
PREFIX = {"HJ": "hj", "4TJ": "tj4", "4TJ-shard": "shard", "2TJ-R": "tj2", "3TJ": "tj3"}

#: ``--smoke`` divides every input size by this.
SMOKE_SCALE = 50

#: The spec the paper's traffic figures use: sizes are accounted, output
#: payloads are not built.
FIGURE_SPEC = JoinSpec(DictionaryEncoding(), materialize=False, group_locations=True)

#: Cluster size of the query mix's resident tables.
QUERY_NODES = 8


@dataclass(frozen=True)
class WorkloadConfig:
    """One named workload.

    ``repeats`` gives, per algorithm, how many back-to-back runs make
    one sample (runs under about 0.25 s are repeated and the time
    divided).  ``workers`` above 1 turns on the phase workers, exchange
    pipelining and chunked kernels together.  ``query_share`` is the
    share of the measured seconds spent on the query mix.
    """

    why: str
    #: ``(seed, scale) -> Workload``; ``None`` joins the query mix's own
    #: two resident tables.
    build: Callable[[int, int], Workload] | None
    spec: JoinSpec = FIGURE_SPEC
    repeats: dict[str, int] = field(default_factory=dict)
    workers: int = 1
    query_share: float = 0.2


def _unique(seed: int, scale: int) -> Workload:
    return unique_keys_workload(
        16, scaled_tuples=1_000_000 // scale, row_bytes_r=20, row_bytes_s=60, seed=seed
    )


def _locality(seed: int, scale: int) -> Workload:
    return both_sides_pattern_workload(
        PATTERN_PARTIAL, True, 16, scaled_keys=100_000 // scale, seed=seed
    )


def _skew(seed: int, scale: int) -> Workload:
    # Not to be scaled up: output grows quadratically with the hot keys
    # (100 k tuples per table is 110 M output rows and 4.6 GB).
    return hot_key_workload(
        16, tuples_per_table=40_000 // scale, distinct_keys=4_000 // scale, skew=1.2, seed=seed
    )


WORKLOADS: dict[str, WorkloadConfig] = {
    "unique_1m": WorkloadConfig(
        why="Fig. 3 no-locality worst case at 1 M tuples per table: every key tracked, "
        "nothing migrates; tracking, scheduling and selective broadcast dominate 4TJ",
        build=_unique,
        repeats={"HJ": 5},
    ),
    "locality_5x": WorkloadConfig(
        why="Fig. 6 regime (keys repeat 5x, inter+intra collocation): migration fires and "
        "local joins plus table kernels outweigh tracking and scheduling",
        build=_locality,
        repeats={"HJ": 4},
    ),
    "skew_hot": WorkloadConfig(
        why="Zipf 1.2 hot keys, 80 k tuples in and 18.7 M rows out: local joins do nearly "
        "all the work, so it bypasses tracking changes; only here sharding and max-recv differ",
        build=_skew,
    ),
    "unique_1m_w2": WorkloadConfig(
        why="unique_1m tables with 2 phase workers, pipeline depth 2 and 2 kernel workers: "
        "the only workload with repro.parallel and pipelined phases on the blocking path",
        build=_unique,
        repeats={"HJ": 4},
        workers=2,
    ),
    "query_mix": WorkloadConfig(
        why="closed loop of 2 clients over nine plans on small resident tables: the only "
        "workload led by query.executor, costmodel and serve, where per-call cost dominates",
        build=None,
        spec=JoinSpec(),
        repeats={"HJ": 8, "4TJ": 4, "4TJ-shard": 4, "2TJ-R": 4, "3TJ": 4},
        query_share=0.75,
    ),
}


def query_tables(seed: int, scale: int) -> dict[str, DistributedTable]:
    """The resident tables: orders (20 k rows) and items (30 k rows).

    Both draw their keys from the same 2.5 k-value domain, so the plain
    join returns about 240 k rows.
    """
    rng = np.random.default_rng(seed)
    rows_orders = 20_000 // scale
    rows_items = 30_000 // scale
    distinct = max(1, 2_500 // scale)
    cluster = Cluster(QUERY_NODES)
    orders = cluster.table_from_assignment(
        "e2e_orders",
        Schema((Column("key", bits=32),), (Column("amount", bits=64), Column("cust", bits=64))),
        rng.integers(0, distinct, rows_orders).astype(np.int64),
        random_uniform(rows_orders, QUERY_NODES, seed=seed * 19 + 1),
        columns={
            "amount": rng.integers(1, 100, rows_orders).astype(np.int64),
            "cust": rng.integers(0, 200, rows_orders).astype(np.int64),
        },
    )
    items = cluster.table_from_assignment(
        "e2e_items",
        Schema((Column("key", bits=32),), (Column("qty", bits=64),)),
        rng.integers(0, distinct, rows_items).astype(np.int64),
        random_uniform(rows_items, QUERY_NODES, seed=seed * 19 + 2),
        columns={"qty": rng.integers(1, 10, rows_items).astype(np.int64)},
    )
    return {orders.name: orders, items.name: items}


def query_plans(tables: dict[str, DistributedTable]) -> list[PlanNode]:
    """The nine plans of the mix: 2 filter scans, 5 joins, 2 join+aggregate."""
    orders = tables["e2e_orders"]
    items = tables["e2e_items"]
    return [
        Scan(orders, ColumnPredicate("amount", "<", 50)),
        Scan(items, ColumnPredicate("qty", ">=", 5)),
        Join(Scan(orders), Scan(items), algorithm="HJ"),
        Join(Scan(orders), Scan(items), algorithm="2TJ-R"),
        Join(Scan(orders), Scan(items)),
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


def reference_cardinality(table_r: DistributedTable, table_s: DistributedTable) -> int:
    """Equi-join output rows from the gathered keys, by plain numpy.

    Shares no code with ``repro.joins.local``: per distinct key, the
    product of its repeat counts on the two sides, summed.
    """
    keys_r, counts_r = np.unique(table_r.all_keys(), return_counts=True)
    keys_s, counts_s = np.unique(table_s.all_keys(), return_counts=True)
    _, in_r, in_s = np.intersect1d(keys_r, keys_s, assume_unique=True, return_indices=True)
    return int(np.dot(counts_r[in_r].astype(np.int64), counts_s[in_s].astype(np.int64)))
