"""Query optimization: pick the join algorithm from the cost model.

Section 3 of the paper gives closed-form traffic formulas so a query
optimizer can choose between broadcast join, hash join, and the track
join variants before execution.  This example:

1. builds three joins with very different shapes (tiny dimension table,
   narrow-payload fact join, wide-payload join),
2. asks the analytic optimizer to rank the algorithms,
3. optionally refines the estimate with correlated sampling, and
4. validates the choice by actually running the top candidates.

Run:  python examples/query_optimizer.py
"""

from __future__ import annotations

import numpy as np

from repro import Cluster, JoinSpec, Schema, random_uniform
from repro.costmodel import JoinStats, correlated_sample, estimate_classes
from repro.costmodel.optimizer import choose_algorithm, rank_algorithms
from repro.joins.registry import create


def build_join(name, cluster, tuples_r, tuples_s, distinct, payload_bits_r, payload_bits_s, seed):
    rng = np.random.default_rng(seed)
    keys_r = rng.integers(0, distinct, tuples_r)
    keys_s = rng.integers(0, distinct, tuples_s)
    schema_r = Schema.with_widths(32, payload_bits_r)
    schema_s = Schema.with_widths(32, payload_bits_s)
    table_r = cluster.table_from_assignment(
        "R", schema_r, keys_r, random_uniform(tuples_r, cluster.num_nodes, seed + 1)
    )
    table_s = cluster.table_from_assignment(
        "S", schema_s, keys_s, random_uniform(tuples_s, cluster.num_nodes, seed + 2)
    )
    stats = JoinStats(
        num_nodes=cluster.num_nodes,
        tuples_r=tuples_r,
        tuples_s=tuples_s,
        distinct_r=min(distinct, tuples_r),
        distinct_s=min(distinct, tuples_s),
        key_width=4,
        payload_r=payload_bits_r / 8,
        payload_s=payload_bits_s / 8,
    )
    return name, table_r, table_s, stats


def main() -> None:
    cluster = Cluster(8)
    spec = JoinSpec(materialize=False)
    scenarios = [
        build_join("tiny dimension x big fact", cluster, 2_000, 400_000, 2_000, 64, 64, 1),
        build_join("narrow payloads, unique keys", cluster, 150_000, 150_000, 150_000, 16, 16, 2),
        build_join("wide payloads, repeated keys", cluster, 120_000, 240_000, 40_000, 64, 320, 3),
    ]
    for name, table_r, table_s, stats in scenarios:
        print(f"== {name} ==")
        choice = choose_algorithm(stats)
        note = f"  ({choice.note})" if choice.note else ""
        print(f"optimizer picks: {choice.algorithm}{note}")

        sample = correlated_sample(table_r, table_s, rate=0.1, encoding=spec.encoding)
        classes, estimated = estimate_classes(sample)
        print(
            f"correlated sample (10%): classes rs={classes.rs:.2f} "
            f"sr={classes.sr:.2f} hash-like={classes.hashlike:.2f}, "
            f"estimated schedule cost {estimated / 1e6:.2f} MB"
        )

        print(f"{'algorithm':<8} {'predicted MB':>13} {'measured MB':>12}")
        for estimate in rank_algorithms(stats)[:4]:
            result = create(estimate.algorithm).run(cluster, table_r, table_s, spec)
            print(
                f"{estimate.algorithm:<8} {estimate.cost_bytes / 1e6:>13.2f} "
                f"{result.network_bytes / 1e6:>12.2f}"
            )
        print()


if __name__ == "__main__":
    main()
