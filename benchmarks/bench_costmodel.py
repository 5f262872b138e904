"""Validation: Section 3.1 analytic formulas vs the simulator.

The query optimizer relies on the closed-form costs; this bench checks
them against measured traffic on uniform-random placements (the regime
the formulas model) across several width configurations.
"""

import numpy as np

from repro import Cluster, GraceHashJoin, JoinSpec, Schema, TrackJoin, random_uniform
from repro.costmodel import JoinStats, hash_join_cost, track2_cost
from repro.experiments.report import ExperimentResult, Group, Row


def run_validation(tuples: int = 100_000) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="costmodel-validation",
        title="Analytic traffic formulas vs simulation (uniform placement)",
        unit="MB",
        notes="'paper' column holds the closed-form prediction.",
    )
    for payload_r, payload_s in ((16, 56), (8, 8), (36, 56)):
        cluster = Cluster(16)
        keys = np.arange(tuples, dtype=np.int64)
        schema_r = Schema.with_widths(32, payload_r * 8)
        schema_s = Schema.with_widths(32, payload_s * 8)
        table_r = cluster.table_from_assignment(
            "R", schema_r, keys, random_uniform(tuples, 16, 1)
        )
        table_s = cluster.table_from_assignment(
            "S", schema_s, keys, random_uniform(tuples, 16, 2)
        )
        stats = JoinStats(
            num_nodes=16,
            tuples_r=tuples,
            tuples_s=tuples,
            distinct_r=tuples,
            distinct_s=tuples,
            key_width=4,
            payload_r=payload_r,
            payload_s=payload_s,
        )
        spec = JoinSpec(materialize=False)
        group = Group(label=f"wR={payload_r} B, wS={payload_s} B")
        measured_hj = GraceHashJoin().run(cluster, table_r, table_s, spec).network_bytes
        group.rows.append(
            Row(
                "HJ",
                measured_hj / 1e6,
                paper=hash_join_cost(stats, include_local_discount=True) / 1e6,
            )
        )
        measured_tj = TrackJoin("2TJ-R").run(cluster, table_r, table_s, spec).network_bytes
        group.rows.append(
            Row("2TJ-R", measured_tj / 1e6, paper=track2_cost(stats, "RS") / 1e6)
        )
        result.groups.append(group)
    return result


def test_costmodel_validation(benchmark, record_report):
    result = benchmark.pedantic(run_validation, rounds=1, iterations=1)
    record_report(result)
    for group in result.groups:
        for row in group.rows:
            assert row.ratio is not None and 0.8 < row.ratio < 1.2, (
                f"{group.label}/{row.label}: {row.ratio}"
            )
