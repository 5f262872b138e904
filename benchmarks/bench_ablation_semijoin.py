"""Ablation: semi-join Bloom filtering vs track join (Section 3.3).

On a selective join (10% of keys match), Bloom filtering rescues hash
join from shipping non-matching tuples — but track join's tracking
phase already performs perfect semi-join filtering, so adding Bloom
filters to it only pays the filter broadcast.
"""

import numpy as np

from repro import Cluster, GraceHashJoin, JoinSpec, Schema, TrackJoin, random_uniform
from repro.experiments.report import ExperimentResult, Group, Row
from repro.joins import SemiJoinFilteredJoin


def run_ablation(tuples: int = 200_000) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ablation-semijoin",
        title="Semi-join filtering on a 10%-selective join (8 nodes)",
        unit="MB",
    )
    cluster = Cluster(8)
    schema_r = Schema.with_widths(32, 64)
    schema_s = Schema.with_widths(32, 192)
    keys_r = np.arange(tuples, dtype=np.int64)
    keys_s = np.arange(int(tuples * 0.9), int(tuples * 1.9), dtype=np.int64)
    table_r = cluster.table_from_assignment(
        "R", schema_r, keys_r, random_uniform(len(keys_r), 8, 1)
    )
    table_s = cluster.table_from_assignment(
        "S", schema_s, keys_s, random_uniform(len(keys_s), 8, 2)
    )
    spec = JoinSpec(materialize=False)
    group = Group(label="10% input selectivity")
    for algorithm in (
        GraceHashJoin(),
        SemiJoinFilteredJoin(GraceHashJoin()),
        TrackJoin("2TJ-R"),
        SemiJoinFilteredJoin(TrackJoin("2TJ-R")),
    ):
        run = algorithm.run(cluster, table_r, table_s, spec)
        group.rows.append(Row(run.algorithm, run.network_bytes / 1e6))
    result.groups.append(group)
    return result


def test_ablation_semijoin(benchmark, record_report):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    record_report(result)
    rows = {row.label: row.measured for row in result.groups[0].rows}
    # Filtering pays off for hash join on selective inputs...
    assert rows["BF+HJ"] < rows["HJ"]
    # ...but plain track join already beats even the filtered hash join,
    assert rows["2TJ-R"] < rows["BF+HJ"]
    # and adding filters to track join only adds the broadcast cost.
    assert rows["BF+2TJ-R"] >= rows["2TJ-R"]
