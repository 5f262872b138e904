"""Ablation: Section 2.4 traffic compression on workload X Q1.

Track join's metadata (tracking keys, location messages) is the price
it pays for optimal payload schedules; delta-coded key streams and
node-grouped location messages shrink exactly that metadata.
"""

from repro import JoinSpec, TrackJoin
from repro.cluster import MessageClass
from repro.experiments.report import ExperimentResult, Group, Row
from repro.workloads import workload_x

GIB = 2.0**30


def run_ablation(scale_denominator: int = 2048) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ablation-compression",
        title="Section 2.4 metadata compression (workload X Q1, 4TJ)",
        unit="GiB (paper scale)",
    )
    workload = workload_x(query=1, scale_denominator=scale_denominator)
    group = Group(label="X Q1 original ordering")
    variants = [
        ("plain", JoinSpec(materialize=False)),
        ("delta tracking keys", JoinSpec(materialize=False, delta_keys=True)),
        ("grouped locations", JoinSpec(materialize=False, group_locations=True)),
        ("delta + grouped", JoinSpec(materialize=False, delta_keys=True, group_locations=True)),
    ]
    for name, spec in variants:
        run = TrackJoin("4TJ").run(workload.cluster, workload.table_r, workload.table_s, spec)
        group.rows.append(
            Row(
                name,
                run.network_bytes * workload.scale / GIB,
                breakdown={
                    "Keys & Counts": run.class_bytes(MessageClass.KEYS_COUNTS)
                    * workload.scale
                    / GIB,
                    "Keys & Nodes": run.class_bytes(MessageClass.KEYS_NODES)
                    * workload.scale
                    / GIB,
                },
            )
        )
    result.groups.append(group)
    return result


def test_ablation_compression(benchmark, record_report):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    record_report(result)
    rows = {row.label: row.measured for row in result.groups[0].rows}
    assert rows["delta tracking keys"] < rows["plain"]
    assert rows["grouped locations"] < rows["plain"]
    assert rows["delta + grouped"] <= min(
        rows["delta tracking keys"], rows["grouped locations"]
    )
