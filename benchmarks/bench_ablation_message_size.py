"""Ablation: location-message width M (Section 2.2 cost terms).

Track join's schedules charge ``Rnodes * Snodes * M`` per key for
location messages; the paper uses 1-byte node ids.  This sweep shows
how wider ids (larger clusters, richer metadata) erode — but do not
eliminate — track join's advantage, and that the Section 2.4 grouped
form flattens the dependence.
"""

from repro import JoinSpec, TrackJoin
from repro.cluster import MessageClass
from repro.experiments.report import ExperimentResult, Group, Row
from repro.workloads import unique_keys_workload

GIB = 2.0**30


def run_ablation(scaled_tuples: int = 100_000) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ablation-M",
        title="4TJ traffic vs location message width M (Fig 3 workload, 20/60 B)",
        unit="GiB (paper scale)",
    )
    workload = unique_keys_workload(scaled_tuples=scaled_tuples)
    for grouped in (False, True):
        group = Group(label="grouped locations" if grouped else "plain locations")
        for width in (1.0, 2.0, 4.0, 8.0):
            spec = JoinSpec(
                materialize=False, location_width=width, group_locations=grouped
            )
            run = TrackJoin("4TJ").run(workload.cluster, workload.table_r, workload.table_s, spec)
            group.rows.append(
                Row(
                    f"M = {width:.0f} B",
                    run.network_bytes * workload.scale / GIB,
                    breakdown={
                        "Keys & Nodes": run.class_bytes(MessageClass.KEYS_NODES)
                        * workload.scale
                        / GIB
                    },
                )
            )
        result.groups.append(group)
    return result


def test_ablation_message_size(benchmark, record_report):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    record_report(result)
    plain = [row.measured for row in result.groups[0].rows]
    grouped = [row.measured for row in result.groups[1].rows]
    assert plain == sorted(plain)  # traffic grows with M
    # Grouping amortizes node labels, so it is never worse.
    for p, g in zip(plain, grouped):
        assert g <= p
