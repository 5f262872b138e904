"""Ablation: cluster size N.

Hash join's in-place probability is 1/N, so its traffic saturates as N
grows; track join's tracking cost is N-insensitive for unique keys
(nR = 1) while its payload advantage persists.  The paper argues this
in Section 3.1; here we measure it.
"""

from repro import GraceHashJoin, JoinSpec, TrackJoin
from repro.experiments.report import ExperimentResult, Group, Row
from repro.workloads import unique_keys_workload

GIB = 2.0**30


def run_ablation(scaled_tuples: int = 100_000) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ablation-N",
        title="HJ vs 2TJ-R traffic vs cluster size (Fig 3 workload, 20/60 B)",
        unit="GiB (paper scale)",
    )
    spec = JoinSpec(materialize=False, group_locations=True)
    for num_nodes in (4, 8, 16, 32):
        workload = unique_keys_workload(num_nodes=num_nodes, scaled_tuples=scaled_tuples)
        group = Group(label=f"N = {num_nodes}")
        for algorithm in (GraceHashJoin(), TrackJoin("2TJ-R")):
            run = algorithm.run(workload.cluster, workload.table_r, workload.table_s, spec)
            group.rows.append(Row(run.algorithm, run.network_bytes * workload.scale / GIB))
        result.groups.append(group)
    return result


def test_ablation_nodes(benchmark, record_report):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    record_report(result)
    for group in result.groups:
        hj = result.measured(group.label, "HJ")
        tj = result.measured(group.label, "2TJ-R")
        assert tj < hj, group.label
    # Hash join saturates with N; the advantage never inverts.
    hj_series = [result.measured(g.label, "HJ") for g in result.groups]
    assert hj_series == sorted(hj_series)
