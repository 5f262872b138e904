"""Ablation: key-frequency skew (extension beyond the paper's figures).

Zipf-distributed keys stress the algorithms differently: hash join
funnels every copy of a hot key to one hash node (a balance problem,
not a traffic one), while track join's per-key schedules consolidate
hot keys at their largest pre-existing holder.  This sweep measures
traffic and receive-balance across skew levels, including the
balance-aware Section 5 extension.
"""

from repro import GraceHashJoin, JoinSpec, TrackJoin
from repro.experiments.report import ExperimentResult, Group, Row
from repro.workloads import zipf_workload


def run_ablation(tuples: int = 100_000) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ablation-skew",
        title="Traffic and receive balance under key-frequency skew (16 nodes)",
        unit="MB (and receive skew, max/mean)",
    )
    spec = JoinSpec(materialize=False, group_locations=True)
    for skew in (0.0, 0.6, 1.0):
        workload = zipf_workload(
            tuples_per_table=tuples, distinct_keys=tuples // 10, skew=skew
        )
        group = Group(label=f"zipf skew = {skew}")
        for algorithm in (GraceHashJoin(), TrackJoin("4TJ"), TrackJoin("4TJ-bal")):
            run = algorithm.run(workload.cluster, workload.table_r, workload.table_s, spec)
            group.rows.append(
                Row(
                    run.algorithm,
                    run.network_bytes / 1e6,
                    breakdown={"receive skew": run.profile.node_load.receive_skew},
                )
            )
        result.groups.append(group)
    return result


def test_ablation_skew(benchmark, record_report):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    record_report(result)
    for group in result.groups:
        # Balance-aware scheduling never increases traffic beyond 4TJ
        # (it re-decides only exact cost ties) ...
        four = result.row(group.label, "4TJ")
        balanced = result.row(group.label, "4TJ-bal")
        assert balanced.measured <= four.measured * 1.001
        # ... and never worsens receive balance.
        assert (
            balanced.breakdown["receive skew"]
            <= four.breakdown["receive skew"] + 1e-9
        )
