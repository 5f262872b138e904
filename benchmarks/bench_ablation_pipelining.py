"""Ablation: pipelined (overlapped) execution bound (Section 5).

The paper's implementation is de-pipelined (CPU and network times add
up); Section 5 notes a pipelined implementation could overlap them.
This bench computes both bounds from the same execution profiles on
the Table 2 configurations: on the network-bound 1 GbE cluster overlap
barely helps (transfers dominate), but on a 10x faster network the CPU
of track join starts to matter and overlap recovers most of it.
"""

from repro import JoinSpec, TrackJoin, paper_cluster_2014, scaled_network
from repro.experiments.report import ExperimentResult, Group, Row
from repro.joins.grace_hash import GraceHashJoin
from repro.workloads import workload_x


def run_ablation(scale_x: int = 2048) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ablation-pipelining",
        title="De-pipelined vs fully-overlapped execution bounds (X original)",
        unit="seconds (modeled, paper scale)",
    )
    workload = workload_x(
        query=1,
        num_nodes=4,
        scale_denominator=scale_x,
        ordering="original",
        implementation_widths=True,
    )
    spec = JoinSpec(materialize=False)
    base = paper_cluster_2014(4)
    fast = scaled_network(base, 10.0)
    for label, model in (("1 GbE", base), ("10x network", fast)):
        group = Group(label=label)
        for algorithm in (GraceHashJoin(), TrackJoin("2TJ-R")):
            run = algorithm.run(workload.cluster, workload.table_r, workload.table_s, spec)
            sequential = model.total_seconds(run.profile) * workload.scale
            overlapped = model.total_seconds(run.profile, overlap=True) * workload.scale
            group.rows.append(Row(f"{run.algorithm} de-pipelined", sequential))
            group.rows.append(Row(f"{run.algorithm} overlapped", overlapped))
        result.groups.append(group)
    return result


def test_ablation_pipelining(benchmark, record_report):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    record_report(result)
    for group in result.groups:
        for algorithm in ("HJ", "2TJ-R"):
            sequential = result.measured(group.label, f"{algorithm} de-pipelined")
            overlapped = result.measured(group.label, f"{algorithm} overlapped")
            assert overlapped <= sequential
            assert overlapped >= sequential / 2  # max(a,b) >= (a+b)/2
    # Overlap matters more when the network is no longer the bottleneck.
    slow_gain = 1 - result.measured("1 GbE", "2TJ-R overlapped") / result.measured(
        "1 GbE", "2TJ-R de-pipelined"
    )
    fast_gain = 1 - result.measured(
        "10x network", "2TJ-R overlapped"
    ) / result.measured("10x network", "2TJ-R de-pipelined")
    assert fast_gain > slow_gain
