"""End-to-end analytics scenario: the workload X surrogate.

Runs the slowest distributed join shared by the five most expensive
queries of the paper's commercial workload X (synthesized from the
published Table 1 statistics), compares hash join against track join
per query, and projects wall-clock time on the paper's 4-node 1 GbE
cluster and on a 10x faster network using the calibrated hardware
model.

Run:  python examples/analytics_workload.py
"""

from __future__ import annotations

from repro import GraceHashJoin, JoinSpec, TrackJoin, paper_cluster_2014, scaled_network
from repro.workloads import workload_x


def main() -> None:
    spec = JoinSpec(materialize=False, group_locations=True)
    print("Workload X: slowest join of queries Q1-Q5 (dictionary codes, 16 nodes)\n")
    header = (
        f"{'query':<6} {'HJ GiB':>8} {'TJ GiB':>8} {'reduction':>10}"
    )
    print(header)
    print("-" * len(header))
    for query in range(1, 6):
        workload = workload_x(query=query, scale_denominator=1024)
        hash_join = GraceHashJoin().run(
            workload.cluster, workload.table_r, workload.table_s, spec
        )
        track = TrackJoin("2TJ-R").run(
            workload.cluster, workload.table_r, workload.table_s, spec
        )
        hj_gib = hash_join.network_bytes * workload.scale / 2**30
        tj_gib = track.network_bytes * workload.scale / 2**30
        print(
            f"Q{query:<5} {hj_gib:>8.2f} {tj_gib:>8.2f} "
            f"{1 - tj_gib / hj_gib:>9.1%}"
        )

    print("\nProjected wall-clock on the paper's 4-node implementation cluster:")
    workload = workload_x(
        query=1, num_nodes=4, scale_denominator=1024, implementation_widths=True
    )
    model = paper_cluster_2014(num_nodes=4)
    fast = scaled_network(model, 10.0)
    impl_spec = JoinSpec(materialize=False)
    for label, algorithm in (("hash join", GraceHashJoin()), ("track join", TrackJoin("2TJ-R"))):
        result = algorithm.run(workload.cluster, workload.table_r, workload.table_s, impl_spec)
        cpu = model.cpu_seconds(result.profile) * workload.scale
        net = model.network_seconds(result.profile) * workload.scale
        net_fast = fast.network_seconds(result.profile) * workload.scale
        print(
            f"  {label:<11} CPU {cpu:6.2f} s + network {net:6.2f} s "
            f"(1 GbE)  |  {net_fast:5.2f} s (10x network)"
        )


if __name__ == "__main__":
    main()
