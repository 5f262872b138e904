"""Locality study: how pre-existing tuple placement shapes join traffic.

Reproduces the spirit of Figures 4-6: both tables repeat every join key
five times, and we sweep how those repeats are placed — fully
collocated on one node, split 2/2/1, or spread across five nodes — with
and without cross-table alignment.  Track join exploits every degree of
collocation; hash join is oblivious to all of them.

Also prints per-node send/receive balance, the Section 5 "locality
skew" concern: schedules that minimize total traffic can concentrate it
on few links.

Run:  python examples/locality_patterns.py
"""

from __future__ import annotations

from repro import GraceHashJoin, JoinSpec, TrackJoin
from repro.workloads import (
    PATTERN_COLLOCATED,
    PATTERN_PARTIAL,
    PATTERN_SPREAD,
    both_sides_pattern_workload,
)


def main() -> None:
    spec = JoinSpec(materialize=False, group_locations=True)
    print("Both tables: 40k distinct keys x 5 repeats, 16 nodes, 30/60-byte rows\n")
    header = (
        f"{'placement':<34} {'HJ MB':>8} {'2TJ-R MB':>9} {'4TJ MB':>8} "
        f"{'4TJ/HJ':>7} {'4TJ send skew':>13}"
    )
    print(header)
    print("-" * len(header))
    for inter in (False, True):
        for pattern in (PATTERN_COLLOCATED, PATTERN_PARTIAL, PATTERN_SPREAD):
            workload = both_sides_pattern_workload(
                pattern, inter_collocated=inter, scaled_keys=40_000
            )
            hash_join = GraceHashJoin().run(
                workload.cluster, workload.table_r, workload.table_s, spec
            )
            two = TrackJoin("2TJ-R").run(
                workload.cluster, workload.table_r, workload.table_s, spec
            )
            four = TrackJoin("4TJ").run(
                workload.cluster, workload.table_r, workload.table_s, spec
            )
            label = (
                f"{','.join(map(str, pattern))} "
                f"({'inter+intra' if inter else 'intra only'})"
            )
            print(
                f"{label:<34} {hash_join.network_bytes / 1e6:>8.2f} "
                f"{two.network_bytes / 1e6:>9.2f} "
                f"{four.network_bytes / 1e6:>8.2f} "
                f"{four.network_bytes / hash_join.network_bytes:>7.2f} "
                f"{four.profile.node_load.send_skew:>13.2f}"
            )
    print(
        "\nFully collocated matches (5,0,... inter+intra) leave track join\n"
        "nothing to ship but tracking metadata; hash join never notices."
    )


if __name__ == "__main__":
    main()
