"""Quickstart: run every distributed join on one dataset and compare.

Builds a 8-node simulated cluster, scatters two tables with partially
overlapping keys across it, executes all seven algorithms from the
paper plus the rid-based baselines, and prints network traffic per
message class.  Every algorithm produces the identical join output —
they differ only in what crosses the wire.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    BroadcastJoin,
    Cluster,
    GraceHashJoin,
    JoinSpec,
    Schema,
    TrackJoin,
    random_uniform,
)
from repro.joins import LateMaterializationHashJoin, TrackingAwareHashJoin


def main() -> None:
    num_nodes = 8
    cluster = Cluster(num_nodes)
    rng = np.random.default_rng(42)

    # R: 200k tuples with a 4-byte key and 8-byte payload.
    # S: 300k tuples with a 4-byte key and 24-byte payload.
    # Keys overlap on [100k, 200k) and repeat up to a few times.
    schema_r = Schema.with_widths(key_bits=32, payload_bits=64)
    schema_s = Schema.with_widths(key_bits=32, payload_bits=192)
    keys_r = rng.integers(0, 200_000, 200_000)
    keys_s = rng.integers(100_000, 300_000, 300_000)
    table_r = cluster.table_from_assignment(
        "R", schema_r, keys_r, random_uniform(len(keys_r), num_nodes, seed=1)
    )
    table_s = cluster.table_from_assignment(
        "S", schema_s, keys_s, random_uniform(len(keys_s), num_nodes, seed=2)
    )

    algorithms = [
        BroadcastJoin("R"),
        BroadcastJoin("S"),
        GraceHashJoin(),
        LateMaterializationHashJoin(),
        TrackingAwareHashJoin(),
        TrackJoin("2TJ-R"),
        TrackJoin("2TJ-S"),
        TrackJoin("3TJ"),
        TrackJoin("4TJ"),
    ]

    print(f"{num_nodes}-node cluster, R = {table_r.total_rows:,} x "
          f"{schema_r.tuple_width(JoinSpec().encoding):.0f} B, "
          f"S = {table_s.total_rows:,} x "
          f"{schema_s.tuple_width(JoinSpec().encoding):.0f} B\n")
    header = f"{'algorithm':<10} {'output rows':>12} {'network MB':>11}  breakdown"
    print(header)
    print("-" * len(header))
    for algorithm in algorithms:
        result = algorithm.run(cluster, table_r, table_s)
        parts = ", ".join(
            f"{name}={nbytes / 1e6:.2f}"
            for name, nbytes in result.breakdown().items()
            if nbytes
        )
        print(
            f"{result.algorithm:<10} {result.output_rows:>12,} "
            f"{result.network_bytes / 1e6:>11.2f}  {parts}"
        )

    print(
        "\nAll algorithms compute the same join; track join (4TJ) minimizes\n"
        "payload transfers by scheduling each distinct key independently."
    )


if __name__ == "__main__":
    main()
