"""Traffic compression on top of track join (Section 2.4).

Track join imposes no message order within a phase, which unlocks
compression of its metadata streams: sorted-delta coding of tracking
keys, node-grouped location messages, and radix-prefix packing of key
columns.  This example measures each technique on a real join — both
with the byte-accounted simulator and with the actual codecs.

Run:  python examples/traffic_compression.py
"""

from __future__ import annotations

import numpy as np

from repro import Cluster, JoinSpec, Schema, TrackJoin, random_uniform
from repro.cluster import MessageClass
from repro.encoding import (
    DeltaEncoding,
    PrefixCodec,
    delta_encoded_size,
    prefix_partitioned_size,
)


def main() -> None:
    cluster = Cluster(8)
    rng = np.random.default_rng(0)
    keys_r = rng.integers(0, 300_000, 250_000)
    keys_s = rng.integers(0, 300_000, 250_000)
    schema = Schema.with_widths(32, 128)
    table_r = cluster.table_from_assignment(
        "R", schema, keys_r, random_uniform(len(keys_r), 8, 1)
    )
    table_s = cluster.table_from_assignment(
        "S", schema, keys_s, random_uniform(len(keys_s), 8, 2)
    )

    variants = [
        ("plain", JoinSpec(materialize=False)),
        ("delta-coded tracking keys", JoinSpec(materialize=False, delta_keys=True)),
        ("node-grouped locations", JoinSpec(materialize=False, group_locations=True)),
        (
            "both",
            JoinSpec(materialize=False, delta_keys=True, group_locations=True),
        ),
    ]
    print("4-phase track join, 8 nodes, 250k x 250k tuples\n")
    header = f"{'variant':<28} {'tracking MB':>12} {'locations MB':>13} {'total MB':>9}"
    print(header)
    print("-" * len(header))
    for name, spec in variants:
        result = TrackJoin("4TJ").run(cluster, table_r, table_s, spec)
        print(
            f"{name:<28} "
            f"{result.class_bytes(MessageClass.KEYS_COUNTS) / 1e6:>12.3f} "
            f"{result.class_bytes(MessageClass.KEYS_NODES) / 1e6:>13.3f} "
            f"{result.network_bytes / 1e6:>9.3f}"
        )

    # The codecs are real, not just accounting: show actual byte strings.
    sample = np.unique(rng.integers(0, 2**30, 50_000))
    plain_bytes = len(sample) * 4
    delta_bytes = delta_encoded_size(sample)
    codec = DeltaEncoding()
    encoded = codec.encode(sample)
    assert np.array_equal(codec.decode(encoded, len(sample)), np.sort(sample))
    print(
        f"\ndelta codec on {len(sample):,} sorted 30-bit keys: "
        f"{plain_bytes:,} B plain -> {len(encoded):,} B encoded "
        f"(accounting model: {delta_bytes:,} B)"
    )

    prefix = PrefixCodec(value_bits=30, prefix_bits=12)
    packed = prefix.encode(sample)
    assert np.array_equal(np.sort(prefix.decode(packed)), np.sort(sample))
    modeled = prefix_partitioned_size(sample, 30, 12)
    print(
        f"radix-prefix (p=12) on the same keys: {len(packed):,} B encoded "
        f"(accounting model: {modeled:,.0f} B)"
    )


if __name__ == "__main__":
    main()
