"""Tests for the MapReduce engine and the joins built on it."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Cluster, GraceHashJoin, JoinSpec, TrackJoin
from repro.cluster import MessageClass
from repro.mapreduce import Channel, MapReduceJob, mr_hash_join, mr_track_join
from repro.storage import LocalPartition

from conftest import canonical_output, make_tables


def mr_canonical(result_or_partition):
    """Canonical array for MR join outputs (keys, r.rid, s.rid)."""
    part = result_or_partition.gathered()
    arr = np.stack([part.keys, part.columns["r.rid"], part.columns["s.rid"]])
    return arr[:, np.lexsort(arr)]


class TestEngine:
    def test_word_count_style_job(self):
        """The canonical MR example: count occurrences per key."""
        cluster = Cluster(3)
        inputs = [
            LocalPartition(keys=np.array([1, 2, 2]), columns={}),
            LocalPartition(keys=np.array([2, 3]), columns={}),
            LocalPartition(keys=np.array([1]), columns={}),
        ]

        def mapper(node, partition):
            return LocalPartition(
                keys=partition.keys,
                columns={"one": np.ones(partition.num_rows, dtype=np.int64)},
            )

        def reducer(node, groups):
            records = groups["words"]
            if records.num_rows == 0:
                return LocalPartition.empty(("count",))
            from repro.util import segment_boundaries

            starts = segment_boundaries(records.keys)
            return LocalPartition(
                keys=records.keys[starts],
                columns={"count": np.add.reduceat(records.columns["one"], starts)},
            )

        job = MapReduceJob(
            channels=[Channel("words", inputs, mapper, record_width=8.0)],
            reducer=reducer,
        )
        result = job.run(cluster)
        out = result.gathered()
        counts = dict(zip(out.keys.tolist(), out.columns["count"].tolist()))
        assert counts == {1: 2, 2: 3, 3: 1}
        assert result.network_bytes > 0

    def test_partitioner_length_checked(self):
        cluster = Cluster(2)
        inputs = [LocalPartition(keys=np.array([1, 2]), columns={})] + [
            LocalPartition.empty()
        ]

        def bad_partitioner(keys):
            return np.array([0])

        job = MapReduceJob(
            channels=[
                Channel(
                    "x",
                    inputs,
                    lambda n, p: p,
                    record_width=4.0,
                    partitioner=bad_partitioner,
                )
            ],
            reducer=lambda n, g: LocalPartition.empty(),
        )
        with pytest.raises(ValueError):
            job.run(cluster)

    def test_expanding_partitioner_broadcasts(self):
        """A (record_idx, dest) partitioner can replicate records."""
        cluster = Cluster(3)
        inputs = [LocalPartition(keys=np.array([7]), columns={})] + [
            LocalPartition.empty() for _ in range(2)
        ]

        def everywhere(keys):
            idx = np.repeat(np.arange(len(keys)), 3)
            dest = np.tile(np.arange(3), len(keys))
            return idx, dest

        received_rows = []

        def reducer(node, groups):
            received_rows.append(groups["x"].num_rows)
            return LocalPartition.empty()

        job = MapReduceJob(
            channels=[
                Channel("x", inputs, lambda n, p: p, 4.0, partitioner=everywhere)
            ],
            reducer=reducer,
        )
        job.run(cluster)
        assert received_rows == [1, 1, 1]


class TestMRHashJoin:
    def test_output_matches_native(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        native = GraceHashJoin().run(small_cluster, table_r, table_s)
        mr = mr_hash_join(small_cluster, table_r, table_s)
        assert np.array_equal(mr_canonical(mr), canonical_output(native))

    def test_shuffle_bytes_match_native_transfers(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        spec = JoinSpec()
        native = GraceHashJoin().run(small_cluster, table_r, table_s, spec)
        mr = mr_hash_join(small_cluster, table_r, table_s, spec)
        assert mr.network_bytes == pytest.approx(native.network_bytes)


class TestMRTrackJoin:
    def test_output_matches_native(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        native = TrackJoin("2TJ-R").run(small_cluster, table_r, table_s)
        _tracking, joined = mr_track_join(small_cluster, table_r, table_s)
        assert np.array_equal(mr_canonical(joined), canonical_output(native))

    def test_traffic_matches_native_track_join(self, small_cluster, small_tables):
        """Fine-grained tracking on MapReduce costs the same bytes as the
        native operator — the Section 6 claim, measured."""
        table_r, table_s = small_tables
        spec = JoinSpec()
        native = TrackJoin("2TJ-R").run(small_cluster, table_r, table_s, spec)
        tracking, joined = mr_track_join(small_cluster, table_r, table_s, spec)
        combined = tracking.traffic.merged_with(joined.traffic)
        assert combined.total_bytes == pytest.approx(native.network_bytes)
        # Per-class agreement, not just totals.
        for category in (
            MessageClass.KEYS_COUNTS,
            MessageClass.KEYS_NODES,
            MessageClass.R_TUPLES,
        ):
            assert combined.by_class.get(category, 0.0) == pytest.approx(
                native.class_bytes(category)
            ), category

    def test_mr_track_join_beats_mr_hash_join_on_wide_payloads(self, small_cluster):
        table_r, table_s = make_tables(
            small_cluster,
            np.arange(3000),
            np.arange(3000),
            payload_bits_r=64,
            payload_bits_s=512,
            seed=6,
        )
        hash_result = mr_hash_join(small_cluster, table_r, table_s)
        tracking, joined = mr_track_join(small_cluster, table_r, table_s)
        combined = tracking.network_bytes + joined.network_bytes
        assert combined < hash_result.network_bytes
