"""Tests for the rid-based hash joins of Section 3.2."""

from __future__ import annotations

import numpy as np
import pytest

from repro import GraceHashJoin, JoinSpec, TrackJoin
from repro.cluster.network import MessageClass
from repro.joins.tracking_aware import (
    LateMaterializationHashJoin,
    TrackingAwareHashJoin,
    rid_width,
)

from conftest import assert_same_output, make_tables


class TestRidWidth:
    @pytest.mark.parametrize(
        "rows,expected", [(2, 1), (255, 1), (257, 2), (70_000, 3), (2**31, 4)]
    )
    def test_widths(self, rows, expected):
        assert rid_width(rows) == expected

    def test_tiny_tables(self):
        assert rid_width(0) == 1
        assert rid_width(1) == 1


class TestLateMaterialization:
    def test_matches_hash_join_output(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        reference = GraceHashJoin().run(small_cluster, table_r, table_s)
        late = LateMaterializationHashJoin().run(small_cluster, table_r, table_s)
        assert_same_output(reference, late)

    def test_fetch_traffic_scales_with_output(self, small_cluster):
        """LMHJ pays per output tuple, so amplified joins are expensive."""
        spec = JoinSpec()
        # Low amplification: unique keys.
        table_r, table_s = make_tables(small_cluster, np.arange(500), np.arange(500))
        low = LateMaterializationHashJoin().run(small_cluster, table_r, table_s, spec)
        # High amplification: same input sizes, 5x5 repeats per key.
        table_r2, table_s2 = make_tables(
            small_cluster, np.repeat(np.arange(100), 5), np.repeat(np.arange(100), 5)
        )
        high = LateMaterializationHashJoin().run(small_cluster, table_r2, table_s2, spec)
        assert high.output_rows == 2500
        assert high.network_bytes > low.network_bytes


class TestTrackingAware:
    def test_matches_hash_join_output(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        reference = GraceHashJoin().run(small_cluster, table_r, table_s)
        aware = TrackingAwareHashJoin().run(small_cluster, table_r, table_s)
        assert_same_output(reference, aware)

    def test_moves_only_narrow_payloads(self, small_cluster, small_tables):
        """Only the narrower side's payload crosses as tuples."""
        table_r, table_s = small_tables  # S payload is wider, so R moves
        result = TrackingAwareHashJoin().run(small_cluster, table_r, table_s)
        assert result.class_bytes(MessageClass.R_TUPLES) > 0.0
        assert result.class_bytes(MessageClass.S_TUPLES) == 0.0

    def test_cheaper_than_late_materialization(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        aware = TrackingAwareHashJoin().run(small_cluster, table_r, table_s)
        late = LateMaterializationHashJoin().run(small_cluster, table_r, table_s)
        assert aware.network_bytes < late.network_bytes

    def test_track_join_subsumes_tracking_aware(self, small_cluster):
        """Section 3.2's claim: 2TJ costs no more than the rid-based HJ.

        2TJ deduplicates keys during tracking and resends keys (which
        are narrower than rids), so on a unique-key join with wide
        payloads it must not lose.
        """
        table_r, table_s = make_tables(
            small_cluster,
            np.arange(2000),
            np.arange(2000),
            payload_bits_r=64,
            payload_bits_s=256,
            seed=4,
        )
        spec = JoinSpec()
        track = TrackJoin("2TJ-R").run(small_cluster, table_r, table_s, spec)
        aware = TrackingAwareHashJoin().run(small_cluster, table_r, table_s, spec)
        assert_same_output(track, aware)
        assert track.network_bytes <= aware.network_bytes

    def test_empty_join(self, small_cluster):
        table_r, table_s = make_tables(
            small_cluster, np.arange(100), np.arange(500, 600)
        )
        result = TrackingAwareHashJoin().run(small_cluster, table_r, table_s)
        assert result.output_rows == 0
