"""Tests for Bloom-filtered semi-join reduction (Section 3.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import GraceHashJoin, JoinSpec, TrackJoin
from repro.cluster.network import MessageClass
from repro.joins import SemiJoinFilteredJoin

from conftest import assert_same_output, make_tables


@pytest.fixture
def selective_tables(small_cluster):
    """Inputs where only ~10% of each table has matches."""
    table_r, table_s = make_tables(
        small_cluster,
        np.arange(0, 5000),
        np.arange(4500, 9500),
        seed=3,
    )
    return table_r, table_s


class TestCorrectness:
    def test_filtered_hash_join_output(self, small_cluster, selective_tables):
        table_r, table_s = selective_tables
        plain = GraceHashJoin().run(small_cluster, table_r, table_s)
        filtered = SemiJoinFilteredJoin(GraceHashJoin()).run(
            small_cluster, table_r, table_s
        )
        assert_same_output(plain, filtered)

    def test_filtered_track_join_output(self, small_cluster, selective_tables):
        table_r, table_s = selective_tables
        plain = TrackJoin("4TJ").run(small_cluster, table_r, table_s)
        filtered = SemiJoinFilteredJoin(TrackJoin("4TJ")).run(
            small_cluster, table_r, table_s
        )
        assert_same_output(plain, filtered)

    def test_name_reflects_inner(self):
        assert SemiJoinFilteredJoin(GraceHashJoin()).name == "BF+HJ"
        assert SemiJoinFilteredJoin(TrackJoin("2TJ-R")).name == "BF+2TJ-R"


class TestTraffic:
    def test_filters_are_broadcast(self, small_cluster, selective_tables):
        table_r, table_s = selective_tables
        result = SemiJoinFilteredJoin(GraceHashJoin()).run(
            small_cluster, table_r, table_s
        )
        assert result.class_bytes(MessageClass.FILTER) > 0.0

    def test_filtering_pays_off_on_selective_hash_join(
        self, small_cluster, selective_tables
    ):
        """When few tuples match, pruning before hashing saves traffic."""
        table_r, table_s = selective_tables
        plain = GraceHashJoin().run(small_cluster, table_r, table_s)
        filtered = SemiJoinFilteredJoin(GraceHashJoin()).run(
            small_cluster, table_r, table_s
        )
        assert filtered.network_bytes < plain.network_bytes

    def test_track_join_filters_during_tracking(self, small_cluster, selective_tables):
        """Track join already discards unmatched keys, so Bloom filters
        add the broadcast cost without reducing payload traffic much —
        the paper's argument that track join subsumes semi-join
        filtering."""
        table_r, table_s = selective_tables
        spec = JoinSpec()
        plain = TrackJoin("2TJ-R").run(small_cluster, table_r, table_s, spec)
        filtered = SemiJoinFilteredJoin(TrackJoin("2TJ-R")).run(
            small_cluster, table_r, table_s, spec
        )
        payload = MessageClass.R_TUPLES
        # Payload transfers were already minimal without the filter.
        assert plain.class_bytes(payload) == pytest.approx(
            filtered.class_bytes(payload), rel=0.05
        )

    def test_false_positives_survive_filtering_but_not_join(
        self, small_cluster, selective_tables
    ):
        table_r, table_s = selective_tables
        loose = SemiJoinFilteredJoin(GraceHashJoin(), false_positive_rate=0.2)
        tight = SemiJoinFilteredJoin(GraceHashJoin(), false_positive_rate=0.001)
        loose_result = loose.run(small_cluster, table_r, table_s)
        tight_result = tight.run(small_cluster, table_r, table_s)
        assert loose_result.output_rows == tight_result.output_rows
        # Looser filters let more non-matching tuples cross as payloads.
        loose_payload = loose_result.class_bytes(
            MessageClass.R_TUPLES
        ) + loose_result.class_bytes(MessageClass.S_TUPLES)
        tight_payload = tight_result.class_bytes(
            MessageClass.R_TUPLES
        ) + tight_result.class_bytes(MessageClass.S_TUPLES)
        assert loose_payload >= tight_payload
        # But tighter filters cost more broadcast bytes.
        assert tight_result.class_bytes(MessageClass.FILTER) > loose_result.class_bytes(
            MessageClass.FILTER
        )
