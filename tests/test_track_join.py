"""Behavioural tests specific to the track join operators."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Cluster,
    GraceHashJoin,
    JoinSpec,
    Schema,
    TrackJoin,
)
from repro.cluster.network import MessageClass
from repro.core.tracking import run_tracking_phase
from repro.storage import by_key_hash, random_uniform
from repro.timing.profile import ExecutionProfile

from conftest import assert_same_output, make_tables


class TestTrackingPhase:
    def _tracking(self, cluster, table_r, table_s, with_counts=True, spec=None):
        cluster.reset()
        profile = ExecutionProfile(cluster.num_nodes)
        tracking = run_tracking_phase(
            cluster, table_r, table_s, spec or JoinSpec(), profile, with_counts
        )
        for _node, _messages in cluster.network.deliver_all():
            pass
        return tracking, cluster.network.reset_ledger()

    def test_union_rows_sorted_and_merged(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        tracking, _ = self._tracking(small_cluster, table_r, table_s)
        # Sorted by (key, node) with no duplicate pairs.
        order = np.lexsort((tracking.nodes, tracking.keys))
        assert np.array_equal(order, np.arange(tracking.num_entries))
        pairs = set(zip(tracking.keys.tolist(), tracking.nodes.tolist()))
        assert len(pairs) == tracking.num_entries

    def test_sizes_match_table_contents(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        spec = JoinSpec()
        tracking, _ = self._tracking(small_cluster, table_r, table_s, spec=spec)
        width_r = table_r.schema.tuple_width(spec.encoding)
        width_s = table_s.schema.tuple_width(spec.encoding)
        assert tracking.size_r().sum() == pytest.approx(table_r.total_rows * width_r)
        assert tracking.size_s().sum() == pytest.approx(table_s.total_rows * width_s)

    def test_distinct_keys_cover_both_tables(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        tracking, _ = self._tracking(small_cluster, table_r, table_s)
        expected = np.union1d(table_r.all_keys(), table_s.all_keys())
        assert np.array_equal(tracking.distinct_keys(), expected)

    def test_counts_add_to_tracking_traffic(self, small_cluster, small_tables):
        """3/4-phase tracking costs count bytes on top of 2-phase keys."""
        table_r, table_s = small_tables
        _, with_counts = self._tracking(small_cluster, table_r, table_s, True)
        _, without = self._tracking(small_cluster, table_r, table_s, False)
        assert with_counts.class_bytes(MessageClass.KEYS_COUNTS) > without.class_bytes(
            MessageClass.KEYS_COUNTS
        )

    def test_delta_keys_reduce_tracking_traffic(self, small_cluster, small_tables):
        """Section 2.4: delta-coded key streams shrink the tracking phase."""
        table_r, table_s = small_tables
        _, plain = self._tracking(small_cluster, table_r, table_s, False)
        _, delta = self._tracking(
            small_cluster, table_r, table_s, False, JoinSpec(delta_keys=True)
        )
        assert delta.class_bytes(MessageClass.KEYS_COUNTS) < plain.class_bytes(
            MessageClass.KEYS_COUNTS
        )


class TestSelectiveBroadcast:
    def test_two_phase_sends_only_chosen_side(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        rs = TrackJoin("2TJ-R").run(small_cluster, table_r, table_s)
        assert rs.class_bytes(MessageClass.S_TUPLES) == 0.0
        assert rs.class_bytes(MessageClass.R_TUPLES) > 0.0
        sr = TrackJoin("2TJ-S").run(small_cluster, table_r, table_s)
        assert sr.class_bytes(MessageClass.R_TUPLES) == 0.0
        assert sr.class_bytes(MessageClass.S_TUPLES) > 0.0

    def test_semi_join_for_free(self, small_cluster):
        """Keys without matches never ship payloads (Section 3.3)."""
        table_r, table_s = make_tables(
            small_cluster, np.arange(0, 1000), np.arange(900, 1900)
        )
        spec = JoinSpec()
        result = TrackJoin("2TJ-R").run(small_cluster, table_r, table_s, spec)
        # Only the ~100 matching R tuples may cross (plus none of S).
        width_r = table_r.schema.tuple_width(spec.encoding)
        assert result.class_bytes(MessageClass.R_TUPLES) <= 100 * width_r

    def test_three_phase_picks_cheaper_direction_per_key(self):
        """Keys heavy on S broadcast R, and vice versa, within one join."""
        cluster = Cluster(4)
        # Key 0: one R tuple, many S tuples -> R should move.
        # Key 1: many R tuples, one S tuple -> S should move.
        keys_r = np.array([0] + [1] * 50, dtype=np.int64)
        keys_s = np.array([1] + [0] * 50, dtype=np.int64)
        table_r, table_s = make_tables(
            cluster, keys_r, keys_s, payload_bits_r=64, payload_bits_s=64, seed=2
        )
        result = TrackJoin("3TJ").run(cluster, table_r, table_s)
        spec = JoinSpec()
        width = table_r.schema.tuple_width(spec.encoding)
        # Both directions used, each moving only the scarce side.
        assert 0 < result.class_bytes(MessageClass.R_TUPLES) < 10 * width
        assert 0 < result.class_bytes(MessageClass.S_TUPLES) < 10 * width


class TestMigration:
    def test_consolidation_beats_hash_join_on_spread_repeats(self):
        """Shuffled repeated keys: 4TJ consolidates to the largest holder."""
        cluster = Cluster(8)
        rng = np.random.default_rng(4)
        keys = np.repeat(np.arange(200), 6)
        table_r, table_s = make_tables(
            cluster, keys, np.repeat(np.arange(200), 10), seed=9
        )
        spec = JoinSpec()
        four = TrackJoin("4TJ").run(cluster, table_r, table_s, spec)
        hash_join = GraceHashJoin().run(cluster, table_r, table_s, spec)
        assert_same_output(four, hash_join)

        def payload(result):
            return result.class_bytes(MessageClass.R_TUPLES) + result.class_bytes(
                MessageClass.S_TUPLES
            )

        # Consolidating at the best pre-existing holder moves fewer
        # payload bytes than hashing to a random node.
        assert payload(four) < payload(hash_join)

    def test_migration_traffic_recorded_as_tuple_classes(self):
        cluster = Cluster(4)
        # All S of key k on node a+b, R on one node: migrations occur.
        keys = np.arange(100, dtype=np.int64)
        schema = Schema.with_widths(32, 256)
        table_r = cluster.table_from_assignment(
            "R", schema, np.repeat(keys, 3), random_uniform(300, 4, seed=1)
        )
        table_s = cluster.table_from_assignment(
            "S", schema, np.repeat(keys, 3), random_uniform(300, 4, seed=2)
        )
        result = TrackJoin("4TJ").run(cluster, table_r, table_s)
        assert result.output_rows == 900
        total_tuple_bytes = result.class_bytes(MessageClass.R_TUPLES) + result.class_bytes(
            MessageClass.S_TUPLES
        )
        assert total_tuple_bytes > 0

    def test_full_collocation_only_tracking_traffic(self):
        cluster = Cluster(8)
        keys = np.repeat(np.arange(300, dtype=np.int64), 4)
        nodes = by_key_hash(keys, 8, seed=77)
        schema = Schema.with_widths(32, 64)
        table_r = cluster.table_from_assignment("R", schema, keys, nodes)
        table_s = cluster.table_from_assignment("S", schema, keys, nodes)
        result = TrackJoin("4TJ").run(cluster, table_r, table_s)
        assert result.class_bytes(MessageClass.R_TUPLES) == 0.0
        assert result.class_bytes(MessageClass.S_TUPLES) == 0.0
        assert result.class_bytes(MessageClass.KEYS_COUNTS) > 0.0
        assert result.output_rows == 300 * 16


class TestSpecOptions:
    def test_grouped_locations_cheaper(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        plain = TrackJoin("4TJ").run(small_cluster, table_r, table_s, JoinSpec())
        grouped = TrackJoin("4TJ").run(
            small_cluster, table_r, table_s, JoinSpec(group_locations=True)
        )
        assert grouped.class_bytes(MessageClass.KEYS_NODES) < plain.class_bytes(
            MessageClass.KEYS_NODES
        )
        assert_same_output(plain, grouped)

    def test_wider_location_messages_cost_more(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        narrow = TrackJoin("4TJ").run(small_cluster, table_r, table_s, JoinSpec(location_width=1))
        wide = TrackJoin("4TJ").run(small_cluster, table_r, table_s, JoinSpec(location_width=4))
        assert wide.class_bytes(MessageClass.KEYS_NODES) > narrow.class_bytes(
            MessageClass.KEYS_NODES
        )

    def test_profile_contains_paper_steps(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        result = TrackJoin("4TJ").run(small_cluster, table_r, table_s)
        step_names = {step.name for step in result.profile.steps}
        assert "Aggregate keys" in step_names
        assert "Generate schedules and partition by node" in step_names
        assert any(name.startswith("Transfer key, count") for name in step_names)
