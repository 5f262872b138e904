"""Tests for the balance-aware track join variant, 4TJ-bal (Section 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Cluster, JoinSpec, Schema, TrackJoin

from conftest import assert_same_output, make_tables, one_key_hash_join


def skewed_locality_tables(cluster, num_keys=300, repeats=4, hot_node=0, seed=3):
    """Inputs whose locality concentrates on one node.

    Every key's S tuples live mostly on ``hot_node``, so traffic-optimal
    consolidation funnels everything there.
    """
    rng = np.random.default_rng(seed)
    keys = np.repeat(np.arange(num_keys, dtype=np.int64), repeats)
    schema = Schema.with_widths(32, 128)
    nodes_r = rng.integers(0, cluster.num_nodes, len(keys))
    nodes_s = np.where(
        rng.random(len(keys)) < 0.7,
        hot_node,
        rng.integers(0, cluster.num_nodes, len(keys)),
    )
    table_r = cluster.table_from_assignment("R", schema, keys, nodes_r)
    table_s = cluster.table_from_assignment("S", schema, keys, nodes_s)
    return table_r, table_s


class TestCorrectness:
    def test_same_output_as_four_phase(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        reference = TrackJoin("4TJ").run(small_cluster, table_r, table_s)
        balanced = TrackJoin("4TJ-bal").run(small_cluster, table_r, table_s)
        assert_same_output(reference, balanced)

    def test_empty_input(self, small_cluster):
        table_r, table_s = make_tables(
            small_cluster, np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        )
        result = TrackJoin("4TJ-bal").run(small_cluster, table_r, table_s)
        assert result.output_rows == 0


class TestTrafficAndBalance:
    def test_zero_tolerance_matches_optimal_traffic(self, small_cluster, small_tables):
        """Only exact cost ties are re-decided, so total traffic equals
        the traffic-optimal 4-phase schedule."""
        table_r, table_s = small_tables
        spec = JoinSpec()
        optimal = TrackJoin("4TJ").run(small_cluster, table_r, table_s, spec)
        balanced = TrackJoin("4TJ-bal").run(small_cluster, table_r, table_s, spec)
        assert balanced.network_bytes == pytest.approx(optimal.network_bytes, rel=1e-6)

    def test_balancing_flattens_receive_skew(self):
        """On skewed locality, the balancer reduces the hottest node's
        received bytes relative to plain 4TJ."""
        cluster = Cluster(6)
        table_r, table_s = skewed_locality_tables(cluster)
        spec = JoinSpec()
        optimal = TrackJoin("4TJ").run(cluster, table_r, table_s, spec)
        balanced = TrackJoin("4TJ-bal").run(cluster, table_r, table_s, spec)
        assert_same_output(optimal, balanced)
        assert (
            balanced.profile.node_load.receive_skew
            <= optimal.profile.node_load.receive_skew + 1e-9
        )

    def test_deterministic_given_seed(self, small_cluster, small_tables):
        """The key visiting order is fixed: reruns give the same ledger."""
        table_r, table_s = small_tables
        a = TrackJoin("4TJ-bal").run(small_cluster, table_r, table_s)
        b = TrackJoin("4TJ-bal").run(small_cluster, table_r, table_s)
        assert a.network_bytes == b.network_bytes
        assert a.traffic.by_link == b.traffic.by_link


class TestNodeLoad:
    def test_means_count_every_node(self):
        """One of four nodes receives every byte, so the receive skew is 4:
        means are over all the cluster's nodes, not only those that sent
        or received."""
        load = one_key_hash_join().profile.node_load
        assert load.received.tolist() == [0.0, 0.0, 0.0, 9368.0]
        assert load.mean_received == 2342.0
        assert load.receive_skew == 4.0
        assert load.mean_sent == load.sent.sum() / 4
        assert load.send_skew == load.max_sent / load.mean_sent
