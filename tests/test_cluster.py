"""Unit tests for the Cluster container and Node scratch state."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Cluster, Schema
from repro.cluster import MessageClass
from repro.errors import JoinConfigError, NetworkError

from conftest import one_lane


class TestCluster:
    def test_construction(self):
        cluster = Cluster(5)
        assert cluster.num_nodes == 5
        assert len(cluster.nodes) == 5
        assert [node.index for node in cluster.nodes] == list(range(5))

    def test_zero_nodes_rejected(self):
        with pytest.raises(NetworkError):
            Cluster(0)

    def test_reset_clears_state_and_ledger(self):
        cluster = Cluster(2)
        cluster.nodes[0].state["x"] = 1
        with one_lane(cluster.network):
            cluster.network.send(0, 1, MessageClass.R_TUPLES, 10.0)
        cluster.network.deliver(1)
        cluster.reset()
        assert cluster.nodes[0].state == {}
        assert cluster.network.ledger.total_bytes == 0.0

    def test_table_from_assignment(self):
        cluster = Cluster(3)
        table = cluster.table_from_assignment(
            "T",
            Schema.with_widths(32, 32),
            np.array([1, 2, 3]),
            np.array([0, 1, 2]),
        )
        assert table.num_nodes == 3
        assert table.total_rows == 3

    def test_check_table_size_mismatch(self):
        cluster = Cluster(3)
        other = Cluster(2)
        table = other.table_from_assignment(
            "T", Schema.with_widths(32, 0), np.array([1]), np.array([0])
        )
        with pytest.raises(JoinConfigError):
            cluster.check_table(table)

    def test_node_clear(self):
        cluster = Cluster(1)
        cluster.nodes[0].state["scratch"] = [1, 2, 3]
        cluster.nodes[0].clear()
        assert cluster.nodes[0].state == {}
