"""Tests for execution profiles and the hardware timing model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.timing import (
    CPU,
    LOCAL,
    NET,
    ExecutionProfile,
    HardwareModel,
    paper_cluster_2014,
    scaled_network,
)
from repro.util import hash_partition

from conftest import one_key_hash_join


class TestExecutionProfile:
    def test_steps_accumulate_by_name(self):
        profile = ExecutionProfile(4)
        profile.add_cpu_at("Sort", "sort", 0, 100)
        profile.add_cpu_at("Sort", "sort", 1, 300)
        assert len(profile.steps) == 1
        step = profile.step_named("Sort")
        assert step.total_bytes == 400
        assert step.max_node_bytes == 300

    def test_kinds_are_separate_steps(self):
        profile = ExecutionProfile(2)
        profile.add_cpu_at("X", "sort", 0, 1)
        profile.add_net_at("X", 0, 1)
        assert len(profile.steps) == 2

    def test_shape_validation(self):
        profile = ExecutionProfile(3)
        with pytest.raises(ValueError):
            profile.add_cpu("Bad", "sort", np.zeros(2))

    def test_total_network_bytes(self):
        profile = ExecutionProfile(2)
        profile.add_net_at("T1", 0, 10)
        profile.add_net_at("T2", 1, 30)
        profile.add_cpu_at("C", "sort", 0, 99)
        assert profile.total_network_bytes() == 40

    def test_in_place_adds_never_alias_the_callers_array(self):
        """A step owns its array: later adds leave the first insert's input alone."""
        profile = ExecutionProfile(3)
        work = np.array([1.0, 2.0, 3.0])
        profile.add_cpu("Sort", "sort", work)
        profile.add_cpu_at("Sort", "sort", 0, 10)
        profile.add_cpu("Sort", "sort", work)
        assert work.tolist() == [1.0, 2.0, 3.0]
        assert profile.step_named("Sort").per_node_bytes.tolist() == [12.0, 4.0, 6.0]
        # Merging another profile copies too, and keeps first-seen order.
        other = ExecutionProfile(3)
        other.add_net_at("Transfer", 2, 7)
        other.add_cpu_at("Sort", "sort", 1, 1)
        profile.merge(other)
        profile.add_net_at("Transfer", 2, 1)
        assert [step.name for step in profile.steps] == ["Sort", "Transfer"]
        assert other.step_named("Transfer").per_node_bytes.tolist() == [0.0, 0.0, 7.0]
        assert profile.step_named("Transfer").per_node_bytes.tolist() == [0.0, 0.0, 8.0]

    def test_local_steps(self):
        profile = ExecutionProfile(2)
        step = profile.add_local("Copy", 1, 50)
        assert step.kind == LOCAL
        assert step.rate_class == "copy"

    def test_timings_not_merged_across_profiles(self):
        """Phase timings stay with the profile of the phase that ran."""
        profile = ExecutionProfile(2)
        other = ExecutionProfile(2)
        other.record_phase_timing({"kernel_seconds": 1.0})
        profile.merge(other)
        assert profile.phase_timings == []


class TestHardwareModel:
    def test_network_time_uses_total_bytes(self):
        model = HardwareModel(num_nodes=4, net_aggregate_bandwidth=100.0, cpu_rates={})
        profile = ExecutionProfile(4)
        profile.add_net("Transfer", [100, 100, 100, 100])
        assert model.network_seconds(profile) == pytest.approx(4.0)

    def test_cpu_time_uses_max_node(self):
        model = HardwareModel(4, 1.0, cpu_rates={"sort": 10.0})
        profile = ExecutionProfile(4)
        profile.add_cpu("Sort", "sort", [10, 40, 20, 10])
        assert model.cpu_seconds(profile) == pytest.approx(4.0)

    def test_unknown_rate_class(self):
        model = HardwareModel(2, 1.0, cpu_rates={})
        profile = ExecutionProfile(2)
        profile.add_cpu("Weird", "weird", [1, 1])
        with pytest.raises(KeyError):
            model.cpu_seconds(profile)

    def test_local_copies_count_as_cpu(self):
        model = HardwareModel(2, 1.0, cpu_rates={"copy": 5.0})
        profile = ExecutionProfile(2)
        profile.add_local("Copy", 0, 10)
        assert model.cpu_seconds(profile) == pytest.approx(2.0)
        assert model.network_seconds(profile) == 0.0

    def test_paper_preset_reproduces_hash_join_transfer(self):
        """Sanity anchor: 6.35 GB of remote R tuples ~ 29.5 s (Table 3)."""
        model = paper_cluster_2014(4)
        profile = ExecutionProfile(4)
        profile.add_net("Transfer R tuples", [6.35e9 / 4] * 4)
        assert model.network_seconds(profile) == pytest.approx(29.5, rel=0.05)

    def test_scaled_network(self):
        base = paper_cluster_2014(4)
        fast = scaled_network(base, 10.0)
        assert fast.net_aggregate_bandwidth == pytest.approx(
            10 * base.net_aggregate_bandwidth
        )
        assert fast.cpu_rates == base.cpu_rates

    def test_total_seconds_depipelined_vs_overlapped(self):
        model = HardwareModel(2, 10.0, cpu_rates={"sort": 10.0})
        profile = ExecutionProfile(2)
        profile.add_cpu("Sort", "sort", [30, 10])
        profile.add_net("Transfer", [20, 20])
        assert model.total_seconds(profile) == pytest.approx(3.0 + 4.0)
        assert model.total_seconds(profile, overlap=True) == pytest.approx(4.0)

    def test_overlap_bounded_by_depipelined(self):
        model = paper_cluster_2014(4)
        profile = ExecutionProfile(4)
        profile.add_cpu("Sort", "sort", [1e9] * 4)
        profile.add_net("Transfer", [1e8] * 4)
        assert model.total_seconds(profile, overlap=True) <= model.total_seconds(profile)

    def test_step_timings_in_order(self):
        model = HardwareModel(2, 10.0, cpu_rates={"sort": 10.0})
        profile = ExecutionProfile(2)
        profile.add_cpu_at("A", "sort", 0, 10)
        profile.add_net_at("B", 0, 10)
        timings = model.step_timings(profile)
        assert [t.name for t in timings] == ["A", "B"]
        assert timings[0].kind == CPU and timings[1].kind == NET


class TestBottleneckSeconds:
    """No schedule finishes before its most loaded directed link drains."""

    def test_balanced_schedule_lower_makespan(self):
        """The balance-aware scheduler can lower the link makespan even
        at equal total traffic."""
        import numpy as np

        from repro import Cluster, Schema, TrackJoin
        from repro.testing import scatter_tables

        cluster = Cluster(6)
        rng = np.random.default_rng(3)
        keys = np.repeat(np.arange(300, dtype=np.int64), 4)
        schema = Schema.with_widths(32, 128)
        nodes_r = rng.integers(0, 6, len(keys))
        nodes_s = np.where(rng.random(len(keys)) < 0.7, 0, rng.integers(0, 6, len(keys)))
        table_r = cluster.table_from_assignment("R", schema, keys, nodes_r)
        table_s = cluster.table_from_assignment("S", schema, keys, nodes_s)
        optimal = TrackJoin("4TJ").run(cluster, table_r, table_s)
        balanced = TrackJoin("4TJ-bal").run(cluster, table_r, table_s)
        assert max(balanced.traffic.by_link.values()) <= max(
            optimal.traffic.by_link.values()
        ) * 1.05


class TestReceivedBytes:
    """NET steps carry the bytes each node received, from the sends."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_byte_lands_on_the_hash_node(self, workers):
        result = one_key_hash_join(workers)
        hash_node = int(hash_partition(np.array([7]), 4, 0)[0])
        step = result.profile.step_named("Transfer R tuples")
        expected = np.zeros(4)
        expected[hash_node] = step.total_bytes
        assert step.total_bytes > 0
        assert np.array_equal(step.per_node_received, expected)
        net_steps = [step for step in result.profile.steps if step.kind == NET]
        assert len(net_steps) == 2
        for step in net_steps:
            assert step.per_node_received.sum() == step.total_bytes
        received = sum(step.per_node_received for step in net_steps)
        assert np.array_equal(received, result.profile.node_load.received)

    def test_hand_built_steps_know_only_senders(self):
        profile = ExecutionProfile(2)
        step = profile.add_net_at("T", 0, 10)
        assert step.per_node_received.tolist() == [0.0, 0.0]
        assert profile.add_cpu_at("C", "sort", 0, 1).per_node_received is None
