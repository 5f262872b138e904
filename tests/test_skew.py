"""Tests for heavy-hitter sharding (Section 5 skew extension).

Two regression bars anchor the suite: on non-skewed inputs the sharded
operator must be *byte-identical* to plain 4TJ (same schedules, same
ledger), and on skewed inputs it must stay *row-identical* while
flattening the per-node received-byte peak.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Cluster, DictionaryEncoding, JoinSpec, TrackJoin
from repro.cluster.network import MessageClass
from repro.core.schedule import generate_schedules
from repro.core.skew import attach_shards, plan_shards
from repro.core.track_join import _execute_schedules
from repro.core.tracking import TrackingTable, run_tracking_phase
from repro.errors import ValidationError
from repro.exchange import absorb_received
from repro.exchange.migrate import ShardedMigrate
from repro.parallel import current
from repro.storage import LocalPartition
from repro.timing.profile import ExecutionProfile
from repro.util import segment_ids
from repro.workloads import hot_key_workload

from conftest import assert_same_output, make_tables, tracking_from_dicts


def hot_tables(cluster, hot_repeats=600, num_cold=200, seed=11):
    """One dominating key plus uniform background on both sides.

    The hot key's R rows are half its S count — enough probe bytes that
    the optimal plan consolidates the key at a single node (migration
    beats broadcasting either side everywhere), which is the regime the
    shard planner targets.
    """
    rng = np.random.default_rng(seed)
    keys_r = np.concatenate(
        [np.full(hot_repeats // 2, 0), rng.integers(1, num_cold, 400)]
    )
    keys_s = np.concatenate([np.full(hot_repeats, 0), rng.integers(1, num_cold, 400)])
    return make_tables(cluster, keys_r.astype(np.int64), keys_s.astype(np.int64))


def sharded_run(cluster, table_r, table_s, spec, hot_fraction):
    """4TJ-shard's executor path with the shard planner at ``hot_fraction``.

    Returns the output row count and the traffic ledger.
    """
    cluster.reset()
    profile = ExecutionProfile(cluster.num_nodes)
    tracking = run_tracking_phase(
        cluster, table_r, table_s, spec, profile, with_counts=True
    )
    location_width = table_r.schema.key_width(spec.encoding) + spec.location_width
    schedules = generate_schedules(
        tracking, location_width=location_width, allow_migration=True
    )
    plan = plan_shards(tracking, schedules, cluster.num_nodes, hot_fraction=hot_fraction)
    outputs = _execute_schedules(
        cluster, table_r, table_s, spec, profile, attach_shards(schedules, plan)
    )
    return sum(part.num_rows for part in outputs), cluster.network.reset_ledger()


def hot_colocated(sizes_r, sizes_s, num_nodes):
    """One hot key with the given per-node bytes on every node."""
    return (
        {node: sizes_r for node in range(num_nodes)},
        {node: sizes_s for node in range(num_nodes)},
    )


class TestPlanShards:
    def test_small_cluster_and_empty_tracking_return_none(self):
        tracking = tracking_from_dicts([({0: 10.0}, {1: 10.0})], [0])
        schedules = generate_schedules(tracking)
        assert plan_shards(tracking, schedules, num_nodes=1) is None
        empty = TrackingTable.empty(4)
        assert plan_shards(empty, generate_schedules(empty), num_nodes=4) is None

    def test_no_hot_keys_returns_none(self):
        per_key = [({node: 5.0}, {(node + 1) % 4: 5.0}) for node in range(4)] * 5
        tracking = tracking_from_dicts(per_key, [0] * len(per_key))
        schedules = generate_schedules(tracking)
        # Every key holds 1/20 of the bytes: below a 0.25 threshold.
        assert plan_shards(tracking, schedules, num_nodes=4, hot_fraction=0.25) is None
        assert attach_shards(schedules, None) is schedules

    def test_only_consolidating_keys_shard(self):
        # The hot key's tuples already live everywhere with huge build
        # fragments per node, so the optimal plan never migrates it —
        # and sharding must leave it alone.
        spread = ({n: 2.0 for n in range(4)}, {n: 400.0 for n in range(4)})
        tracking = tracking_from_dicts([spread], [0])
        schedules = generate_schedules(tracking)
        assert int(schedules.dest_node[0]) == -1
        assert plan_shards(tracking, schedules, num_nodes=4, hot_fraction=0.05) is None

    def test_deals_larger_side(self):
        # A consolidated hot key deals its larger side, even when the
        # traffic-optimal direction broadcast that side: with S double R
        # the base plan consolidates R under an S broadcast, but the
        # shard plan flips to deal S and replicate the cheap R.
        per_key = [
            hot_colocated(10.0, 20.0, 4),
            hot_colocated(20.0, 10.0, 4),
        ]
        tracking = tracking_from_dicts(per_key, [0, 0])
        schedules = generate_schedules(tracking)
        assert (schedules.dest_node >= 0).all()
        plan = plan_shards(tracking, schedules, num_nodes=4, hot_fraction=0.1)
        assert plan is not None
        assert plan.sharded.all()
        assert bool(plan.direction_rs[0]) is True  # S bigger: deal S
        assert bool(plan.direction_rs[1]) is False  # R bigger: deal R
        # Key 0's flip is visible: the base plan broadcast S.
        assert bool(schedules.direction_rs[0]) is False

    def test_shard_counts_bounded_and_capped(self):
        per_key = [hot_colocated(10.0, 30.0, 8), ({0: 1.0}, {1: 2.0})]
        tracking = tracking_from_dicts(per_key, [0, 0])
        schedules = generate_schedules(tracking)
        plan = plan_shards(tracking, schedules, num_nodes=8, hot_fraction=0.1)
        counts = np.diff(plan.offsets)[plan.sharded]
        assert ((counts >= 2) & (counts <= 8)).all()

    def test_deterministic(self):
        per_key = [
            hot_colocated(10.0, 20.0, 6),
            hot_colocated(8.0, 16.0, 6),
            ({0: 7.0}, {3: 9.0}),
        ]
        tracking = tracking_from_dicts(per_key, [0, 1, 2])
        schedules = generate_schedules(tracking)
        first = plan_shards(tracking, schedules, num_nodes=6, hot_fraction=0.1)
        second = plan_shards(tracking, schedules, num_nodes=6, hot_fraction=0.1)
        np.testing.assert_array_equal(first.sharded, second.sharded)
        np.testing.assert_array_equal(first.offsets, second.offsets)
        np.testing.assert_array_equal(first.dests, second.dests)
        np.testing.assert_array_equal(first.direction_rs, second.direction_rs)

    def test_attach_clears_single_destination_machinery(self):
        per_key = [hot_colocated(10.0, 20.0, 4), ({0: 7.0}, {3: 9.0})]
        tracking = tracking_from_dicts(per_key, [0, 0])
        schedules = generate_schedules(tracking)
        plan = plan_shards(tracking, schedules, num_nodes=4, hot_fraction=0.1)
        attached = attach_shards(schedules, plan)
        seg = segment_ids(tracking.key_starts, tracking.num_entries)
        assert (attached.dest_node[attached.sharded] == -1).all()
        assert not attached.migrate[attached.sharded[seg]].any()
        # Cold keys keep their traffic-optimal schedule untouched.
        cold = ~attached.sharded
        np.testing.assert_array_equal(
            attached.dest_node[cold], schedules.dest_node[cold]
        )

    def test_invalid_hot_fraction(self):
        tracking = tracking_from_dicts([hot_colocated(10.0, 20.0, 4)], [0])
        schedules = generate_schedules(tracking)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                plan_shards(tracking, schedules, num_nodes=4, hot_fraction=bad)


@st.composite
def uniform_instance(draw):
    """A non-skewed join: every key appears the same number of times."""
    num_nodes = draw(st.integers(2, 5))
    num_keys = draw(st.integers(30, 60))
    repeats_r = draw(st.integers(1, 3))
    repeats_s = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 1000))
    return num_nodes, num_keys, repeats_r, repeats_s, seed


class TestNonSkewedIdentity:
    @settings(max_examples=10, deadline=None)
    @given(uniform_instance())
    def test_schedules_byte_identical(self, instance):
        """With >= 30 equal-frequency keys nothing crosses the default
        5% threshold, so the sharded operator must emit the very same
        schedule set ``generate_schedules`` does."""
        num_nodes, num_keys, repeats_r, repeats_s, seed = instance
        rng = np.random.default_rng(seed)
        per_key = []
        for _ in range(num_keys):
            node_r = int(rng.integers(0, num_nodes))
            node_s = int(rng.integers(0, num_nodes))
            per_key.append(({node_r: float(repeats_r)}, {node_s: float(repeats_s)}))
        tracking = tracking_from_dicts(
            per_key, list(rng.integers(0, num_nodes, num_keys))
        )
        schedules = generate_schedules(tracking)
        plan = plan_shards(tracking, schedules, num_nodes, hot_fraction=0.05)
        assert plan is None
        assert attach_shards(schedules, plan) is schedules

    @settings(max_examples=8, deadline=None)
    @given(uniform_instance())
    def test_ledger_byte_identical(self, instance):
        num_nodes, num_keys, repeats_r, repeats_s, seed = instance
        cluster = Cluster(num_nodes)
        keys_r = np.repeat(np.arange(num_keys, dtype=np.int64), repeats_r)
        keys_s = np.repeat(np.arange(num_keys, dtype=np.int64), repeats_s)
        table_r, table_s = make_tables(cluster, keys_r, keys_s, seed=seed)
        plain = TrackJoin("4TJ").run(cluster, table_r, table_s)
        sharded = TrackJoin("4TJ-shard").run(cluster, table_r, table_s)
        assert plain.traffic.by_link == sharded.traffic.by_link
        assert plain.traffic.received_by_node == sharded.traffic.received_by_node
        assert_same_output(plain, sharded)


class TestSkewedExecution:
    def test_row_identical_on_hot_key(self):
        cluster = Cluster(6)
        table_r, table_s = hot_tables(cluster)
        plain = TrackJoin("4TJ").run(cluster, table_r, table_s)
        sharded = TrackJoin("4TJ-shard").run(cluster, table_r, table_s)
        assert_same_output(plain, sharded)
        # The hot key engaged the sharding path: replication costs some
        # extra traffic but the per-node peak must not grow.
        assert sharded.network_bytes > plain.network_bytes
        assert (
            sharded.traffic.max_received_bytes
            <= plain.traffic.max_received_bytes + 1e-9
        )

    @pytest.mark.parametrize("workers", [1, 4, 8])
    def test_row_identical_across_worker_counts(self, workers):
        reference_cluster = Cluster(6)
        table_r, table_s = hot_tables(reference_cluster)
        reference = TrackJoin("4TJ").run(reference_cluster, table_r, table_s)
        with Cluster(6, config=replace(current(), workers=workers)) as cluster:
            table_r, table_s = hot_tables(cluster)
            result = TrackJoin("4TJ-shard").run(cluster, table_r, table_s)
        assert_same_output(reference, result)

    def test_flattens_max_received_on_zipf_workload(self):
        plain_load = hot_key_workload(
            num_nodes=8, tuples_per_table=12_000, distinct_keys=1_200, seed=0
        )
        shard_load = hot_key_workload(
            num_nodes=8, tuples_per_table=12_000, distinct_keys=1_200, seed=0
        )
        spec = JoinSpec(materialize=False, group_locations=True)
        plain = TrackJoin("4TJ").run(
            plain_load.cluster, plain_load.table_r, plain_load.table_s, spec
        )
        sharded = TrackJoin("4TJ-shard").run(
            shard_load.cluster, shard_load.table_r, shard_load.table_s, spec
        )
        assert plain.output_rows == sharded.output_rows
        assert sharded.traffic.max_received_bytes < plain.traffic.max_received_bytes

    def test_halves_max_received_within_traffic_budget(self):
        """The point of sharding: the busiest node's received bytes
        drop at least 2x for at most 1.25x the total traffic of the
        traffic-optimal plan (measured 2.97x at 1.125x)."""
        spec = JoinSpec(
            encoding=DictionaryEncoding(), materialize=False, group_locations=True
        )

        def workload():
            load = hot_key_workload(
                num_nodes=16,
                tuples_per_table=30_000,
                distinct_keys=3_000,
                skew=1.2,
                seed=0,
            )
            return load.cluster, load.table_r, load.table_s

        plain = TrackJoin("4TJ").run(*workload(), spec)
        sharded_rows, sharded = sharded_run(*workload(), spec, hot_fraction=0.02)
        assert plain.output_rows == sharded_rows
        assert plain.traffic.max_received_bytes >= 2.0 * sharded.max_received_bytes
        assert sharded.total_bytes <= 1.25 * plain.traffic.total_bytes

    def test_deterministic_ledger(self):
        cluster = Cluster(6)
        table_r, table_s = hot_tables(cluster)
        first = TrackJoin("4TJ-shard").run(cluster, table_r, table_s)
        second = TrackJoin("4TJ-shard").run(cluster, table_r, table_s)
        assert first.traffic.by_link == second.traffic.by_link


class TestShardedMigrate:
    def test_round_robin_deal(self):
        """Rows deal cyclically over the destination list, in holder
        row order; non-matching rows stay behind."""
        cluster = Cluster(3)
        values = np.arange(6, dtype=np.int64)
        holders = [
            LocalPartition(
                keys=np.array([7, 7, 7, 7, 7, 9], dtype=np.int64),
                columns={"v": values},
            ),
            LocalPartition.empty(("v",)),
            LocalPartition.empty(("v",)),
        ]
        profile = ExecutionProfile(cluster.num_nodes)
        ShardedMigrate(
            category=MessageClass.R_TUPLES,
            width=4.0,
            transfer_step="transfer",
            copy_step="copy",
        ).run(
            cluster,
            profile,
            holders,
            keys=np.array([7], dtype=np.int64),
            nodes=np.array([0], dtype=np.int64),
            dest_offsets=np.array([0, 2], dtype=np.int64),
            dest_nodes=np.array([1, 2], dtype=np.int64),
        )
        absorb_received(cluster, {MessageClass.R_TUPLES: holders})
        np.testing.assert_array_equal(holders[0].keys, [9])
        np.testing.assert_array_equal(holders[0].columns["v"], [5])
        np.testing.assert_array_equal(holders[1].columns["v"], [0, 2, 4])
        np.testing.assert_array_equal(holders[2].columns["v"], [1, 3])

    def test_self_destination_is_local_copy(self):
        """A shard destination equal to the holder costs no network."""
        cluster = Cluster(2)
        holders = [
            LocalPartition(
                keys=np.array([5, 5], dtype=np.int64),
                columns={"v": np.array([10, 20], dtype=np.int64)},
            ),
            LocalPartition.empty(("v",)),
        ]
        profile = ExecutionProfile(cluster.num_nodes)
        ShardedMigrate(
            category=MessageClass.R_TUPLES,
            width=4.0,
            transfer_step="transfer",
            copy_step="copy",
        ).run(
            cluster,
            profile,
            holders,
            keys=np.array([5], dtype=np.int64),
            nodes=np.array([0], dtype=np.int64),
            dest_offsets=np.array([0, 2], dtype=np.int64),
            dest_nodes=np.array([0, 1], dtype=np.int64),
        )
        absorb_received(cluster, {MessageClass.R_TUPLES: holders})
        np.testing.assert_array_equal(np.sort(holders[0].columns["v"]), [10])
        np.testing.assert_array_equal(holders[1].columns["v"], [20])
        assert cluster.network.ledger.total_bytes == 4.0


class TestLoadMetrics:
    def test_ledger_max_received(self):
        cluster = Cluster(4)
        table_r, table_s = hot_tables(cluster)
        result = TrackJoin("4TJ").run(cluster, table_r, table_s)
        assert result.traffic.max_received_bytes == max(
            result.traffic.received_by_node.values()
        )
        assert result.traffic.max_sent_bytes == max(
            result.traffic.sent_by_node.values()
        )

    def test_profile_records_network_load(self):
        cluster = Cluster(4)
        table_r, table_s = hot_tables(cluster)
        result = TrackJoin("4TJ-shard").run(cluster, table_r, table_s)
        load = result.profile.node_load
        assert load.max_received == result.traffic.max_received_bytes
        assert load.max_sent == result.traffic.max_sent_bytes
        assert load.mean_received == pytest.approx(
            sum(result.traffic.received_by_node.values()) / cluster.num_nodes
        )
