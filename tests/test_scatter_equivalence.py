"""Golden equivalence of the fused scatter fast path vs the loop reference.

The storage layer and every distributed operator run in one of two
modes (:mod:`repro.fastpath`): ``loop`` preserves the original
per-destination Python loops verbatim, ``fused`` routes everything
through cached key indexes and single-gather splits.  These properties
pin the contract that makes the fast path safe to ship: for identical
inputs the two modes must produce the identical output multiset, the
identical per-link and per-class traffic ledger byte-for-byte, and the
identical execution profile.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    BroadcastJoin,
    Cluster,
    GraceHashJoin,
    TrackJoin2,
    TrackJoin3,
    TrackJoin4,
)
from repro.core import tracking as tracking_module
from repro.core.schedule import generate_schedules
from repro.core.tracking import TrackingTable, _merge_lexsort, merge_streams
from repro.fastpath import FUSED, LOOP, use_scatter_mode
from repro.joins.tracking_aware import LateMaterializationHashJoin, TrackingAwareHashJoin
from repro.parallel.chunks import kernel_config
from repro.storage.table import LocalPartition
from repro.util import hash_partition, segment_boundaries

from conftest import canonical_output, make_tables

ALGORITHMS = (
    lambda: TrackJoin2("RS"),
    lambda: TrackJoin2("SR"),
    TrackJoin3,
    TrackJoin4,
    GraceHashJoin,
    lambda: BroadcastJoin("R"),
    lambda: BroadcastJoin("S"),
)


@st.composite
def join_instance(draw):
    num_nodes = draw(st.integers(2, 6))
    keys_r = draw(st.lists(st.integers(0, 40), min_size=0, max_size=120))
    keys_s = draw(st.lists(st.integers(0, 40), min_size=0, max_size=120))
    seed = draw(st.integers(0, 1000))
    return num_nodes, keys_r, keys_s, seed


def run_in_mode(mode, factory, instance):
    num_nodes, keys_r, keys_s, seed = instance
    with use_scatter_mode(mode):
        cluster = Cluster(num_nodes)
        table_r, table_s = make_tables(
            cluster,
            np.array(keys_r, dtype=np.int64),
            np.array(keys_s, dtype=np.int64),
            seed=seed,
        )
        return factory().run(cluster, table_r, table_s)


def assert_profiles_identical(loop_profile, fused_profile):
    assert [(s.name, s.kind, s.rate_class) for s in loop_profile.steps] == [
        (s.name, s.kind, s.rate_class) for s in fused_profile.steps
    ]
    for loop_step, fused_step in zip(loop_profile.steps, fused_profile.steps):
        assert np.array_equal(loop_step.per_node_bytes, fused_step.per_node_bytes), (
            loop_step.name
        )


class TestJoinEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(join_instance())
    def test_all_algorithms_identical_across_modes(self, instance):
        """Output multiset, ledger, and profile match exactly per mode."""
        for factory in ALGORITHMS:
            loop = run_in_mode(LOOP, factory, instance)
            fused = run_in_mode(FUSED, factory, instance)
            assert np.array_equal(canonical_output(loop), canonical_output(fused))
            assert loop.traffic.by_class == fused.traffic.by_class
            assert loop.traffic.by_link == fused.traffic.by_link
            assert loop.traffic.local_bytes == fused.traffic.local_bytes
            assert_profiles_identical(loop.profile, fused.profile)

    @settings(max_examples=6, deadline=None)
    @given(join_instance())
    def test_rid_joins_identical_across_modes(self, instance):
        """The rid-based baselines also ride the fast path unchanged."""
        for factory in (LateMaterializationHashJoin, TrackingAwareHashJoin):
            loop = run_in_mode(LOOP, factory, instance)
            fused = run_in_mode(FUSED, factory, instance)
            assert np.array_equal(canonical_output(loop), canonical_output(fused))
            assert loop.traffic.by_class == fused.traffic.by_class
            assert loop.traffic.by_link == fused.traffic.by_link


def _packing_limit_key(num_nodes: int, total: int) -> int:
    """Largest key the packed tracking merge accepts for this shape."""
    return (1 << (62 - (num_nodes - 1).bit_length() - total.bit_length())) - 1


@st.composite
def stream_instance(draw):
    """Per-(side, node) distinct-key streams, as the tracking phase sees them.

    ``anchor`` places the largest key at zero-based, negative, exactly
    at the packing limit, or one past it.
    """
    num_nodes = draw(st.sampled_from([1, 2, 3, 5, 8]))
    domain = draw(st.integers(1, 12))  # 1: one key everywhere
    anchor = draw(st.sampled_from(["zero", "negative", "limit", "past"]))
    sides = draw(st.sampled_from(["RS", "R", "S"]))  # one side may be empty
    drawn = []
    for side in sides:
        for node in range(num_nodes):
            # R and S draw from one domain, so (key, node) pairs collide
            # across sides and the index bits must keep R first.
            keys = draw(st.lists(st.integers(0, domain - 1), unique=True, max_size=domain))
            if keys:
                sizes = draw(
                    st.lists(st.integers(1, 99), min_size=len(keys), max_size=len(keys))
                )
                drawn.append((side, node, sorted(keys), sizes))
    if not drawn:
        drawn.append((sides[0], 0, [0], [7]))
    total = sum(len(keys) for _, _, keys, _ in drawn)
    top = max(keys[-1] for _, _, keys, _ in drawn)
    limit = _packing_limit_key(num_nodes, total)
    shift = {"zero": 0, "negative": -top - 3, "limit": limit - top, "past": limit + 1 - top}
    return (
        [np.array(keys, dtype=np.int64) + shift[anchor] for _, _, keys, _ in drawn],
        [node for _, node, _, _ in drawn],
        [np.array(sizes, dtype=np.float64) * 2.5 for _, _, _, sizes in drawn],
        sum(1 for side, *_ in drawn if side == "R"),
        num_nodes,
    )


def assert_same_table(merged, reference):
    names = ("keys", "nodes", "size_r", "size_s", "key_starts", "t_nodes")
    assert len(merged) == len(reference) == len(names)
    for name, got, want in zip(names, merged, reference):
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def dict_union_table(stream_keys, stream_nodes, stream_sizes, num_r_streams, num_nodes, seed):
    """The union table built row by row in a dict: shares no code with the merges."""
    rows: dict[tuple[int, int], list[float]] = {}
    for index, (keys, node, sizes) in enumerate(zip(stream_keys, stream_nodes, stream_sizes)):
        for key, size in zip(keys.tolist(), sizes.tolist()):
            rows.setdefault((key, node), [0.0, 0.0])[index >= num_r_streams] += size
    ordered = sorted(rows)
    keys = np.array([key for key, _ in ordered], dtype=np.int64)
    key_starts = segment_boundaries(keys)
    return (
        keys,
        np.array([node for _, node in ordered], dtype=np.int64),
        np.array([rows[row][0] for row in ordered], dtype=np.float64),
        np.array([rows[row][1] for row in ordered], dtype=np.float64),
        key_starts,
        hash_partition(keys[key_starts], num_nodes, seed),
    )


class TestTrackingMergeEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(stream_instance(), st.integers(0, 3), st.sampled_from([1, 2]), st.sampled_from([2, None]))
    def test_packed_merge_equals_lexsort(self, instance, hash_seed, workers, chunk_rows):
        """The blocked pack-sort merge is the lexsort merge, field for field."""
        reference = _merge_lexsort(*instance, hash_seed)
        assert_same_table(reference, dict_union_table(*instance, hash_seed))
        with kernel_config(workers=workers, chunk_rows=chunk_rows):
            merged = merge_streams(*instance, hash_seed)
        assert_same_table(merged, reference)

    @pytest.mark.parametrize("num_nodes", [1, 3, 16])
    def test_packing_limit_boundary(self, num_nodes, monkeypatch):
        """Keys pack up to the 62-bit limit and fall back one past it."""
        packed_sorts = []
        original = tracking_module.sort_with_index_bits
        monkeypatch.setattr(
            tracking_module,
            "sort_with_index_bits",
            lambda high, bits: packed_sorts.append(len(high)) or original(high, bits),
        )
        offsets = np.arange(40, dtype=np.int64)
        sizes = np.full(40, 20.0)
        # The S stream shares every (key, node) with the last R stream.
        r_nodes = sorted({0, num_nodes - 1})
        nodes = r_nodes + [num_nodes - 1]
        limit = _packing_limit_key(num_nodes, len(nodes) * len(offsets))
        for top, packs in ((limit, True), (limit + 1, False)):
            packed_sorts.clear()
            args = (
                [offsets + (top - 39)] * len(nodes),
                nodes,
                [sizes] * len(r_nodes) + [sizes * 3],
                len(r_nodes),
                num_nodes,
                1,
            )
            with kernel_config(workers=2, chunk_rows=4):
                merged = merge_streams(*args)
            assert bool(packed_sorts) is packs
            assert_same_table(merged, dict_union_table(*args))
            assert len(merged[0]) == len(r_nodes) * len(offsets)


@st.composite
def tracking_instance(draw):
    """A random tracking table: per-key per-node sizes for both sides."""
    num_nodes = draw(st.integers(2, 6))
    num_keys = draw(st.integers(1, 12))
    keys, nodes, size_r, size_s = [], [], [], []
    for key in range(num_keys):
        holders = draw(
            st.lists(
                st.integers(0, num_nodes - 1), min_size=1, max_size=num_nodes, unique=True
            )
        )
        for node in sorted(holders):
            keys.append(key)
            nodes.append(node)
            size_r.append(float(draw(st.integers(0, 50))))
            size_s.append(float(draw(st.integers(0, 50))))
    t_nodes = [draw(st.integers(0, num_nodes - 1)) for _ in range(num_keys)]
    keys = np.array(keys, dtype=np.int64)
    return TrackingTable(
        keys=keys,
        nodes=np.array(nodes, dtype=np.int64),
        size_r=np.array(size_r),
        size_s=np.array(size_s),
        key_starts=segment_boundaries(keys),
        t_nodes=np.array(t_nodes, dtype=np.int64),
    )


class TestScheduleEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(tracking_instance(), st.floats(0.0, 8.0), st.booleans())
    def test_generate_schedules_bitwise_identical(
        self, tracking, location_width, allow_migration
    ):
        """Fused dual-direction costing matches two reference passes."""
        with use_scatter_mode(LOOP):
            loop = generate_schedules(tracking, location_width, allow_migration)
        with use_scatter_mode(FUSED):
            fused = generate_schedules(tracking, location_width, allow_migration)
        assert np.array_equal(loop.direction_rs, fused.direction_rs)
        assert np.array_equal(loop.cost, fused.cost)
        assert np.array_equal(loop.cost_rs, fused.cost_rs)
        assert np.array_equal(loop.cost_sr, fused.cost_sr)
        assert np.array_equal(loop.migrate, fused.migrate)
        assert np.array_equal(loop.dest_node, fused.dest_node)

    def test_paired_shape_exercises_blocked_path(self):
        """All-pairs tables (<=2 entries/key) hit the blocked paired path.

        Deterministic coverage of `_both_direction_costs_paired`: the
        dominant one-R-holder/one-S-holder shape, including single-entry
        keys, local pairs (same node both sides), and keys whose T node
        coincides with a holder, checked bitwise against the reference.
        """
        num_nodes = 4
        rng = np.random.default_rng(7)
        num_keys = 300
        entries_per_key = rng.integers(1, 3, num_keys)  # 1 or 2, never more
        keys, nodes, size_r, size_s = [], [], [], []
        for key in range(num_keys):
            holders = rng.choice(num_nodes, size=entries_per_key[key], replace=False)
            for node in sorted(holders):
                keys.append(key)
                nodes.append(node)
                size_r.append(float(rng.integers(0, 60)))
                size_s.append(float(rng.integers(0, 60)))
        keys = np.array(keys, dtype=np.int64)
        tracking = TrackingTable(
            keys=keys,
            nodes=np.array(nodes, dtype=np.int64),
            size_r=np.array(size_r),
            size_s=np.array(size_s),
            key_starts=segment_boundaries(keys),
            t_nodes=rng.integers(0, num_nodes, num_keys),
        )
        for location_width in (0.0, 1.0, 3.75):
            for allow_migration in (False, True):
                with use_scatter_mode(LOOP):
                    loop = generate_schedules(tracking, location_width, allow_migration)
                with use_scatter_mode(FUSED):
                    fused = generate_schedules(tracking, location_width, allow_migration)
                assert np.array_equal(loop.direction_rs, fused.direction_rs)
                assert np.array_equal(loop.cost, fused.cost)
                assert np.array_equal(loop.cost_rs, fused.cost_rs)
                assert np.array_equal(loop.cost_sr, fused.cost_sr)
                assert np.array_equal(loop.migrate, fused.migrate)
                assert np.array_equal(loop.dest_node, fused.dest_node)


@st.composite
def partition_instance(draw):
    n = draw(st.integers(0, 200))
    keys = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    part = LocalPartition(
        keys=np.array(keys, dtype=np.int64),
        columns={"rid": np.arange(n, dtype=np.int64)},
    )
    num_buckets = draw(st.integers(1, 8))
    destinations = np.array(
        draw(st.lists(st.integers(0, num_buckets - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    return part, destinations, num_buckets


class TestSplitPrimitives:
    @settings(max_examples=40, deadline=None)
    @given(partition_instance())
    def test_split_by_identical_rows_and_order(self, instance):
        """split_by buckets agree element-for-element across modes."""
        part, destinations, num_buckets = instance
        with use_scatter_mode(LOOP):
            loop = part.split_by(destinations, num_buckets)
        with use_scatter_mode(FUSED):
            fused = part.split_by(destinations, num_buckets)
        assert len(loop) == len(fused) == num_buckets
        for a, b in zip(loop, fused):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a.keys, b.keys)
                assert np.array_equal(a.columns["rid"], b.columns["rid"])

    @settings(max_examples=40, deadline=None)
    @given(partition_instance(), st.integers(0, 3))
    def test_hash_split_same_multiset_per_bucket(self, instance, seed):
        """hash_split may reorder within a bucket but never across."""
        part, _destinations, num_buckets = instance
        with use_scatter_mode(LOOP):
            loop = part.hash_split(num_buckets, seed)
        with use_scatter_mode(FUSED):
            fused = part.hash_split(num_buckets, seed)
        for a, b in zip(loop, fused):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(np.sort(a.keys), np.sort(b.keys))
                assert np.array_equal(
                    np.sort(a.columns["rid"]), np.sort(b.columns["rid"])
                )
