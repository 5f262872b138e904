"""Unit tests for hashing and segmented array utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.parallel import kernel_config
from repro.util import (
    group_bounded,
    hash_partition,
    mix64,
    segment_boundaries,
    segment_count,
    segment_ids,
    segmented_cartesian,
)


class TestMix64:
    def test_deterministic(self):
        values = np.arange(100, dtype=np.int64)
        assert np.array_equal(mix64(values), mix64(values))

    def test_seed_changes_stream(self):
        values = np.arange(100, dtype=np.int64)
        assert not np.array_equal(mix64(values, seed=0), mix64(values, seed=1))

    def test_input_not_mutated(self):
        values = np.arange(10, dtype=np.int64)
        mix64(values)
        assert np.array_equal(values, np.arange(10))

    def test_no_trivial_collisions(self):
        values = np.arange(10_000, dtype=np.int64)
        assert len(np.unique(mix64(values))) == 10_000


class TestHashPartition:
    def test_range(self):
        nodes = hash_partition(np.arange(1000, dtype=np.int64), 7)
        assert nodes.min() >= 0 and nodes.max() < 7

    def test_consecutive_keys_spread(self):
        """Sequential keys should not all land on key % N."""
        keys = np.arange(16_000, dtype=np.int64)
        nodes = hash_partition(keys, 16)
        counts = np.bincount(nodes, minlength=16)
        # Roughly uniform: no node has more than 2x the average.
        assert counts.max() < 2 * counts.mean()
        assert not np.array_equal(nodes, keys % 16)

    def test_single_node(self):
        assert np.all(hash_partition(np.arange(10, dtype=np.int64), 1) == 0)

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            hash_partition(np.arange(3, dtype=np.int64), 0)


class TestGroupBounded:
    @settings(max_examples=60, deadline=None)
    @given(
        upper=st.sampled_from([1, 2, 255, 256, 257, 65_536, 65_537]),
        n=st.integers(0, 40),
        one_bucket=st.booleans(),
        chunked=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_matches_argsort_and_searchsorted(self, upper, n, one_bucket, chunked, seed):
        """``order`` is the stable argsort, ``bounds`` the bucket offsets."""
        rng = np.random.default_rng(seed)
        # Draw near the top of the range so every narrowed dtype's
        # boundary values (255, 256, 65 535, 65 536) actually occur.
        values = upper - 1 - rng.integers(0, min(upper, 4), n)
        if one_bucket:
            values[:] = upper - 1
        if chunked:
            with kernel_config(workers=2, chunk_rows=2):
                order, bounds = group_bounded(values, upper)
        else:
            order, bounds = group_bounded(values, upper)
        assert np.array_equal(order, np.argsort(values, kind="stable"))
        assert np.array_equal(
            bounds, np.searchsorted(values[order], np.arange(upper + 1))
        )
        assert len(bounds) == upper + 1

    def test_bucket_count_is_capped(self):
        """The dense offsets table is refused, not silently allocated."""
        with pytest.raises(ValidationError):
            group_bounded(np.zeros(3, dtype=np.int64), (1 << 24) + 1)


class TestSegments:
    def test_boundaries_basic(self):
        keys = np.array([1, 1, 2, 2, 2, 5])
        assert np.array_equal(segment_boundaries(keys), [0, 2, 5])

    def test_boundaries_empty(self):
        assert len(segment_boundaries(np.array([], dtype=np.int64))) == 0

    def test_boundaries_all_same(self):
        assert np.array_equal(segment_boundaries(np.zeros(5, dtype=np.int64)), [0])

    def test_sum_and_count(self):
        keys = np.array([1, 1, 2, 5, 5, 5])
        starts = segment_boundaries(keys)
        assert np.array_equal(segment_count(starts, len(keys)), [2, 1, 3])

    def test_ids(self):
        keys = np.array([3, 3, 7, 9, 9])
        starts = segment_boundaries(keys)
        assert np.array_equal(segment_ids(starts, len(keys)), [0, 0, 1, 2, 2])


class TestSegmentedCartesian:
    def test_basic(self):
        a_seg = np.array([0, 0, 1])
        b_seg = np.array([0, 1, 1])
        ia, ib = segmented_cartesian(a_seg, b_seg)
        pairs = set(zip(ia.tolist(), ib.tolist()))
        assert pairs == {(0, 0), (1, 0), (2, 1), (2, 2)}

    def test_empty_inputs(self):
        ia, ib = segmented_cartesian(np.array([], dtype=np.int64), np.array([0]))
        assert len(ia) == 0 and len(ib) == 0

    def test_disjoint_segments(self):
        ia, ib = segmented_cartesian(np.array([0, 0]), np.array([1, 1]))
        assert len(ia) == 0

    @given(
        st.lists(st.integers(0, 4), min_size=0, max_size=12),
        st.lists(st.integers(0, 4), min_size=0, max_size=12),
    )
    def test_matches_bruteforce(self, a_raw, b_raw):
        a_seg = np.array(sorted(a_raw), dtype=np.int64)
        b_seg = np.array(sorted(b_raw), dtype=np.int64)
        ia, ib = segmented_cartesian(a_seg, b_seg)
        got = sorted(zip(ia.tolist(), ib.tolist()))
        expected = sorted(
            (i, j)
            for i in range(len(a_seg))
            for j in range(len(b_seg))
            if a_seg[i] == b_seg[j]
        )
        assert got == expected
