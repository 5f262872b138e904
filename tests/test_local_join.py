"""Unit and property tests for the node-local join kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.joins import local
from repro.joins.local import (
    JoinCount,
    distinct_with_counts,
    join_indices,
    join_cardinality,
    local_join,
)
from repro.storage import LocalPartition

from conftest import exec_scope


def brute_force_pairs(keys_left, keys_right):
    return sorted(
        (i, j)
        for i in range(len(keys_left))
        for j in range(len(keys_right))
        if keys_left[i] == keys_right[j]
    )


class TestJoinIndices:
    def test_basic(self):
        left = np.array([1, 2, 2, 3])
        right = np.array([2, 2, 4])
        li, ri = join_indices(left, right)
        assert sorted(zip(li.tolist(), ri.tolist())) == [(1, 0), (1, 1), (2, 0), (2, 1)]

    def test_empty_sides(self):
        li, ri = join_indices(np.array([], dtype=np.int64), np.array([1, 2]))
        assert len(li) == 0
        li, ri = join_indices(np.array([1]), np.array([], dtype=np.int64))
        assert len(li) == 0

    def test_no_matches(self):
        li, ri = join_indices(np.array([1, 2]), np.array([3, 4]))
        assert len(li) == 0 and len(ri) == 0

    @given(
        st.lists(st.integers(0, 8), max_size=30),
        st.lists(st.integers(0, 8), max_size=30),
    )
    def test_matches_bruteforce(self, left_raw, right_raw):
        left = np.array(left_raw, dtype=np.int64)
        right = np.array(right_raw, dtype=np.int64)
        li, ri = join_indices(left, right)
        assert sorted(zip(li.tolist(), ri.tolist())) == brute_force_pairs(left_raw, right_raw)

    @given(
        st.lists(st.integers(0, 20), max_size=50),
        st.lists(st.integers(0, 20), max_size=50),
    )
    def test_cardinality_matches_indices(self, left_raw, right_raw):
        left = np.array(left_raw, dtype=np.int64)
        right = np.array(right_raw, dtype=np.int64)
        li, _ = join_indices(left, right)
        assert join_cardinality(left, right) == len(li)


#: (left domain, right domain) per input shape of the counting property.
_KEY_SHAPES = {
    "dense": (st.integers(0, 40),) * 2,
    "negative": (st.integers(-30, 10),) * 2,
    "sparse": (st.integers(0, 11).map(lambda k: k * 10**9),) * 2,
    "62-bit": (
        st.integers(0, 20).map(lambda k: (1 << 62) - k)
        | st.sampled_from([-(1 << 62), 1 << 61]),
    )
    * 2,
    "disjoint-range": (st.integers(0, 40), st.integers(1_000, 1_040)),
    "one-key": (st.just(7),) * 2,
}


@st.composite
def key_sides(draw):
    """Two key arrays of one shape, each side unique or with duplicates."""
    domain_left, domain_right = _KEY_SHAPES[draw(st.sampled_from(sorted(_KEY_SHAPES)))]
    sides = [
        draw(st.lists(domain, max_size=40, unique=draw(st.booleans())))
        for domain in (domain_left, domain_right)
    ]
    return tuple(np.array(side, dtype=np.int64) for side in sides)


def numpy_cardinality(keys_left, keys_right):
    distinct_l, counts_l = np.unique(keys_left, return_counts=True)
    distinct_r, counts_r = np.unique(keys_right, return_counts=True)
    _, in_l, in_r = np.intersect1d(
        distinct_l, distinct_r, assume_unique=True, return_indices=True
    )
    return int(np.dot(counts_l[in_l], counts_r[in_r]))


class TestCountingKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        key_sides(),
        st.sampled_from([(), ("left",), ("right",), ("left", "right")]),
        st.sampled_from(["key_index", "distinct_with_counts"]),
    )
    @example((np.empty(0, dtype=np.int64), np.array([1, 1, 2])), ("right",), "key_index")
    @example((np.empty(0, dtype=np.int64),) * 2, (), "key_index")
    def test_count_matches_every_reference(self, sides, cached, cache_kind):
        keys = dict(zip(("left", "right"), sides))

        def count(first, second):
            parts = {side: LocalPartition(keys=keys[side]) for side in (first, second)}
            for side in cached:
                getattr(parts[side], cache_kind)()
            joined = local_join(parts[first], parts[second], materialize=False)
            assert isinstance(joined, JoinCount)
            return joined.num_rows

        expected = len(join_indices(keys["left"], keys["right"])[0])
        assert numpy_cardinality(keys["left"], keys["right"]) == expected
        assert join_cardinality(keys["left"], keys["right"]) == expected
        assert count("left", "right") == expected
        assert count("right", "left") == expected
        with exec_scope(workers=2, chunk_rows=2):
            assert count("left", "right") == expected
            assert count("right", "left") == expected


class TestProbeReusesCachedRuns:
    @settings(max_examples=150, deadline=None)
    @given(key_sides(), st.sampled_from([None, 2]))
    def test_cached_repeating_keys_skip_the_duplicate_free_table(self, sides, chunk_rows):
        """A partition whose cached distinct keys repeat never reaches
        ``_dense_unique_join``, and probes to the same pairs, in the same
        order, as an uncached copy of it that does."""
        keys_left, keys_right = sides
        assume(len(keys_left) > 0 and len(keys_right) > 0)
        keys_right = np.concatenate([keys_right, keys_right[:1]])
        cached = LocalPartition(keys=keys_right)
        cached.distinct_with_counts()
        calls = []
        unique_join = local._dense_unique_join

        def counted(*args):
            calls.append(len(args[1]))
            return unique_join(*args)

        with pytest.MonkeyPatch.context() as patch, exec_scope(workers=2, chunk_rows=chunk_rows):
            patch.setattr(local, "_dense_unique_join", counted)
            got = join_indices(keys_left, keys_right, right_partition=cached)
            assert calls == []
            want = join_indices(
                keys_left, keys_right, right_partition=LocalPartition(keys=keys_right.copy())
            )
            assert calls == [len(keys_right)]
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert sorted(zip(*(side.tolist() for side in got))) == brute_force_pairs(
            keys_left, keys_right
        )


class TestLocalJoin:
    def test_prefixes_and_payloads(self):
        left = LocalPartition(keys=np.array([1, 2]), columns={"v": np.array([10, 20])})
        right = LocalPartition(keys=np.array([2, 2]), columns={"v": np.array([5, 6])})
        joined = local_join(left, right)
        assert set(joined.columns) == {"r.v", "s.v"}
        assert np.array_equal(np.sort(joined.columns["s.v"]), [5, 6])
        assert np.all(joined.columns["r.v"] == 20)
        assert np.all(joined.keys == 2)

    def test_cartesian_expansion(self):
        left = LocalPartition(keys=np.array([7, 7, 7]), columns={})
        right = LocalPartition(keys=np.array([7, 7]), columns={})
        assert local_join(left, right).num_rows == 6


class TestHelpers:
    def test_distinct_with_counts(self):
        keys, counts = distinct_with_counts(np.array([3, 1, 3, 3, 1]))
        assert np.array_equal(keys, [1, 3])
        assert np.array_equal(counts, [2, 3])
