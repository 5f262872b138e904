"""Unit and property tests for the node-local join kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.joins import local
from repro.joins.base import JoinSpec
from repro.joins.local import (
    JoinCount,
    join_indices,
    join_cardinality,
    local_join,
)
from repro.joins.registry import create
from repro.storage import LocalPartition
from repro.storage.table import dense_key_counts
from repro.workloads import PATTERN_PARTIAL, both_sides_pattern_workload

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


def _at_dense_bound(past: int) -> np.ndarray:
    """Four repeating keys whose span is the dense bound plus ``past``."""
    return np.array([0, 0, 7, 4 * 4 + 1024 - 1 + past], dtype=np.int64)


_BOUND_PROBE = np.array([0, 7, 7, 3, 1039, 1040, 1041], dtype=np.int64)


class TestCountingKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        key_sides(),
        st.sampled_from([(), ("left",), ("right",), ("left", "right")]),
        st.sampled_from(["key_index", "distinct_with_counts"]),
    )
    @example((np.empty(0, dtype=np.int64), np.array([1, 1, 2])), ("right",), "key_index")
    @example((np.empty(0, dtype=np.int64),) * 2, (), "key_index")
    # Four repeating build keys spanning exactly 4 * 4 + 1024 (the dense
    # bound: one bincount), then one past it (the positional tables).
    @example((_BOUND_PROBE, _at_dense_bound(0)), (), "key_index")
    @example((_BOUND_PROBE, _at_dense_bound(1)), (), "key_index")
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


class TestCountingPaths:
    """Which tables the counting kernel builds, observed through
    monkeypatched counters."""

    @pytest.mark.parametrize("past", [0, 1])
    def test_uncached_dense_build_side_is_one_bincount(self, past):
        """Up to the dense bound an uncached build side with repeating
        keys never reaches the positional table or a distinct pass;
        one past it, it does."""
        calls = []
        dense_lookup = local._dense_lookup
        distinct_uncached = LocalPartition._distinct_uncached

        def counted_lookup(*args, **kwargs):
            calls.append("_dense_lookup")
            return dense_lookup(*args, **kwargs)

        def counted_distinct(self):
            calls.append("_distinct_uncached")
            return distinct_uncached(self)

        keys_right = _at_dense_bound(past)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(local, "_dense_lookup", counted_lookup)
            patch.setattr(LocalPartition, "_distinct_uncached", counted_distinct)
            got = join_cardinality(_BOUND_PROBE, keys_right)
        assert got == numpy_cardinality(_BOUND_PROBE, keys_right)
        assert (calls == []) == (past == 0), calls

    def test_track_join_count_makes_no_failed_dense_lookup(self):
        """Phase C's post-migration fragments repeat keys and carry no
        key caches; counting them never scatters keys into the
        duplicate-free table only to unwind."""
        failed = []
        dense_lookup = local._dense_lookup

        def counted(*args, **kwargs):
            built = dense_lookup(*args, **kwargs)
            if built is None:
                failed.append(len(args[0]))
            return built

        workload = both_sides_pattern_workload(
            PATTERN_PARTIAL, True, num_nodes=4, scaled_keys=2_000
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(local, "_dense_lookup", counted)
            result = create("4TJ").run(
                workload.cluster,
                workload.table_r,
                workload.table_s,
                JoinSpec(materialize=False),
            )
        assert result.output_rows == workload.expected_output_rows
        assert failed == []

    def test_scratch_growth_stops_at_the_cap(self):
        """Doubling a scratch table never allocates past the span cap."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(local, "_DENSE_SPAN_CAP", 64)
            assert len(local._scratch("cap_probe", 40, 0, np.int64)) == 40
            assert len(local._scratch("cap_probe", 50, 0, np.int64)) == 50
            assert len(local._dense_tls.cap_probe) == 64
            del local._dense_tls.cap_probe


class TestDistinctWithCounts:
    def test_every_branch_equals_numpy_unique(self):
        """The dense bincount, ``np.unique`` and the boundary scan of a
        built key index all return ``np.unique``'s keys and counts."""
        dense = np.random.default_rng(3).integers(-50, 50, 300)
        for branch, keys in (
            ("bincount", dense),
            ("unique", dense * 10**9),
            ("key_index", dense),
        ):
            part = LocalPartition(keys=keys)
            assert (dense_key_counts(part.keys) is None) == (branch == "unique")
            with pytest.MonkeyPatch.context() as patch:
                if branch == "key_index":
                    # A built index is scanned: no uncached branch runs.
                    part.key_index()
                    patch.delattr(LocalPartition, "_distinct_uncached")
                distinct, counts = part.distinct_with_counts()
            want_distinct, want_counts = np.unique(keys, return_counts=True)
            assert distinct.dtype == np.int64, branch
            assert np.array_equal(distinct, want_distinct), branch
            assert np.array_equal(counts, want_counts), branch
