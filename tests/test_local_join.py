"""Unit and property tests for the node-local join kernels."""

from __future__ import annotations

import sys
from contextlib import contextmanager

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
from repro.workloads import (
    PATTERN_PARTIAL,
    both_sides_pattern_workload,
    unique_keys_workload,
)

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

    @settings(max_examples=150, deadline=None)
    @given(key_sides(), st.sampled_from([None, 2]))
    def test_cached_duplicate_free_keys_skip_the_read_back(self, sides, chunk_rows):
        """A partition whose cached distinct keys are as many as its rows
        vouches for them: ``_dense_lookup`` skips the read-back, and the
        pairs, in order, equal an uncached copy's that makes it."""
        keys_left, keys_right = sides
        keys_right = keys_right[np.sort(np.unique(keys_right, return_index=True)[1])]
        assume(len(keys_left) > 0 and len(keys_right) > 0)
        cached = LocalPartition(keys=keys_right)
        cached.distinct_with_counts()
        vouched = []
        dense_lookup = local._dense_lookup

        def counted(keys, rows, distinct=False):
            vouched.append(distinct)
            return dense_lookup(keys, rows, distinct)

        with pytest.MonkeyPatch.context() as patch, exec_scope(workers=2, chunk_rows=chunk_rows):
            patch.setattr(local, "_dense_lookup", counted)
            got = join_indices(keys_left, keys_right, right_partition=cached)
            want = join_indices(
                keys_left, keys_right, right_partition=LocalPartition(keys=keys_right.copy())
            )
        assert vouched == [True, False]
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


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


@contextmanager
def _recorded_paths():
    """Record the tables a count builds, in call order: each
    ``_count_table`` result's dtype (``None`` when it built none), each
    ``_distinct_uncached`` pass, and each ``_dense_lookup`` with the
    function that called it and whether it built its table."""
    calls = []
    count_table = local._count_table
    dense_lookup = local._dense_lookup
    distinct_uncached = LocalPartition._distinct_uncached

    def counted_table(*args, **kwargs):
        built = count_table(*args, **kwargs)
        calls.append(("_count_table", None if built is None else built[0].dtype.name))
        return built

    def counted_lookup(*args, **kwargs):
        caller = sys._getframe(1).f_code.co_name
        built = dense_lookup(*args, **kwargs)
        calls.append(("_dense_lookup", caller, built is not None))
        return built

    def counted_distinct(self):
        calls.append(("_distinct_uncached",))
        return distinct_uncached(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(local, "_count_table", counted_table)
        patch.setattr(local, "_dense_lookup", counted_lookup)
        patch.setattr(LocalPartition, "_distinct_uncached", counted_distinct)
        yield calls


def _assert_scratch_clean():
    """Every scratch table of this thread holds its fill value again
    (the run-start table is never read where its run count is zero)."""
    for name, table in vars(local._dense_tls).items():
        if name == "scratch":
            assert (table == -1).all(), name
        elif name != "run_starts":
            assert not table.any(), name


def _count_paths(keys_left, keys_right, cache_right=False):
    """The paths a count of ``keys_left`` against a ``keys_right`` build
    side takes, checked against ``numpy_cardinality`` (as a Python int)
    serially and with 2 workers over 2-row chunks (the same paths both
    times)."""
    runs = []
    for scope in ({}, {"workers": 2, "chunk_rows": 2}):
        build = LocalPartition(keys=keys_right)
        if cache_right:
            build.distinct_with_counts()
        with exec_scope(**scope), _recorded_paths() as calls:
            got = local_join(LocalPartition(keys=keys_left), build, materialize=False)
        assert got.num_rows == numpy_cardinality(keys_left, keys_right), scope
        assert type(got.num_rows) is int
        _assert_scratch_clean()
        runs.append(calls)
    assert runs[0] == runs[1]
    return runs[0]


#: A duplicate-free build side of 100 rows spanning 2 971 keys: past the
#: bincount bound (4 × rows + 1024), within ``_dense_span``.
_SPARSE_UNIQUE = np.arange(100, dtype=np.int64)[::-1] * 30
_SPARSE_PROBE = np.concatenate([np.arange(-40, 3_100, 7), [60, 60, 2_970, -1]])


def _at_span_bound(past: int) -> np.ndarray:
    """Four distinct keys whose span is ``_dense_span``'s bound plus ``past``."""
    rows = 4
    bound = local._DENSE_SPAN_FACTOR * rows + 1024
    return np.array([0, 5, 9, bound - 1 + past], dtype=np.int64)


class TestCountingPaths:
    """Which tables the counting kernel builds, observed through
    monkeypatched counters."""

    @pytest.mark.parametrize("past", [0, 1])
    def test_uncached_dense_build_side_is_one_bincount(self, past):
        """Up to the dense bound an uncached build side with repeating
        keys never reaches a count table or a distinct pass; one past
        it, it does."""
        calls = _count_paths(_BOUND_PROBE, _at_dense_bound(past))
        assert (calls == []) == (past == 0), calls

    @pytest.mark.parametrize("offset", [0, -5_000])
    def test_raw_duplicate_free_keys_take_the_byte_table(self, offset):
        """Raw sparse keys that never repeat fill one byte table: no
        distinct pass, no positional table."""
        calls = _count_paths(_SPARSE_PROBE + offset, _SPARSE_UNIQUE + offset)
        assert calls == [("_count_table", "uint8")]

    @pytest.mark.parametrize("offset", [0, -5_000])
    def test_raw_repeated_key_falls_through_to_the_multiplicity_table(self, offset):
        """One repeated raw key clears the byte cells again; the distinct
        keys and their counts fill the table instead."""
        keys_right = np.append(_SPARSE_UNIQUE, 60) + offset
        calls = _count_paths(_SPARSE_PROBE + offset, keys_right)
        assert calls == [
            ("_count_table", None),
            ("_distinct_uncached",),
            ("_count_table", "uint8"),
        ]

    @pytest.mark.parametrize(
        "repeats, dtype",
        [(1, "uint8"), (255, "uint8"), (256, "uint16"), (65_535, "uint16"), (65_536, "uint32")],
    )
    def test_table_width_holds_the_largest_multiplicity(self, repeats, dtype):
        """A cached build side fills the narrowest unsigned table that
        holds its largest multiplicity; counts all 1 take the byte table."""
        keys_right = np.concatenate([np.full(repeats, -3), [4, 9]])
        probe = np.array([-3, -3, 4, 5, 9, 9, 100, -100])
        assert _count_paths(probe, keys_right, cache_right=True) == [("_count_table", dtype)]

    @pytest.mark.parametrize("past", [0, 1])
    def test_span_bound_of_the_count_table(self, past):
        """At ``_dense_span``'s bound the raw keys fill the byte table;
        one past it no table is built and the probe is a binary search."""
        keys_right = _at_span_bound(past)
        probe = np.concatenate([keys_right, keys_right + 1, [-1]])
        calls = _count_paths(probe, keys_right)
        if past == 0:
            assert calls == [("_count_table", "uint8")]
        else:
            assert calls == [
                ("_count_table", None),
                ("_distinct_uncached",),
                ("_count_table", None),
            ]

    @pytest.mark.parametrize("algorithm", ["HJ", "4TJ"])
    def test_counts_never_build_the_positional_table(self, algorithm):
        """HJ's sparse arrivals and 4TJ's cached Phase C build sides are
        counted from count tables; ``_dense_lookup`` serves only the
        pair-building probes."""
        workload = unique_keys_workload(16, scaled_tuples=20_000)
        with _recorded_paths() as calls:
            result = create(algorithm).run(
                workload.cluster,
                workload.table_r,
                workload.table_s,
                JoinSpec(materialize=False),
            )
        assert result.output_rows == 20_000
        assert [call for call in calls if call[:2] == ("_dense_lookup", "_count_matches")] == []
        assert {call for call in calls if call[0] == "_count_table"} == {
            ("_count_table", "uint8")
        }
        _assert_scratch_clean()

    def test_track_join_count_makes_no_failed_dense_lookup(self):
        """Phase C's post-migration fragments repeat keys and carry no
        key caches; counting them never scatters keys into a
        duplicate-free table only to unwind."""
        workload = both_sides_pattern_workload(
            PATTERN_PARTIAL, True, num_nodes=4, scaled_keys=2_000
        )
        with _recorded_paths() as calls:
            result = create("4TJ").run(
                workload.cluster,
                workload.table_r,
                workload.table_s,
                JoinSpec(materialize=False),
            )
        assert result.output_rows == workload.expected_output_rows
        assert ("_count_table", None) not in calls
        assert [call for call in calls if call[0] == "_dense_lookup" and not call[2]] == []

    def test_scratch_growth_stops_at_the_cap(self):
        """Doubling a scratch table never allocates past the span cap,
        and each (name, dtype) table is capped on its own."""
        for name, dtype in (("cap_probe", np.int64), ("count_uint8", np.uint8)):
            saved = vars(local._dense_tls).pop(name, None)
            try:
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(local, "_DENSE_SPAN_CAP", 64)
                    assert len(local._scratch(name, 40, 0, dtype)) == 40
                    assert len(local._scratch(name, 50, 0, dtype)) == 50
                    table = getattr(local._dense_tls, name)
                    assert len(table) == 64 and table.dtype == dtype
            finally:
                vars(local._dense_tls).pop(name, None)
                if saved is not None:
                    setattr(local._dense_tls, name, saved)


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
