"""Bit-identity of the chunk-parallel kernels against their serial runs.

The fused kernels (``split_by``, ``hash_split``, index build /
``stable_sort_with_order``, ``join_indices``) decompose into per-chunk
subtasks when kernel workers are configured.  Chunk boundaries are a
pure function of the data size and the chunk-rows knob — never of the
worker count — and per-chunk results commit in chunk order, so every
output must equal the serial kernel bit for bit.  These properties pin
that contract across random inputs and chunk sizes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.joins.local import join_indices, local_join
from repro.parallel import ExecConfig, chunks
from repro.storage.table import LocalPartition
from repro.util import stable_sort_with_order

from conftest import exec_scope


def arrays_equal(a, b):
    __tracebackhide__ = True
    assert a.dtype == b.dtype, (a.dtype, b.dtype)
    assert np.array_equal(a, b)


def partitions_equal(a, b):
    __tracebackhide__ = True
    assert (a is None) == (b is None)
    if a is None:
        return
    arrays_equal(a.keys, b.keys)
    assert list(a.columns) == list(b.columns)
    for name in a.columns:
        arrays_equal(a.columns[name], b.columns[name])


def serial():
    """Kernel config that forces the single-chunk (reference) path."""
    return exec_scope(workers=1, chunk_rows=1 << 30)


@st.composite
def partition_case(draw):
    n = draw(st.integers(0, 400))
    key_bound = draw(st.sampled_from([1, 7, 100, 1 << 40]))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    keys = rng.integers(0, key_bound, size=n).astype(np.int64)
    part = LocalPartition(
        keys=keys,
        columns={
            "payload": rng.standard_normal(n),
            "rid": np.arange(n, dtype=np.int64),
        },
    )
    chunk_rows = draw(st.sampled_from([1, 3, 32, 129, 1 << 16]))
    workers = draw(st.integers(2, 4))
    num_buckets = draw(st.integers(1, 9))
    return part, chunk_rows, workers, num_buckets


class TestChunkBounds:
    def test_pure_function_of_size_and_knob(self):
        with exec_scope(workers=2, chunk_rows=100):
            two = chunks.chunk_bounds(250)
        with exec_scope(workers=7, chunk_rows=100):
            seven = chunks.chunk_bounds(250)
        arrays_equal(two, seven)
        assert list(two) == [0, 100, 200, 250]

    def test_degenerate_sizes(self):
        with exec_scope(workers=3, chunk_rows=64):
            assert list(chunks.chunk_bounds(0)) == [0]
            assert list(chunks.chunk_bounds(1)) == [0, 1]
            assert list(chunks.chunk_bounds(64)) == [0, 64]

    def test_bad_knobs_raise(self):
        with pytest.raises(ValidationError):
            ExecConfig(chunk_rows=0)
        with pytest.raises(ValidationError):
            ExecConfig(workers=0)


class TestChunkedSplitKernels:
    @settings(max_examples=25, deadline=None)
    @given(partition_case())
    def test_split_by_matches_serial(self, case):
        part, chunk_rows, workers, num_buckets = case
        destinations = np.mod(part.keys, num_buckets).astype(np.int64)
        with serial():
            reference = part.split_by(destinations, num_buckets)
        with exec_scope(workers=workers, chunk_rows=chunk_rows):
            chunked = part.split_by(destinations, num_buckets)
        assert len(reference) == len(chunked)
        for ref, got in zip(reference, chunked):
            partitions_equal(ref, got)

    @settings(max_examples=25, deadline=None)
    @given(partition_case())
    def test_hash_split_matches_serial(self, case):
        part, chunk_rows, workers, num_buckets = case
        with serial():
            part.invalidate_caches()
            reference = part.hash_split(num_buckets, seed=3)
        with exec_scope(workers=workers, chunk_rows=chunk_rows):
            part.invalidate_caches()
            chunked = part.hash_split(num_buckets, seed=3)
        for ref, got in zip(reference, chunked):
            partitions_equal(ref, got)

    @settings(max_examples=25, deadline=None)
    @given(partition_case())
    def test_index_build_matches_serial(self, case):
        part, chunk_rows, workers, _ = case
        with serial():
            part.invalidate_caches()
            reference = part.key_index()
        with exec_scope(workers=workers, chunk_rows=chunk_rows):
            part.invalidate_caches()
            chunked = part.key_index()
        arrays_equal(reference.order, chunked.order)
        arrays_equal(reference.sorted_keys, chunked.sorted_keys)

    @settings(max_examples=25, deadline=None)
    @given(partition_case())
    def test_stable_sort_with_order_matches_serial(self, case):
        part, chunk_rows, workers, _ = case
        with serial():
            ref_sorted, ref_order = stable_sort_with_order(part.keys)
        with exec_scope(workers=workers, chunk_rows=chunk_rows):
            got_sorted, got_order = stable_sort_with_order(part.keys)
        arrays_equal(ref_sorted, got_sorted)
        arrays_equal(ref_order, got_order)


@st.composite
def join_case(draw):
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    n_left = draw(st.integers(0, 300))
    n_right = draw(st.integers(0, 300))
    # Mix of dense / sparse key spaces picks between the direct-address
    # and sorted probe paths; duplicate-free right picks the unique path.
    key_bound = draw(st.sampled_from([5, 200, 1 << 40]))
    keys_left = rng.integers(0, key_bound, size=n_left).astype(np.int64)
    if draw(st.booleans()) and n_right <= key_bound:
        if key_bound <= 1 << 10:
            keys_right = rng.permutation(int(key_bound))[:n_right].astype(np.int64)
        else:
            keys_right = np.unique(
                rng.integers(0, key_bound, size=4 * n_right + 4)
            )[:n_right].astype(np.int64)
        keys_right = rng.permutation(keys_right)
    else:
        keys_right = rng.integers(0, key_bound, size=n_right).astype(np.int64)
    chunk_rows = draw(st.sampled_from([1, 17, 64, 1 << 16]))
    workers = draw(st.integers(2, 4))
    return keys_left, keys_right, chunk_rows, workers


class TestChunkedJoinIndices:
    @settings(max_examples=40, deadline=None)
    @given(join_case())
    def test_join_indices_matches_serial(self, case):
        keys_left, keys_right, chunk_rows, workers = case
        with serial():
            ref_left, ref_right = join_indices(keys_left, keys_right)
        with exec_scope(workers=workers, chunk_rows=chunk_rows):
            got_left, got_right = join_indices(keys_left, keys_right)
        arrays_equal(ref_left, got_left)
        arrays_equal(ref_right, got_right)

    @settings(max_examples=25, deadline=None)
    @given(join_case())
    def test_join_indices_with_index_matches_serial(self, case):
        keys_left, keys_right, chunk_rows, workers = case
        part = LocalPartition(keys=keys_right, columns={})
        with serial():
            ref = join_indices(keys_left, keys_right)
        with exec_scope(workers=workers, chunk_rows=chunk_rows):
            part.invalidate_caches()
            via_index = join_indices(
                keys_left,
                keys_right,
                right_index=part.key_index() if len(keys_right) else None,
            )
            part.invalidate_caches()
            via_partition = join_indices(
                keys_left,
                keys_right,
                right_partition=part if len(keys_right) else None,
            )
        for got in (via_index, via_partition):
            arrays_equal(ref[0], got[0])
            arrays_equal(ref[1], got[1])

    @settings(max_examples=15, deadline=None)
    @given(join_case())
    def test_local_join_matches_serial(self, case):
        keys_left, keys_right, chunk_rows, workers = case
        rng = np.random.default_rng(7)
        left = LocalPartition(
            keys=keys_left, columns={"a": rng.standard_normal(len(keys_left))}
        )
        right = LocalPartition(
            keys=keys_right, columns={"b": rng.standard_normal(len(keys_right))}
        )
        with serial():
            left.invalidate_caches(), right.invalidate_caches()
            reference = local_join(left, right)
        with exec_scope(workers=workers, chunk_rows=chunk_rows):
            left.invalidate_caches(), right.invalidate_caches()
            chunked = local_join(left, right)
        partitions_equal(reference, chunked)
