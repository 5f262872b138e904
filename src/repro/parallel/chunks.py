"""Chunked kernel parallelism: per-chunk subtasks with deterministic gathers.

The phase engine (:func:`repro.parallel.run_phase`) parallelizes *across*
nodes, but each node's kernel — the scatter sort behind ``split_by`` and
``hash_split``, the pack-sort behind the key index, the probe behind
``join_indices`` — still ran single-threaded.  This module splits those
kernels into per-chunk subtasks and recombines the results in chunk
order, with two invariants that keep every output bit-identical to the
serial kernel:

1. **Chunk boundaries are a function of data size only.**
   :func:`chunk_bounds` derives the boundaries from the row count and
   the config's ``chunk_rows`` — never from the worker count —
   so the same input always decomposes into the same chunks no matter
   how many threads execute them.

2. **Results commit in chunk order.**  :func:`run_chunks` returns chunk
   results in chunk order regardless of completion order, and every
   recombination below (gather scatters into disjoint output slices,
   counting merges, pairwise sorted merges) is a pure function of the
   per-chunk results.

Both knobs come from the :class:`~repro.parallel.config.ExecConfig` in
scope (:func:`~repro.parallel.config.current`): kernel width is its
``workers`` and chunk size its ``chunk_rows``.  Joins and phase tasks
bind their cluster's config, so a kernel follows the cluster it works
for.  Chunk subtasks run on a thread pool per width (numpy sorts,
gathers, and bincounts release the GIL); a thread already executing a
chunk subtask runs nested chunk work inline, so kernels composed of
kernels can never deadlock a pool.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable

import numpy as np

from .config import check_count, current

__all__ = [
    "chunk_bounds",
    "chunked_slices",
    "chunked_build",
    "chunked_gather",
    "chunked_argsort_bounded",
    "chunked_sort_unique",
    "kernel_chunk_rows",
    "kernel_workers",
    "run_chunks",
]

#: One kernel pool per width, never shut down: a thread whose width
#: differs from another's gets its own pool instead of closing theirs.
_pools: dict[int, ThreadPoolExecutor] = {}
_pool_lock = threading.Lock()

#: Nested-execution guard: a thread already running a chunk subtask must
#: not submit to (and then block on) the pool it occupies.
_tls = threading.local()


def kernel_chunk_rows() -> int:
    """Rows per kernel chunk: the ``chunk_rows`` of the config in scope."""
    return current().chunk_rows


def kernel_workers() -> int:
    """Worker count for chunked kernels: the ``workers`` of the config in scope."""
    return current().workers


def set_kernel_workers(workers: int | None) -> None:
    """Validate ``workers``; kernel width is the cluster's ``workers``."""
    # Kept only because benchmarks/e2e/measure.py still calls it.
    if workers is not None:
        check_count(workers, "worker count")


def _kernel_pool(workers: int) -> ThreadPoolExecutor:
    with _pool_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = _pools[workers] = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-kernel"
            )
        return pool


def run_chunks(fn: Callable, items: Iterable) -> list:
    """Run ``fn`` over chunk descriptors; results are in chunk order.

    Dispatches to the kernel thread pool when parallelism is enabled
    and runs inline (still in order) otherwise — including when the
    calling thread is itself a chunk subtask (nested guard).  ``fn``
    must be a pure function of its item (plus read-only shared state):
    subtasks run concurrently and may not send messages, record profile
    steps, or mutate overlapping arrays.
    """
    items = list(items)
    workers = kernel_workers()
    if len(items) <= 1 or workers <= 1 or getattr(_tls, "in_kernel", False):
        return [fn(item) for item in items]

    def subtask(item):
        _tls.in_kernel = True
        try:
            return fn(item)
        finally:
            _tls.in_kernel = False

    return list(_kernel_pool(workers).map(subtask, items))


def chunk_bounds(n: int, chunk_rows: int | None = None) -> np.ndarray:
    """Chunk boundary offsets ``[0, c, 2c, ..., n]`` for ``n`` rows.

    A pure function of the data size and the chunk-size knob — worker
    count never influences the decomposition, which is what makes
    chunked results reproducible across hosts and worker counts.
    """
    rows = chunk_rows if chunk_rows is not None else kernel_chunk_rows()
    if n <= 0:
        return np.zeros(1, dtype=np.int64)
    edges = np.arange(0, n, rows, dtype=np.int64)
    return np.append(edges, np.int64(n))


def chunked_slices(n: int) -> list[tuple[int, int]] | None:
    """``(start, stop)`` chunk slices, or ``None`` when chunking is off.

    ``None`` means the caller should take its serial path: kernel
    workers resolve to 1, the input fits in one chunk, or the calling
    thread is already a chunk subtask.
    """
    if kernel_workers() <= 1 or getattr(_tls, "in_kernel", False):
        return None
    bounds = chunk_bounds(n)
    if len(bounds) <= 2:
        return None
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(len(bounds) - 1)]


def chunked_build(fn: Callable[[int, int], np.ndarray], n: int, dtype) -> np.ndarray:
    """Assemble ``out[start:stop] = fn(start, stop)`` per chunk.

    For elementwise producers (hash partitioning, value packing) the
    per-chunk results land in disjoint slices of one preallocated
    array, so the assembled output is bit-identical to ``fn(0, n)``.
    """
    slices = chunked_slices(n)
    if slices is None:
        return fn(0, n)
    out = np.empty(n, dtype=dtype)

    def fill(bounds: tuple[int, int]):
        start, stop = bounds
        out[start:stop] = fn(start, stop)

    run_chunks(fill, slices)
    return out


def chunked_gather(values: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """``values[indices]`` with the index array processed in chunks.

    Only integer index arrays over 1-D values chunk (a boolean mask's
    output length is data-dependent, so masks take the plain path).
    """
    if (
        getattr(values, "ndim", 1) != 1
        or not isinstance(indices, np.ndarray)
        or indices.ndim != 1
        or indices.dtype == np.bool_
    ):
        return values[indices]
    slices = chunked_slices(len(indices))
    if slices is None:
        return values[indices]
    out = np.empty(len(indices), dtype=values.dtype)

    def fill(bounds: tuple[int, int]):
        start, stop = bounds
        out[start:stop] = values[indices[start:stop]]

    run_chunks(fill, slices)
    return out


def chunked_argsort_bounded(
    values: np.ndarray, upper: int, argsort_fn: Callable[[np.ndarray, int], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Stable argsort of ints in ``[0, upper)`` via per-chunk sorts.

    Returns ``(order, counts)`` where ``order`` is bit-identical to
    ``argsort_fn(values, upper)`` over the whole array and ``counts`` is
    ``np.bincount(values, minlength=upper)``.

    Why the merge is exact: the global stable order groups rows by value
    with original positions ascending inside each value; rows of value
    ``v`` therefore appear chunk by chunk, each chunk's run in its local
    stable order.  A counting merge places chunk ``c``'s run of ``v`` at
    ``bucket_start[v] + sum(counts[<c, v])`` — exactly the global
    position of that run.
    """
    n = len(values)
    slices = chunked_slices(n)
    if slices is None:
        return argsort_fn(values, upper), np.bincount(values, minlength=upper)

    def analyze(bounds: tuple[int, int]):
        start, stop = bounds
        chunk = values[start:stop]
        return argsort_fn(chunk, upper), np.bincount(chunk, minlength=upper)

    parts = run_chunks(analyze, slices)
    counts_per_chunk = np.stack([counts for _, counts in parts])
    totals = counts_per_chunk.sum(axis=0)
    bucket_start = np.concatenate(([0], np.cumsum(totals)[:-1]))
    run_start = bucket_start + np.concatenate(
        (
            np.zeros((1, upper), dtype=np.int64),
            np.cumsum(counts_per_chunk, axis=0)[:-1],
        )
    )
    out = np.empty(n, dtype=parts[0][0].dtype)

    def scatter(chunk_id: int):
        start = slices[chunk_id][0]
        order_c, counts_c = parts[chunk_id]
        # Sorted position j of the chunk lies in its value's run, which
        # moves from local_start[v] to run_start[chunk, v]: one shift per
        # run, applied to all rows at once (cost independent of upper).
        local_start = np.cumsum(counts_c) - counts_c
        target = np.repeat(run_start[chunk_id] - local_start, counts_c)
        target += np.arange(len(order_c))
        out[target] = order_c + start

    run_chunks(scatter, range(len(slices)))
    return out, totals


def _merge_sorted(pair: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Merge two sorted arrays of pairwise-distinct values."""
    a, b = pair
    out = np.empty(len(a) + len(b), dtype=a.dtype)
    positions_b = np.searchsorted(a, b, side="left") + np.arange(
        len(b), dtype=np.int64
    )
    keep_a = np.ones(len(out), dtype=bool)
    keep_a[positions_b] = False
    out[positions_b] = b
    out[keep_a] = a
    return out


def chunked_sort_unique(values: np.ndarray) -> np.ndarray:
    """Sort an array of pairwise-distinct values via chunk sorts + merges.

    Chunks are disjoint slice views sorted in place concurrently, then
    sorted runs merge pairwise (vectorized ``searchsorted`` placement)
    until one remains.  With all values distinct there is exactly one
    ascending arrangement, so the result is bit-identical to
    ``values.sort()`` — this is what makes the pack-sort of
    :func:`repro.util.sort_with_index_bits` (value in the high bits,
    unique row index in the low bits) chunkable without a stability
    argument about the merge order.

    Returns the sorted array; the input may or may not be sorted in
    place depending on whether chunking engaged.
    """
    slices = chunked_slices(len(values))
    if slices is None:
        values.sort()
        return values
    pieces = [values[start:stop] for start, stop in slices]

    def sort_piece(piece: np.ndarray):
        piece.sort()

    run_chunks(sort_piece, pieces)
    runs = pieces
    while len(runs) > 1:
        pairs = [(runs[i], runs[i + 1]) for i in range(0, len(runs) - 1, 2)]
        merged = run_chunks(_merge_sorted, pairs)
        if len(runs) % 2:
            merged.append(runs[-1])
        runs = merged
    return runs[0]
