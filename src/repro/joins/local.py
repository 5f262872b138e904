"""Node-local join kernels.

Every distributed algorithm in the library ends with (or is built from)
node-local equi-joins between key arrays.  The kernel here is a
vectorized sort/merge join with full cartesian expansion per key — the
same local strategy as the paper's implementation, which uses MSB radix
sort followed by merge-join for all local joins.

The kernels accept an optional cached :class:`~repro.storage.table.KeyIndex`
so a partition that participates in several phases (tracking, broadcast
matching, final merge-join) is sorted once and probed many times.

The probe side is chunk-parallel: the right side's lookup structure
(direct-address table or sorted index) is built once on the calling
thread, then left-key chunks probe it concurrently through
:mod:`repro.parallel.chunks`.  Every probe path emits its pairs in
ascending left order, so concatenating per-chunk results in chunk order
reproduces the serial output bit for bit.

A caller that only needs the output *size* (``materialize=False``)
takes the counting kernel instead: ``sum_k count_left(k) *
count_right(k)`` from one side's distinct-key counts and one probe of
the other side's keys, allocating nothing proportional to the output.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..parallel import chunks
from ..storage.table import KeyIndex, LocalPartition, dense_key_counts
from ..util import count_dtype, segment_boundaries, segment_count

__all__ = [
    "JoinCount",
    "join_indices",
    "local_join",
    "join_cardinality",
]


#: Direct addressing is attempted when the right key range is at most
#: this many times the right row count (plus slack for tiny inputs).
_DENSE_SPAN_FACTOR = 32
#: Hard cap on each scratch table, in entries.  Every (name, dtype)
#: table is capped separately: a thread keeps at most the ``int32``
#: positional table, the two ``int64`` run tables and one count table
#: per width in use (``uint8`` / ``uint16`` / ``uint32`` for any side
#: under 2**32 rows), 27 B per entry, so 27 × 2**27 B ≈ 3.4 GiB at
#: worst.  Each table also stays within twice the widest span it served.
_DENSE_SPAN_CAP = 1 << 27

#: Reusable lookup scratch, one set per thread: phase workers run local
#: joins concurrently, and a shared table would let one thread's scatter
#: corrupt another's probe.  Chunked probes are safe against the owning
#: thread's scratch because the tables are read-only while kernel
#: subtasks probe them: build and reset both happen on the calling
#: thread, before and after the chunk dispatch.
_dense_tls = threading.local()


def _dense_span(keys_right_min: int, keys_right_max: int, rows: int) -> int | None:
    """Admissible direct-address span, or ``None`` when too sparse."""
    span = keys_right_max - keys_right_min + 1
    if span > min(_DENSE_SPAN_FACTOR * rows + 1024, _DENSE_SPAN_CAP):
        return None
    return span


def _scratch(name: str, span: int, fill, dtype) -> np.ndarray:
    """Thread-local scratch table of at least ``span`` entries.

    Every entry holds ``fill`` between calls, so a call only pays to
    scatter its own entries in and back out instead of clearing the
    whole table.  ``name`` fixes ``dtype``: a table of another width
    takes another name, and each grows up to ``_DENSE_SPAN_CAP`` on its
    own.
    """
    table = getattr(_dense_tls, name, None)
    if table is None or len(table) < span:
        # Doubling amortizes regrowth, but never past the cap.
        grown = 0 if table is None else min(2 * len(table), _DENSE_SPAN_CAP)
        table = np.full(max(span, grown), fill, dtype=dtype)
        setattr(_dense_tls, name, table)
    return table[:span]


def _probe_chunks(probe, n_probe: int) -> list:
    """``probe(start, stop)`` per probe-key chunk, results in chunk order."""
    slices = chunks.chunked_slices(n_probe)
    if slices is None:
        return [probe(0, n_probe)]
    return chunks.run_chunks(lambda bounds: probe(bounds[0], bounds[1]), slices)


def _probe_in_chunks(probe, n_left: int) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch ``probe(start, stop)`` over left-key chunks.

    ``probe`` returns ``(left_idx, right_idx)`` with *global* left
    indices for the given slice.  All probe paths emit pairs in
    ascending left order, so per-chunk results concatenated in chunk
    order equal the serial ``probe(0, n_left)`` bit for bit.
    """
    parts = _probe_chunks(probe, n_left)
    if len(parts) == 1:
        return parts[0]
    return (
        np.concatenate([left for left, _ in parts]),
        np.concatenate([right for _, right in parts]),
    )


def _dense_lookup(
    keys: np.ndarray, rows: int, distinct: bool = False
) -> tuple[np.ndarray, np.ndarray, int] | None:
    """Scatter dense, duplicate-free keys into the positional table.

    Returns ``(lookup, slots, base)`` — ``lookup[k - base]`` is the
    position of key ``k`` in ``keys``, ``-1`` for absent keys — or
    ``None`` (table left clean) when the keys span too wide a range for
    a side of ``rows`` rows or, unless the caller vouches they are
    ``distinct``, contain duplicates.  The caller probes and then
    restores ``lookup[slots] = -1``.
    """
    base = int(keys.min())
    span = _dense_span(base, int(keys.max()), rows)
    if span is None:
        return None
    lookup = _scratch("scratch", span, -1, np.int32)
    slots = keys - base
    positions = np.arange(len(keys), dtype=np.int32)
    lookup[slots] = positions
    # Duplicate keys overwrite each other's slot; detecting the
    # mismatch on read-back is one small gather instead of a scan of
    # the whole span.
    if not distinct and not bool((lookup[slots] == positions).all()):
        lookup[slots] = -1
        return None
    return lookup, slots, base


def _dense_unique_join(
    keys_left: np.ndarray, keys_right: np.ndarray, distinct: bool = False
) -> tuple[np.ndarray, np.ndarray] | None:
    """Direct-address probe for dense, duplicate-free right keys.

    When the right key range is close to the right cardinality, one
    scatter into a positional lookup table plus one gather replaces
    both the sort and the binary search.  Returns the exact arrays the
    sorted unique-right path would produce, or ``None`` when the keys
    are too sparse or contain duplicates.  A caller that knows the
    right keys are ``distinct`` skips the duplicate read-back.
    """
    built = _dense_lookup(keys_right, len(keys_right), distinct)
    if built is None:
        return None
    lookup, shifted_right, base = built
    span = len(lookup)

    def probe(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        shifted = keys_left[start:stop] - base
        in_range = (shifted >= 0) & (shifted < span)
        candidate = lookup[np.where(in_range, shifted, 0)]
        hit = in_range & (candidate >= 0)
        left_idx = np.flatnonzero(hit)
        right_idx = candidate[left_idx].astype(np.int64)
        return left_idx + start, right_idx

    try:
        return _probe_in_chunks(probe, len(keys_left))
    finally:
        lookup[shifted_right] = -1


def _expand_runs(
    lo: np.ndarray, counts: np.ndarray, order_right: np.ndarray, start: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of a probe chunk whose left key ``i`` matches the
    sorted-right run ``lo[i] : lo[i] + counts[i]``.

    Left ids ascend (offset by the chunk's ``start``) and each run is
    enumerated in sorted-right order.  Output pair ``p`` of left key
    ``i`` is run position ``p - (cumsum(counts) - counts)[i]``, so one
    per-key shift gathered by the expanded left id, plus ``arange``,
    addresses every matched right row: one ``repeat`` and one gather
    proportional to the output.
    """
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    left_local = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    positions = (lo - (np.cumsum(counts) - counts))[left_local]
    positions += np.arange(total, dtype=np.int64)
    left_local += start
    return left_local, order_right[positions]


def _dense_indexed_join(
    keys_left: np.ndarray,
    order_right: np.ndarray,
    sorted_right: np.ndarray,
    runs: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Direct-address probe against a sorted right index with duplicates.

    Run-start positions and run lengths of the sorted right keys scatter
    into two span-sized tables, replacing both binary searches of the
    general path with one gather each.  The emitted pairs match the
    searchsorted path exactly: for a present key the tables hold the
    ``lo`` offset and ``hi - lo`` count that path would compute, and the
    expansion enumerates the run in the same sorted-right order.
    ``runs`` are the right side's distinct keys and counts when already
    known; the runs are found by a scan of ``sorted_right`` otherwise.
    Returns ``None`` when the right keys are too sparse.
    """
    base = int(sorted_right[0])
    span = _dense_span(base, int(sorted_right[-1]), len(sorted_right))
    if span is None:
        return None
    if runs is None:
        run_starts = segment_boundaries(sorted_right)
        run_counts = segment_count(run_starts, len(sorted_right))
        distinct_shifted = sorted_right[run_starts] - base
    else:
        distinct, run_counts = runs
        run_starts = np.cumsum(run_counts) - run_counts
        distinct_shifted = distinct - base
    start_table = _scratch("run_starts", span, 0, np.int64)
    count_table = _scratch("run_counts", span, 0, np.int64)
    start_table[distinct_shifted] = run_starts
    count_table[distinct_shifted] = run_counts

    def probe(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        chunk = keys_left[start:stop]
        shifted = chunk - base
        in_range = (shifted >= 0) & (shifted < span)
        safe = np.where(in_range, shifted, 0)
        counts = np.where(in_range, count_table[safe], 0)
        return _expand_runs(start_table[safe], counts, order_right, start)

    try:
        return _probe_in_chunks(probe, len(keys_left))
    finally:
        count_table[distinct_shifted] = 0


def _probe_unique_sorted(
    keys_left: np.ndarray, order_right: np.ndarray, sorted_right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Single-probe path: each left key matches at most one right row,
    so one searchsorted plus an equality check replaces the
    lo/hi/repeat expansion machinery."""

    def probe(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        chunk = keys_left[start:stop]
        lo = np.searchsorted(sorted_right, chunk, side="left")
        clipped = np.minimum(lo, len(sorted_right) - 1)
        hit = sorted_right[clipped] == chunk
        left_idx = np.flatnonzero(hit)
        right_idx = order_right[clipped[left_idx]]
        return left_idx + start, right_idx

    return _probe_in_chunks(probe, len(keys_left))


def _probe_general_sorted(
    keys_left: np.ndarray, order_right: np.ndarray, sorted_right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """General sorted-probe path with per-key cartesian expansion."""

    def probe(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        chunk = keys_left[start:stop]
        lo = np.searchsorted(sorted_right, chunk, side="left")
        hi = np.searchsorted(sorted_right, chunk, side="right")
        return _expand_runs(lo, hi - lo, order_right, start)

    return _probe_in_chunks(probe, len(keys_left))


def join_indices(
    keys_left: np.ndarray,
    keys_right: np.ndarray,
    right_index: KeyIndex | None = None,
    right_partition: "LocalPartition | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs ``(i, j)`` with ``keys_left[i] == keys_right[j]``.

    Implements the cartesian product per key: a key appearing ``a`` times
    on the left and ``b`` times on the right yields ``a*b`` pairs, which
    is the semantics of the general equi-join the paper targets (no
    foreign-key assumptions).

    Parameters
    ----------
    right_index:
        Optional cached index of ``keys_right`` (it must have been built
        from the same array); reused instead of re-sorting.
    right_partition:
        Optional partition owning ``keys_right``; direct addressing is
        tried first, and only then is the partition's key index built
        (and cached).  Its cached distinct keys, when present, skip the
        duplicate-free table for repeating keys and give the key runs.

    Returns
    -------
    (left_idx, right_idx)
        Parallel ``int64`` arrays; ``len`` equals the join output size.
    """
    keys_left = np.asarray(keys_left, dtype=np.int64)
    keys_right = np.asarray(keys_right, dtype=np.int64)
    if len(keys_left) == 0 or len(keys_right) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # Distinct keys a partition already caches tell whether its keys
    # repeat, and where their runs start, without touching the keys.
    runs = None if right_partition is None else right_partition.cached_distinct()
    if right_index is None:
        # Repeating keys would only be scattered into the duplicate-free
        # table and read back to find the duplicate: skip that attempt.
        # Keys known to be duplicate-free skip the read-back instead.
        distinct = runs is not None and len(runs[0]) == len(keys_right)
        if runs is None or distinct:
            dense = _dense_unique_join(keys_left, keys_right, distinct)
            if dense is not None:
                return dense
        if right_partition is not None:
            right_index = right_partition.key_index()
    if right_index is not None:
        order_right = right_index.order
        sorted_right = right_index.sorted_keys
        right_unique = right_index.unique
    else:
        order_right = np.argsort(keys_right, kind="stable")
        sorted_right = keys_right[order_right]
        right_unique = len(sorted_right) <= 1 or bool(
            (sorted_right[1:] != sorted_right[:-1]).all()
        )
    if right_unique:
        return _probe_unique_sorted(keys_left, order_right, sorted_right)
    dense = _dense_indexed_join(keys_left, order_right, sorted_right, runs)
    if dense is not None:
        return dense
    return _probe_general_sorted(keys_left, order_right, sorted_right)


@dataclass(frozen=True)
class JoinCount:
    """Size of a local join whose rows were never built.

    What :func:`local_join` returns under ``materialize=False``: the one
    attribute operators read off a joined partition, and nothing else.
    """

    num_rows: int


def local_join(
    left: LocalPartition,
    right: LocalPartition,
    left_prefix: str = "r.",
    right_prefix: str = "s.",
    materialize: bool = True,
) -> LocalPartition | JoinCount:
    """Equi-join of two local partitions.

    Output columns are the join key plus both sides' payload columns,
    name-prefixed to avoid collisions.  The right partition's cached
    key index is (built and) reused, so joining the same partition
    repeatedly never re-sorts it; payload gathers chunk
    over the output rows when kernel parallelism is on.

    With ``materialize=False`` no row is built: the result is a
    :class:`JoinCount` from the counting kernel, whose memory is bounded
    by the inputs however large the output.
    """
    if not materialize:
        return JoinCount(_count_matches(left, right))
    left_idx, right_idx = join_indices(left.keys, right.keys, right_partition=right)
    columns: dict[str, np.ndarray] = {}
    for name, values in left.columns.items():
        columns[left_prefix + name] = chunks.chunked_gather(values, left_idx)
    for name, values in right.columns.items():
        columns[right_prefix + name] = chunks.chunked_gather(values, right_idx)
    return LocalPartition(
        keys=chunks.chunked_gather(left.keys, left_idx), columns=columns
    )


def join_cardinality(keys_left: np.ndarray, keys_right: np.ndarray) -> int:
    """Output size of the equi-join of two key arrays; builds no pairs."""
    return _count_matches(LocalPartition(keys=keys_left), LocalPartition(keys=keys_right))


def _count_table(
    keys: np.ndarray,
    bounds: tuple[int, int],
    rows: int,
    counts: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int] | None:
    """Scatter a build side's multiplicities into its thread-local count table.

    Returns ``(table, slots, base)``: ``table[k - base]`` is the
    multiplicity of ``k``, zero for absent keys, in the narrowest
    unsigned dtype holding the largest of ``counts`` (the multiplicities
    of the distinct ``keys``).  Without ``counts`` the ``keys`` are a
    side's raw keys and each sets a byte cell to 1; if fewer cells are
    set than there are keys, a key repeats and the cells are cleared
    again.  ``None`` (table left clean) for that, or when the keys'
    ``bounds`` (their min and max) span too wide a range for a side of
    ``rows`` rows.  The caller probes and then restores
    ``table[slots] = 0``.
    """
    base, top = bounds
    span = _dense_span(base, top, rows)
    if span is None:
        return None
    dtype = count_dtype(1 if counts is None else int(counts.max()))
    table = _scratch(f"count_{dtype}", span, 0, dtype)
    slots = keys - base
    if counts is not None:
        table[slots] = counts
    else:
        table[slots] = 1
        if np.count_nonzero(table.view(np.bool_)) < len(keys):
            table[slots] = 0
            return None
    return table, slots, base


def _count_matches(left: LocalPartition, right: LocalPartition) -> int:
    """``sum_k count_left(k) * count_right(k)``: the counting kernel.

    The sum is symmetric, so the *build* side is whichever partition
    already caches its key index or distinct keys (the right one when
    both or neither do) and the other side's keys probe it.  Paths, in
    order:

    1. an uncached build side over a dense key domain
       (:func:`dense_key_counts`) is counted by one ``bincount`` and
       probed once: each in-range probe key adds its key's count;
    2. an uncached build side within :func:`_dense_span` sets one byte
       cell per raw key (:func:`_count_table`), which costs a
       duplicate-free side no distinct pass; a repeated key clears the
       cells and falls through;
    3. the build side's distinct keys and counts (cached, or computed
       once) fill the count table, in the narrowest unsigned dtype that
       holds the largest multiplicity;
    4. when their span fails :func:`_dense_span`, a binary search over
       the sorted distinct keys.

    A table probe adds ``table[k - base]`` per in-range probe key, or
    counts the non-zero cells hit when every multiplicity is 1.  Pairs
    are never enumerated, so pair order does not apply.

    The probe is chunk-parallel like the pair-building probes; partial
    counts are Python ints summed in chunk order, so the result does
    not depend on worker count or chunk size.
    """
    if left.num_rows == 0 or right.num_rows == 0:
        return 0
    build, keys_probe, cached = right, left.keys, right.has_key_cache()
    if not cached and left.has_key_cache():
        build, keys_probe, cached = left, right.keys, True
    dense = None
    if not cached:
        # One min and one max of the raw keys serve paths 1 and 2.
        bounds = int(build.keys.min()), int(build.keys.max())
        dense = dense_key_counts(build.keys, bounds)
    if dense is not None:
        table, base = dense

        def probe(start: int, stop: int) -> int:
            shifted = keys_probe[start:stop] - base
            return int(table[shifted[(shifted >= 0) & (shifted < len(table))]].sum())

        return sum(_probe_chunks(probe, len(keys_probe)))
    counts = None
    built = None if cached else _count_table(build.keys, bounds, build.num_rows)
    if built is None:
        # Distinct keys come sorted: their ends are their bounds.
        distinct, counts = build.distinct_with_counts()
        built = _count_table(
            distinct, (int(distinct[0]), int(distinct[-1])), build.num_rows, counts
        )
    if built is None:

        def probe(start: int, stop: int) -> int:
            chunk = keys_probe[start:stop]
            nearest = np.minimum(
                np.searchsorted(distinct, chunk, side="left"), len(distinct) - 1
            )
            return int(counts[nearest][distinct[nearest] == chunk].sum())

        return sum(_probe_chunks(probe, len(keys_probe)))
    table, slots, base = built
    span = len(table)
    # Raw keys that set a cell each, or as many distinct keys as rows:
    # every multiplicity is 1.
    ones = counts is None or len(counts) == build.num_rows

    def probe(start: int, stop: int) -> int:
        shifted = keys_probe[start:stop] - base
        hits = table[shifted[(shifted >= 0) & (shifted < span)]]
        return int(np.count_nonzero(hits) if ones else hits.sum(dtype=np.int64))

    try:
        return sum(_probe_chunks(probe, len(keys_probe)))
    finally:
        table[slots] = 0
