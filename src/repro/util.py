"""Shared numeric utilities: key hashing and segmented array operations.

The simulator routes tuples and scheduling work by hashing join keys, and
the vectorized schedule generator relies on segmented (group-by style)
reductions over sorted arrays.  Both live here so every subsystem hashes
and segments identically.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = [
    "hash_partition",
    "mix64",
    "group_bounded",
    "stable_argsort_auto",
    "stable_argsort_bounded",
    "sort_with_index_bits",
    "stable_sort_with_order",
    "segment_boundaries",
    "segment_count",
    "segment_ids",
    "segmented_cartesian",
    "index_dtype",
    "node_dtype",
    "count_dtype",
]

# splitmix64 multiplication constants; the full finalizer is applied so that
# consecutive integer keys (common in synthetic workloads) spread uniformly
# across nodes instead of landing on ``key % N``.
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def mix64(values: np.ndarray, seed: int = 0) -> np.ndarray:
    """Apply the splitmix64 finalizer to an integer array.

    Parameters
    ----------
    values:
        Integer array; interpreted as unsigned 64-bit.
    seed:
        Optional stream selector so different routing decisions (e.g. hash
        join destinations vs. random shuffles) are decorrelated.

    Returns
    -------
    numpy.ndarray
        ``uint64`` array of well-mixed hash values.
    """
    x = values.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += _SPLITMIX_GAMMA * np.uint64(seed + 1)
        x ^= x >> np.uint64(30)
        x *= _MIX_1
        x ^= x >> np.uint64(27)
        x *= _MIX_2
        x ^= x >> np.uint64(31)
    return x


def hash_partition(keys: np.ndarray, num_nodes: int, seed: int = 0) -> np.ndarray:
    """Map each key to its hash-designated node in ``[0, num_nodes)``.

    This is the ``hash(k) mod N`` of the paper: it determines both the
    Grace hash join destination and the scheduling (``processT``) node of
    track join for every distinct key.
    """
    if num_nodes <= 0:
        raise ValidationError(f"num_nodes must be positive, got {num_nodes}")
    mixed = mix64(keys, seed)
    if num_nodes & (num_nodes - 1) == 0:
        # Power-of-two cluster sizes mask instead of dividing; identical
        # values (x % 2**k == x & (2**k - 1) for unsigned x).
        return (mixed & np.uint64(num_nodes - 1)).astype(np.int64)
    return (mixed % np.uint64(num_nodes)).astype(np.int64)


def stable_argsort_bounded(values: np.ndarray, upper: int) -> np.ndarray:
    """Stable argsort of non-negative ints known to be below ``upper``.

    Produces the exact permutation of ``np.argsort(values, kind="stable")``
    but casts to the narrowest sufficient unsigned dtype first, which lets
    numpy use radix sort (several times faster than mergesort on int64 for
    the destination arrays scatters sort, whose domain is ``num_nodes``).
    """
    if upper <= (1 << 8):
        return np.argsort(values.astype(np.uint8), kind="stable")
    if upper <= (1 << 16):
        return np.argsort(values.astype(np.uint16), kind="stable")
    if upper <= (1 << 32):
        return np.argsort(values.astype(np.uint32), kind="stable")
    return np.argsort(values, kind="stable")


def group_bounded(values: np.ndarray, upper: int) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by a small integer id: ``(order, bounds)``.

    ``order`` is ``np.argsort(values, kind="stable")`` and ``bounds`` has
    ``upper + 1`` offsets, ``bounds[b]`` counting the values below ``b``:
    bucket ``b``'s rows, in input order, are
    ``order[bounds[b]:bounds[b + 1]]``.  The offsets come from the bucket
    counts the chunk-parallel radix sort already takes, so neither the
    sorted values nor a search over them is ever built; the result is
    bit-identical for any kernel worker count or chunk size.

    Precondition: every value is an integer in ``[0, upper)``.  The sort
    narrows to uint8/uint16/uint32, so an out-of-range value would wrap
    silently into a wrong bucket — validate outside input first.  The
    offsets table is dense (``N**2 + 1`` entries for the link grouping
    of an ``N``-node exchange), hence the cap on ``upper``.
    """
    # Imported lazily for the same reason as in sort_with_index_bits.
    from .parallel import chunks

    if upper > (1 << 24):
        raise ValidationError(f"cannot group into {upper} buckets (limit 2**24)")
    order, counts = chunks.chunked_argsort_bounded(values, upper, stable_argsort_bounded)
    bounds = np.zeros(upper + 1, dtype=np.intp)
    np.cumsum(counts, out=bounds[1:])
    return order, bounds


def stable_argsort_auto(values: np.ndarray) -> np.ndarray:
    """Stable argsort that narrows the sort dtype from the value range.

    Produces the exact permutation of ``np.argsort(values, kind="stable")``:
    shifting by the minimum and casting to the narrowest sufficient
    unsigned dtype is a strictly monotonic transform, so ordering and
    stability are preserved while numpy's radix sort runs half (or
    fewer) passes.  The two O(n) range scans are far cheaper than the
    sort itself; values whose span needs 64 bits fall through to the
    plain stable argsort.
    """
    n = len(values)
    if n == 0:
        return np.empty(0, dtype=np.intp)
    lo = int(values.min())
    span = int(values.max()) - lo
    if span < (1 << 8):
        return np.argsort((values - lo).astype(np.uint8), kind="stable")
    if span < (1 << 16):
        return np.argsort((values - lo).astype(np.uint16), kind="stable")
    if span < (1 << 32):
        return np.argsort((values - lo).astype(np.uint32), kind="stable")
    return np.argsort(values, kind="stable")


def sort_with_index_bits(high: np.ndarray, idx_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort of non-negative int64 ``high``: ``(order, high[order])``.

    Each value is packed above its row index — ``high << idx_bits |
    row`` — and the packed int64s are *value*-sorted: equal values then
    order by row, which is exactly stability, and a direct sort skips
    the indirect gather passes an argsort pays for — several times
    faster.  The caller guarantees ``len(high) <= 2**idx_bits`` and
    that ``high``'s bit length plus ``idx_bits`` is at most 63.

    The packed values are pairwise distinct (unique row in the low
    bits), so the chunked build and sort-merge give the unique
    ascending order — bit-identical to one in-place sort for any chunk
    size or worker count.
    """
    # Imported lazily: util is a leaf module for most of the library
    # and the chunk engine is only needed here.
    from .parallel import chunks

    shift = np.int64(idx_bits)
    packed = chunks.chunked_build(
        lambda start, stop: (high[start:stop] << shift)
        | np.arange(start, stop, dtype=np.int64),
        len(high),
        np.int64,
    )
    packed = chunks.chunked_sort_unique(packed)
    return packed & np.int64((1 << idx_bits) - 1), packed >> shift


def stable_sort_with_order(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(order, values[order])`` for a stable sort of ``values``.

    When the value span and the row count together fit in 63 bits the
    shifted values go through :func:`sort_with_index_bits` with an
    index just wide enough for the rows.  Wider inputs fall back to
    :func:`stable_argsort_auto` plus a gather.  Either way the result
    is bit-identical to ``order = np.argsort(values, kind="stable")``
    and ``values[order]``.
    """
    n = len(values)
    if n == 0:
        empty_order = np.empty(0, dtype=np.int64)
        return empty_order, np.empty(0, dtype=values.dtype if hasattr(values, "dtype") else np.int64)
    lo = int(values.min())
    span = int(values.max()) - lo
    idx_bits = max(1, (n - 1).bit_length())
    if span.bit_length() + idx_bits <= 63:
        order, shifted = sort_with_index_bits(values - lo, idx_bits)
        return order, (shifted + lo).astype(values.dtype, copy=False)
    order = stable_argsort_auto(values)
    return order, values[order]


def segment_boundaries(sorted_group_keys: np.ndarray) -> np.ndarray:
    """Return start offsets of each run of equal values in a sorted array.

    The returned array always starts with 0; an empty input yields an
    empty offsets array.  Offsets are suitable for ``np.add.reduceat``.
    """
    n = len(sorted_group_keys)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(sorted_group_keys[1:], sorted_group_keys[:-1], out=change[1:])
    return np.flatnonzero(change).astype(np.int64, copy=False)


def segment_count(starts: np.ndarray, total: int) -> np.ndarray:
    """Length of each segment, given segment start offsets and total size."""
    if len(starts) == 0:
        return np.empty(0, dtype=np.int64)
    return np.diff(np.append(starts, total))


def segment_ids(starts: np.ndarray, total: int) -> np.ndarray:
    """Expand segment starts into a per-element segment index array.

    The ids are :func:`index_dtype` integers: int32 below 2**31 elements.
    """
    ids = np.zeros(total, dtype=index_dtype(total))
    ids[starts[1:]] = 1
    return np.cumsum(ids, out=ids)


def index_dtype(n: int) -> np.dtype:
    """int32 when every index below ``n`` fits in it, else int64."""
    return np.dtype(np.int32 if n <= np.iinfo(np.int32).max else np.int64)


def node_dtype(num_nodes: int) -> np.dtype:
    """Narrowest signed integer dtype holding every node id and ``-1``.

    ``-num_nodes`` fits a two's-complement type exactly when the largest
    id ``num_nodes - 1`` does: int8 up to 128 nodes, int16 up to 32 768.
    Arithmetic that can leave ``[-1, num_nodes)`` (packed link or triple
    ids) widens first.
    """
    return np.min_scalar_type(-max(1, num_nodes))


def count_dtype(max_count: int) -> np.dtype:
    """Narrowest unsigned integer dtype holding ``0..max_count``."""
    return np.min_scalar_type(max(0, int(max_count)))


def segmented_cartesian(a_seg: np.ndarray, b_seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment cartesian product of two segment-sorted sequences.

    Given two arrays of (sorted, non-negative) segment ids, return index
    pairs ``(ia, ib)`` such that every element of ``a`` is paired with
    every element of ``b`` belonging to the same segment.  Used to
    expand per-key broadcaster/destination lists into location-message
    pairs.
    """
    if len(a_seg) == 0 or len(b_seg) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if bool((b_seg[1:] > b_seg[:-1]).all()):
        # Unique segments on the b side: every a element pairs with at
        # most one b element, so the expansion degenerates to a sorted
        # intersection.  Identical pairs in identical order to the
        # general expansion below.
        nseg = int(max(int(a_seg[-1]), int(b_seg[-1]))) + 1
        if nseg <= 4 * (len(a_seg) + len(b_seg)) + 1024:
            # Dense segment ids: a direct-address rank table turns the
            # intersection into one scatter and one gather, several
            # times faster than per-element binary search.
            b_rank = np.full(nseg, -1, dtype=np.int64)
            b_rank[b_seg] = np.arange(len(b_seg), dtype=np.int64)
            pos = b_rank[a_seg]
            ia = np.flatnonzero(pos >= 0)
            return ia, pos[ia]
        pos = np.searchsorted(b_seg, a_seg, side="left")
        clipped = np.minimum(pos, len(b_seg) - 1)
        found = b_seg[clipped] == a_seg
        ia = np.flatnonzero(found)
        return ia, clipped[ia]
    nseg = int(max(a_seg.max(), b_seg.max())) + 1
    count_b = np.bincount(b_seg, minlength=nseg)
    rep = count_b[a_seg]
    total = int(rep.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    ia = np.repeat(np.arange(len(a_seg), dtype=np.int64), rep)
    b_start = np.cumsum(count_b) - count_b
    start_of_pair = np.repeat(b_start[a_seg], rep)
    within = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(rep) - rep, rep)
    ib = start_of_pair + within
    return ia, ib
