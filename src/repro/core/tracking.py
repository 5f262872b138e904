"""The tracking phase: discover where every join key's tuples live.

Both inputs are projected to their join key; each node eliminates local
duplicates and sends its distinct keys — optionally with per-node match
counts (3/4-phase) — to the key's scheduling node ``hash(k) mod N``.
The scheduling nodes thereby assemble, for every distinct key, the list
of nodes holding matches on either side, which is the input to per-key
schedule generation.

This module materializes that state as a :class:`TrackingTable`: a flat
"union table" with one row per (key, node) pair that holds at least one
matching tuple on either side, carrying the matching tuple *count* per
side plus one tuple width per side.  A side's matching bytes on a node
are ``count x width`` (the paper generalizes counts to sizes this way);
consumers derive them per block instead of storing a float per entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..exchange.gather import flush
from ..parallel.chunks import kernel_chunk_rows, run_chunks
from ..storage.table import DistributedTable
from ..timing.profile import ExecutionProfile
from ..util import (
    count_dtype,
    hash_partition,
    index_dtype,
    node_dtype,
    segment_boundaries,
    segment_ids,
    sort_with_index_bits,
)
from .messages import tracking_message_bytes

__all__ = ["TrackingTable", "run_tracking_phase"]


@dataclass
class TrackingTable:
    """Union of per-node key occurrences across both tables.

    All per-entry arrays are parallel and sorted by ``(key, node)``:

    Attributes
    ----------
    keys:
        Join key of the entry.
    nodes:
        Node holding matching tuples of that key
        (:func:`~repro.util.node_dtype` integers).
    count_r, count_s:
        Matching tuples of each table on that node (0 when the node has
        no tuples of that side), in the narrowest unsigned dtype that
        holds the largest count.
    key_starts:
        Segment offsets: entries of one distinct key are contiguous.
    t_nodes:
        Scheduling node of each distinct key (parallel to segments).
    width_r, width_s:
        Bytes per tuple of each side (positive): ``count x width`` is
        the entry's matching bytes (:meth:`size_r` / :meth:`size_s`).
    """

    keys: np.ndarray
    nodes: np.ndarray
    count_r: np.ndarray
    count_s: np.ndarray
    key_starts: np.ndarray
    t_nodes: np.ndarray
    width_r: float
    width_s: float
    # Derived columns, filled on first use.  Not functools.cached_property:
    # before Python 3.12 it serializes every instance on one class-wide
    # lock, which concurrent queries would contend on.
    _entries_per_key: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _seg: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def empty(cls, num_nodes: int = 1) -> "TrackingTable":
        """A table with no entries."""
        index = np.empty(0, dtype=np.int64)
        nodes = np.empty(0, dtype=node_dtype(num_nodes))
        counts = np.empty(0, dtype=np.uint8)
        return cls(index, nodes, counts, counts, index, nodes, 1.0, 1.0)

    @property
    def num_entries(self) -> int:
        """Number of (key, node) union rows."""
        return len(self.keys)

    @property
    def num_keys(self) -> int:
        """Number of distinct tracked keys."""
        return len(self.key_starts)

    def distinct_keys(self) -> np.ndarray:
        """The distinct key values, in sorted order."""
        return self.keys[self.key_starts]

    def size_r(self, rows=slice(None)) -> np.ndarray:
        """Matching R bytes of the entries ``rows`` (float64)."""
        return self.count_r[rows].astype(np.float64) * self.width_r

    def size_s(self, rows=slice(None)) -> np.ndarray:
        """Matching S bytes of the entries ``rows`` (float64)."""
        return self.count_s[rows].astype(np.float64) * self.width_s

    def key_sizes(self, lo: int = 0, hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Per key of ``lo:hi``: its entries' summed R and S bytes."""
        hi = self.num_keys if hi is None else hi
        if hi <= lo:
            return np.empty(0), np.empty(0)
        elo = int(self.key_starts[lo])
        ehi = int(self.key_starts[hi]) if hi < self.num_keys else self.num_entries
        starts = self.key_starts[lo:hi] - elo
        rows = slice(elo, ehi)
        return (
            np.add.reduceat(self.size_r(rows), starts),
            np.add.reduceat(self.size_s(rows), starts),
        )

    @property
    def entries_per_key(self) -> np.ndarray:
        """Number of union rows of each distinct key (cached, int32)."""
        if self._entries_per_key is None:
            self._entries_per_key = np.diff(
                self.key_starts, append=self.num_entries
            ).astype(index_dtype(self.num_entries))
        return self._entries_per_key

    @property
    def seg(self) -> np.ndarray:
        """Per entry: index of its key into the per-key arrays (cached, int32)."""
        if self._seg is None:
            self._seg = segment_ids(self.key_starts, self.num_entries)
        return self._seg


def run_tracking_phase(
    cluster: Cluster,
    table_r: DistributedTable,
    table_s: DistributedTable,
    spec,
    profile: ExecutionProfile,
    with_counts: bool = True,
) -> TrackingTable:
    """Execute the tracking phase and assemble the global tracking table.

    Parameters
    ----------
    with_counts:
        3/4-phase track join tracks per-node match counts; 2-phase sends
        bare keys (``False`` drops the count bytes from the traffic).
    """
    num_nodes = cluster.num_nodes
    width_r = table_r.schema.tuple_width(spec.encoding)
    width_s = table_s.schema.tuple_width(spec.encoding)
    key_width = table_r.schema.key_width(spec.encoding)

    sides = (
        ("R", table_r, width_r, spec.count_width_r),
        ("S", table_s, width_s, spec.count_width_s),
    )

    def track_partition(task: int):
        """Dedup + scatter one (side, node) partition; returns its stream."""
        side, table, width, count_width = sides[task // num_nodes]
        node = task % num_nodes
        partition = table.partitions[node]
        # Local sort + key aggregation (dedup) before tracking.
        profile.add_cpu_at(
            f"Sort local {side} tuples", "sort", node, partition.num_rows * width
        )
        distinct, counts = partition.distinct_with_counts()
        profile.add_cpu_at(
            "Aggregate keys", "aggregate", node, partition.num_rows * key_width
        )
        if len(distinct) == 0:
            return None
        # Ship (key [, count]) entries to each key's scheduling node.
        profile.add_cpu_at(
            "Hash part. keys, counts",
            "partition",
            node,
            len(distinct) * (key_width + (count_width if with_counts else 0)),
        )
        plan = partition.distinct_scatter_plan(num_nodes, spec.hash_seed)
        order, boundaries = plan.order, plan.bounds
        for dst in range(num_nodes):
            rows = order[boundaries[dst] : boundaries[dst + 1]]
            if len(rows) == 0:
                continue
            if not spec.delta_keys:
                # Plain-coded tracking messages are sized purely by
                # entry count; skip materializing the key groups.
                nbytes = len(rows) * key_width + len(rows) * (
                    count_width if with_counts else 0.0
                )
            else:
                nbytes = tracking_message_bytes(
                    distinct[rows],
                    key_width,
                    count_width if with_counts else 0.0,
                    delta_keys=spec.delta_keys,
                )
            cluster.network.send(
                node, dst, MessageClass.KEYS_COUNTS, nbytes, profile=profile,
                step="Transfer key, count", local_step="Local copy key, count",
            )
        # The partition's cached distinct keys and counts, not copies.
        return side, node, distinct, counts

    # One task per (side, node): R partitions first, then S, so the
    # stream assembly below sees the same order as a serial nested loop.
    # task_nodes maps both sides' tasks back to the node they simulate,
    # so crash injection hits each node's R and S work alike.
    streams = cluster.run_phase(
        track_partition,
        tasks=2 * num_nodes,
        profile=profile,
        task_nodes=[task % num_nodes for task in range(2 * num_nodes)],
    )
    # R streams precede S streams, each in node order.
    streams = [stream for stream in streams if stream is not None]

    # Drain the tracking inboxes (payloads carry no data; the union table
    # below is the logically-equivalent global state).
    flush(cluster)

    if not streams:
        return TrackingTable.empty(num_nodes)

    tracking = TrackingTable(
        *merge_streams(
            [distinct for _, _, distinct, _ in streams],
            [node for _, node, _, _ in streams],
            [counts for _, _, _, counts in streams],
            sum(1 for side, *_ in streams if side == "R"),
            num_nodes,
            spec.hash_seed,
        ),
        width_r,
        width_s,
    )

    # Receiving T nodes merge the incoming sorted (key, count) streams.
    entry_bytes = key_width + spec.count_width_r  # footprint per union entry
    entries_per_key = tracking.entries_per_key
    if float(entry_bytes).is_integer():
        # count x width instead of summing a constant per entry: exact
        # for integer widths (every partial sum is an exact integer far
        # below 2**53), and skips the 1:1 repeat expansion.
        per_tnode = (
            np.bincount(
                tracking.t_nodes,
                weights=entries_per_key.astype(np.float64),
                minlength=num_nodes,
            )
            * entry_bytes
        )
    else:
        per_tnode = np.bincount(
            tracking.t_nodes[tracking.seg],
            weights=np.full(tracking.num_entries, entry_bytes),
            minlength=num_nodes,
        )
    profile.add_cpu("Merge recv. key, count", "merge", per_tnode)
    return tracking


def _group_counts(order, is_new, counts, r_entries):
    """Side counts per (key, node) group of one sorted run.

    ``order`` is the stable sort permutation of the concatenated stream
    entries (R entries before S entries), ``is_new`` marks the first
    entry of each group in sorted order and ``counts`` are the entries'
    counts in input order.  A stream holds each key once, so a group is
    one R entry, one S entry, or R then S (stability keeps R first).
    Returns the group starts and ``(count_r, count_s)``.
    """
    starts = np.flatnonzero(is_new)
    first = order[starts] if len(starts) < len(order) else order
    count_first = counts[first]
    count_r = count_first * (first < r_entries)
    count_s = count_first - count_r
    if len(starts) < len(order):
        # Two-entry groups: the j-th second entry follows j earlier
        # ones, so its group is its position less j + 1.
        second = np.flatnonzero(~is_new)
        count_s[second - np.arange(1, len(second) + 1)] = counts[order[second]]
    return starts, count_r, count_s


def _column_dtypes(stream_counts, num_nodes) -> tuple[np.dtype, np.dtype]:
    """Node and count dtypes of the union table these streams merge into."""
    max_count = max(int(counts.max()) for counts in stream_counts)
    return node_dtype(num_nodes), count_dtype(max_count)


def _merge_lexsort(
    stream_keys, stream_nodes, stream_counts, num_r_streams, num_nodes, hash_seed
) -> tuple[np.ndarray, ...]:
    """Merge of keys too wide to pack: one global ``lexsort`` by (key, node)."""
    nodes_dtype, counts_dtype = _column_dtypes(stream_counts, num_nodes)
    keys = np.concatenate(stream_keys)
    nodes = np.concatenate(
        [np.full(len(k), n, dtype=nodes_dtype) for k, n in zip(stream_keys, stream_nodes)]
    )
    order = np.lexsort((nodes, keys))
    keys = keys[order]
    nodes = nodes[order]
    is_new = np.empty(len(keys), dtype=bool)
    is_new[0] = True
    np.logical_or(keys[1:] != keys[:-1], nodes[1:] != nodes[:-1], out=is_new[1:])
    r_entries = sum(len(k) for k in stream_keys[:num_r_streams])
    starts, count_r, count_s = _group_counts(
        order, is_new, np.concatenate(stream_counts), r_entries
    )
    keys, nodes = keys[starts], nodes[starts]
    key_starts = segment_boundaries(keys)
    t_nodes = hash_partition(keys[key_starts], num_nodes, hash_seed).astype(nodes_dtype)
    return (
        keys,
        nodes,
        count_r.astype(counts_dtype),
        count_s.astype(counts_dtype),
        key_starts,
        t_nodes,
    )


def merge_streams(
    stream_keys: list[np.ndarray],
    stream_nodes: list[int],
    stream_counts: list[np.ndarray],
    num_r_streams: int,
    num_nodes: int,
    hash_seed: int = 0,
) -> tuple[np.ndarray, ...]:
    """Merge per-(side, node) distinct-key streams into the union table.

    Every stream is one node's sorted distinct keys of one side (not
    empty) with the matching tuple count per key; the first
    ``num_r_streams`` are R's.  Returns ``(keys, nodes, count_r,
    count_s, key_starts, t_nodes)`` of the :class:`TrackingTable`,
    sorted by ``(key, node)``; node ids and counts take the narrowest
    dtypes that hold them.

    All streams are cut at shared key splitters into key-range blocks
    and each block value-sorts one int64 per entry: key, node and the
    entry's position in the block, packed in that order from the high
    bits down (:func:`~repro.util.sort_with_index_bits`), so the high
    bits group equal (key, node) pairs and the low bits are the stable
    permutation, R before S.  No key spans two blocks, so the blocks'
    rows in key order are exactly the table one global sort gives,
    whatever the splitters — which depend on the streams and the kernel
    chunk rows only, never on the worker count.

    A block has no more rows or keys than stream entries, so each block
    writes its rows into output columns sized for the entries, at the
    offset of its own first entry; the rows then slide down over the
    gaps and the columns shrink in place.  Nothing is concatenated.
    Keys that are negative or, with node and position bits, wider than
    62 bits take :func:`_merge_lexsort`.
    """
    total = sum(len(keys) for keys in stream_keys)
    # Each distinct stream is sorted, so its min/max are its endpoints.
    min_key = min(int(keys[0]) for keys in stream_keys)
    max_key = max(int(keys[-1]) for keys in stream_keys)
    node_bits = (num_nodes - 1).bit_length()
    idx_bits = total.bit_length()
    if min_key < 0 or max_key.bit_length() + node_bits + idx_bits > 62:
        return _merge_lexsort(
            stream_keys, stream_nodes, stream_counts, num_r_streams, num_nodes, hash_seed
        )

    # One kernel chunk of entries per block: a block allocates some fifty
    # bytes of temporaries per entry, and the merge time does not depend
    # on the block size.
    num_blocks = -(-total // kernel_chunk_rows())
    cuts = np.zeros((len(stream_keys), num_blocks + 1), dtype=np.int64)
    cuts[:, -1] = [len(keys) for keys in stream_keys]
    if num_blocks > 1:
        # Splitters are quantiles of an evenly strided sample of every
        # stream, so blocks hold about equal entries whatever the
        # streams' relative lengths; equal splitters leave empty blocks.
        stride = max(1, total // (64 * num_blocks))
        sample = np.sort(np.concatenate([keys[::stride] for keys in stream_keys]))
        splitters = sample[(np.arange(1, num_blocks) * len(sample)) // num_blocks]
        for row, keys in zip(cuts, stream_keys):
            row[1:-1] = np.searchsorted(keys, splitters)
    block_at = cuts.sum(axis=0).tolist()  # each block's first entry

    nodes_dtype, counts_dtype = _column_dtypes(stream_counts, num_nodes)
    # Per-entry columns, then the per-key ones (key_starts block-local
    # until the blocks are compacted).
    columns = [
        np.empty(total, dtype=dtype)
        for dtype in (np.int64, nodes_dtype, counts_dtype, counts_dtype, np.int64, nodes_dtype)
    ]
    keys_out, nodes_out, count_r_out, count_s_out, starts_out, t_nodes_out = columns

    def merge_block(block: int) -> tuple[int, int]:
        lo, hi = cuts[:, block], cuts[:, block + 1]
        composite = np.concatenate(
            [
                (keys[a:b] << node_bits) | node
                for keys, node, a, b in zip(stream_keys, stream_nodes, lo, hi)
            ]
        )
        counts = np.concatenate([c[a:b] for c, a, b in zip(stream_counts, lo, hi)])
        order, composite = sort_with_index_bits(composite, idx_bits)
        is_new = np.empty(len(composite), dtype=bool)
        is_new[0] = True
        np.not_equal(composite[1:], composite[:-1], out=is_new[1:])
        r_entries = int((hi - lo)[:num_r_streams].sum())
        starts, count_r, count_s = _group_counts(order, is_new, counts, r_entries)
        composite = composite[starts]
        keys = composite >> node_bits
        key_starts = segment_boundaries(keys)
        at = block_at[block]
        rows = slice(at, at + len(keys))
        keys_out[rows] = keys
        nodes_out[rows] = composite & ((1 << node_bits) - 1)
        count_r_out[rows] = count_r
        count_s_out[rows] = count_s
        key_rows = slice(at, at + len(key_starts))
        starts_out[key_rows] = key_starts
        t_nodes_out[key_rows] = hash_partition(keys[key_starts], num_nodes, hash_seed)
        return len(keys), len(key_starts)

    blocks = [block for block in range(num_blocks) if block_at[block + 1] > block_at[block]]
    num_rows = num_keys = 0
    for block, (block_rows, block_keys) in zip(blocks, run_chunks(merge_block, blocks)):
        at = block_at[block]
        # Block-local key_starts shift by the rows of the blocks before.
        starts_out[num_keys : num_keys + block_keys] = (
            starts_out[at : at + block_keys] + num_rows
        )
        if at > num_keys:
            t_nodes_out[num_keys : num_keys + block_keys] = t_nodes_out[at : at + block_keys]
        if at > num_rows:
            for column in columns[:4]:
                column[num_rows : num_rows + block_rows] = column[at : at + block_rows]
        num_rows += block_rows
        num_keys += block_keys
    # No view of the columns outlives the blocks, so they shrink in
    # place (a realloc) instead of being copied.
    for column in columns[:4]:
        column.resize(num_rows, refcheck=False)
    for column in columns[4:]:
        column.resize(num_keys, refcheck=False)
    return tuple(columns)
