"""Independent checks of every operator and of the kernels under them.

- :class:`TestOracle`: every registry operator and the two Sec. 3.2
  rid-based joins return exactly the rows of a numpy sort-merge join
  over the gathered inputs (:func:`sort_merge_join`, which imports
  nothing from ``repro``).
- :class:`TestByteOracle`: HJ's and 2TJ-R's per-class and per-link
  ledgers equal the bytes :func:`byte_oracle` counts from key placement
  and widths alone.
- :class:`TestSplitPrimitives`: ``split_by`` / ``hash_split`` buckets
  equal a boolean-mask selection of the rows.
- :class:`TestTrackingMergeEquivalence`: the packed tracking merge, the
  lexsort merge and a union table built row by row in a dict agree.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Cluster, JoinSpec
from repro.core import tracking as tracking_module
from repro.core.tracking import _merge_lexsort, merge_streams, run_tracking_phase
from repro.joins.registry import algorithm_names, create
from repro.joins.tracking_aware import LateMaterializationHashJoin, TrackingAwareHashJoin
from repro.storage.schema import Schema
from repro.storage.table import LocalPartition
from repro.timing.profile import ExecutionProfile
from repro.util import hash_partition, segment_boundaries

from conftest import canonical_output, exec_scope, make_tables


def sort_merge_join(keys_r, rids_r, keys_s, rids_s) -> np.ndarray:
    """Sorted ``(key, r.rid, s.rid)`` rows of the equi-join, by sort-merge."""
    runs = []
    for keys, rids in ((keys_r, rids_r), (keys_s, rids_s)):
        order = np.argsort(keys, kind="stable")
        distinct, starts, counts = np.unique(
            keys[order], return_index=True, return_counts=True
        )
        runs.append((distinct, starts, counts, rids[order]))
    (dist_r, start_r, count_r, rid_r), (dist_s, start_s, count_s, rid_s) = runs
    _, at_r, at_s = np.intersect1d(dist_r, dist_s, return_indices=True)
    blocks = [np.empty((3, 0), dtype=np.int64)]
    for i, j in zip(at_r, at_s):
        left = rid_r[start_r[i] : start_r[i] + count_r[i]]
        right = rid_s[start_s[j] : start_s[j] + count_s[j]]
        key = np.full(len(left) * len(right), dist_r[i])
        blocks.append(np.stack([key, np.repeat(left, len(right)), np.tile(right, len(left))]))
    matrix = np.concatenate(blocks, axis=1)
    return matrix[:, np.lexsort(matrix)]


REGISTRY = tuple((name, lambda name=name: create(name)) for name in algorithm_names())
RID_JOINS = (("LM-HJ", LateMaterializationHashJoin), ("TA-HJ", TrackingAwareHashJoin))


@st.composite
def join_instance(draw):
    """One node, empty sides and negative keys are all inside the domain."""
    num_nodes = draw(st.integers(1, 6))
    keys_r = draw(st.lists(st.integers(-3, 40), max_size=120))
    keys_s = draw(st.lists(st.integers(-3, 40), max_size=120))
    return num_nodes, keys_r, keys_s, draw(st.integers(0, 1000))


CHUNKED = {"workers": 2, "chunk_rows": 2}


def gathered(table, column):
    """All nodes' keys (``column=None``) or payload column, concatenated."""
    return np.concatenate(
        [part.keys if column is None else part.columns[column] for part in table.partitions]
    )


def assert_matches_oracle(operators, instance):
    """:func:`assert_tables_match_oracle` on randomly placed tables."""
    num_nodes, keys_r, keys_s, seed = instance
    assert_tables_match_oracle(
        operators,
        num_nodes,
        lambda cluster: make_tables(
            cluster, np.array(keys_r, dtype=np.int64), np.array(keys_s, dtype=np.int64),
            seed=seed,
        ),
    )


def assert_tables_match_oracle(operators, num_nodes, place):
    """Rows equal the oracle's, as configured and on a cluster of two
    workers with two-row kernel chunks.  ``place(cluster)`` returns the two tables on a
    fresh cluster."""
    for (name, factory), kernels in itertools.product(operators, [{}, CHUNKED]):
        with exec_scope(**kernels):
            cluster = Cluster(num_nodes)
        table_r, table_s = place(cluster)
        expected = sort_merge_join(
            gathered(table_r, None), gathered(table_r, "rid"),
            gathered(table_s, None), gathered(table_s, "rid"),
        )
        result = factory().run(cluster, table_r, table_s)
        assert np.array_equal(canonical_output(result), expected), (name, kernels)


class TestOracle:
    @settings(max_examples=40, deadline=None)
    @given(join_instance())
    def test_registry_operators_match_sort_merge(self, instance):
        assert_matches_oracle(REGISTRY, instance)

    @settings(max_examples=40, deadline=None)
    @given(join_instance())
    def test_rid_joins_match_sort_merge(self, instance):
        """The two Sec. 3.2 hash joins that carry record ids (rids)."""
        assert_matches_oracle(RID_JOINS, instance)


def byte_oracle(name, num_nodes, placed_r, placed_s, widths, seed):
    """Per-class, per-link network bytes of ``HJ`` or ``2TJ-R`` by Sec. 2.1's
    count: one ``(sender, receiver)`` byte matrix per message class.

    ``placed_r`` / ``placed_s`` are ``(keys, nodes)`` arrays of every
    tuple; ``widths`` holds ``key``, ``R`` and ``S`` tuple and ``location``
    (node id) bytes.  A message from a node to itself is a local copy and
    costs nothing, so every diagonal is zero.  Only
    :func:`repro.util.hash_partition`, the key hash both operators place
    work with, comes from ``repro``.
    """
    (keys_r, nodes_r), (keys_s, nodes_s) = placed_r, placed_s

    def links(senders, receivers, nbytes):
        matrix = np.zeros((num_nodes, num_nodes))
        np.add.at(matrix, (senders, receivers), nbytes)
        np.fill_diagonal(matrix, 0.0)
        return matrix

    if name == "HJ":
        # Every tuple goes to its key's hash node.
        return {
            "r_tuples": links(nodes_r, hash_partition(keys_r, num_nodes, seed), widths["R"]),
            "s_tuples": links(nodes_s, hash_partition(keys_s, num_nodes, seed), widths["S"]),
        }
    # 2TJ-R, per distinct key k: each node holding k in R, and again each
    # node holding k in S, sends k to k's tracker t; t sends every R holder
    # one (key, node) pair per S holder; each R holder sends its k-tuples
    # to every S holder.
    distinct, inverse = np.unique(np.concatenate([keys_r, keys_s]), return_inverse=True)
    counts = np.zeros((2, len(distinct), num_nodes), dtype=np.int64)
    np.add.at(counts[0], (inverse[: len(keys_r)], nodes_r), 1)
    np.add.at(counts[1], (inverse[len(keys_r) :], nodes_s), 1)
    has_r, has_s = counts > 0
    trackers = hash_partition(distinct, num_nodes, seed)
    held = np.nonzero(counts > 0)  # (side, key, holder) of every tracked entry
    key_r, holder_r = np.nonzero(has_r)
    return {
        "keys_counts": links(held[2], trackers[held[1]], widths["key"]),
        "keys_nodes": links(
            trackers[key_r], holder_r,
            (widths["key"] + widths["location"]) * has_s.sum(axis=1)[key_r],
        ),
        "r_tuples": links(
            *np.indices((num_nodes, num_nodes)).reshape(2, -1),
            (widths["R"] * counts[0].T.astype(float) @ has_s).ravel(),
        ),
    }


def byte_oracle_runs(name, instance):
    """``(kernels, result, expected)`` for ``name`` run serially and under
    :data:`CHUNKED` on ``instance``, against :func:`byte_oracle`."""
    num_nodes, keys_r, keys_s, seed = instance
    spec = JoinSpec()
    for kernels in ({}, CHUNKED):
        with exec_scope(**kernels):
            cluster = Cluster(num_nodes)
        table_r, table_s = make_tables(
            cluster, np.array(keys_r, dtype=np.int64), np.array(keys_s, dtype=np.int64),
            seed=seed,
        )
        widths = {
            "key": table_r.schema.key_width(spec.encoding),
            "R": table_r.schema.tuple_width(spec.encoding),
            "S": table_s.schema.tuple_width(spec.encoding),
            "location": spec.location_width,
        }
        placed = [
            (
                gathered(table, None),
                np.repeat(np.arange(num_nodes), [p.num_rows for p in table.partitions]),
            )
            for table in (table_r, table_s)
        ]
        expected = byte_oracle(name, num_nodes, *placed, widths, spec.hash_seed)
        result = create(name).run(cluster, table_r, table_s, spec)
        yield kernels, result, expected


class TestByteOracle:
    """HJ's and 2TJ-R's per-class and per-link ledgers equal
    :func:`byte_oracle`."""

    @pytest.mark.parametrize("name", ["HJ", "2TJ-R"])
    @settings(max_examples=40, deadline=None)
    @given(instance=join_instance())
    def test_class_bytes_match_the_count(self, name, instance):
        for kernels, result, expected in byte_oracle_runs(name, instance):
            ledger = {cls.value: nbytes for cls, nbytes in result.traffic.by_class.items()}
            expected = {cls: links.sum() for cls, links in expected.items()}
            assert ledger == {cls: b for cls, b in expected.items() if b}, kernels

    @pytest.mark.parametrize("name", ["HJ", "2TJ-R"])
    @settings(max_examples=40, deadline=None)
    @given(instance=join_instance())
    def test_link_bytes_match_the_count(self, name, instance):
        for kernels, result, expected in byte_oracle_runs(name, instance):
            total = sum(expected.values())
            ledger = {link: nbytes for link, nbytes in result.traffic.by_link.items() if nbytes}
            assert ledger == {
                (int(src), int(dst)): total[src, dst] for src, dst in zip(*np.nonzero(total))
            }, kernels


NARROWED = tuple(
    (name, lambda name=name: create(name)) for name in ("2TJ-R", "3TJ", "4TJ", "4TJ-shard")
)


def placed_tables(cluster, rows_r, rows_s):
    """R and S from explicit ``(key, node)`` rows, with rid payloads."""
    return [
        cluster.table_from_assignment(
            name,
            Schema.with_widths(32, bits),
            np.array([key for key, _ in rows], dtype=np.int64),
            np.array([node for _, node in rows], dtype=np.int64),
        )
        for name, rows, bits in (("R", rows_r, 64), ("S", rows_s, 128))
    ]


def tracked(num_nodes, rows_r, rows_s):
    """The tracking table of the two placed tables."""
    cluster = Cluster(num_nodes)
    table_r, table_s = placed_tables(cluster, rows_r, rows_s)
    return run_tracking_phase(cluster, table_r, table_s, JoinSpec(), ExecutionProfile(num_nodes))


class TestNarrowDtypeBoundaries:
    """Node ids, link ids and counts take the narrowest integer dtype that
    holds them; each case sits on one side of one dtype boundary."""

    @pytest.mark.parametrize("num_nodes", [16, 17, 128, 129])
    def test_node_ids(self, num_nodes):
        """int8 node ids hold 128 nodes, uint8 (holder, destination) link
        ids 16.  Keys live on node 0 and the two highest nodes, and some
        are scheduled on those two, so the top ids hold, schedule, migrate
        and receive."""
        top = [num_nodes - 2, num_nodes - 1]
        candidates = np.arange(4000)
        t_nodes = hash_partition(candidates, num_nodes)
        keys = np.concatenate([candidates[t_nodes == t][:6] for t in top] + [candidates[:12]])
        rng = np.random.default_rng(num_nodes)
        hosts = [0, *top]
        rows_r, rows_s = (
            [
                (int(key), hosts[host])
                for key in keys
                for host in rng.choice(3, int(rng.integers(1, 4)), replace=False)
            ]
            for _ in range(2)
        )
        tracking = tracked(num_nodes, rows_r, rows_s)
        assert tracking.nodes.dtype == tracking.t_nodes.dtype
        assert tracking.nodes.dtype == (np.int8 if num_nodes <= 128 else np.int16)
        assert set(top) <= set(tracking.t_nodes.tolist())
        assert_tables_match_oracle(
            NARROWED, num_nodes, lambda cluster: placed_tables(cluster, rows_r, rows_s)
        )

    @pytest.mark.parametrize("repeats", [255, 256])
    @pytest.mark.parametrize("side", ["R", "S"])
    def test_counts(self, repeats, side):
        """uint8 counts hold one key repeated 255 times on one node."""
        heavy = [(7, 1)] * repeats + [(7, 2), (8, 1), (9, 3)]
        light = [(7, 2), (7, 3), (8, 0), (9, 3), (9, 1)]
        rows_r, rows_s = (heavy, light) if side == "R" else (light, heavy)
        tracking = tracked(4, rows_r, rows_s)
        expected = np.uint8 if repeats == 255 else np.uint16
        assert tracking.count_r.dtype == tracking.count_s.dtype == expected
        assert max(tracking.count_r.max(), tracking.count_s.max()) == repeats
        assert_tables_match_oracle(
            NARROWED, 4, lambda cluster: placed_tables(cluster, rows_r, rows_s)
        )


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


def mask_buckets(keys, rids, destinations, num_buckets):
    """``(keys, rids)`` of each bucket by boolean mask, or ``None`` if empty."""
    return [
        (keys[destinations == b], rids[destinations == b])
        if (destinations == b).any()
        else None
        for b in range(num_buckets)
    ]


class TestSplitPrimitives:
    @settings(max_examples=40, deadline=None)
    @given(partition_instance())
    def test_split_by_identical_rows_and_order(self, instance):
        """Bucket ``b`` is exactly ``rows[destinations == b]``, in row order."""
        part, destinations, num_buckets = instance
        buckets = part.split_by(destinations, num_buckets)
        reference = mask_buckets(part.keys, part.columns["rid"], destinations, num_buckets)
        assert len(buckets) == num_buckets
        for got, want in zip(buckets, reference):
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got.keys, want[0])
                assert np.array_equal(got.columns["rid"], want[1])

    @settings(max_examples=40, deadline=None)
    @given(partition_instance(), st.integers(0, 3))
    def test_hash_split_same_multiset_per_bucket(self, instance, seed):
        """hash_split may reorder within a bucket but never across."""
        part, _destinations, num_buckets = instance
        buckets = part.hash_split(num_buckets, seed)
        reference = mask_buckets(
            part.keys,
            part.columns["rid"],
            hash_partition(part.keys, num_buckets, seed),
            num_buckets,
        )
        assert len(buckets) == num_buckets
        for got, want in zip(buckets, reference):
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(np.sort(got.keys), np.sort(want[0]))
                assert np.array_equal(np.sort(got.columns["rid"]), np.sort(want[1]))


def _packing_limit_key(num_nodes: int, total: int) -> int:
    """Largest key the packed tracking merge accepts for this shape."""
    return (1 << (62 - (num_nodes - 1).bit_length() - total.bit_length())) - 1


@st.composite
def stream_instance(draw):
    """Per-(side, node) distinct-key streams, as the tracking phase sees them.

    ``anchor`` places the largest key at zero-based, negative, exactly
    at the packing limit, or one past it; counts stay below 256 or may
    cross it.
    """
    num_nodes = draw(st.sampled_from([1, 2, 3, 5, 8]))
    domain = draw(st.integers(1, 12))  # 1: one key everywhere
    anchor = draw(st.sampled_from(["zero", "negative", "limit", "past"]))
    sides = draw(st.sampled_from(["RS", "R", "S"]))  # one side may be empty
    max_count = draw(st.sampled_from([99, 300]))
    drawn = []
    for side in sides:
        for node in range(num_nodes):
            # R and S draw from one domain, so (key, node) pairs collide
            # across sides and the index bits must keep R first.
            keys = draw(st.lists(st.integers(0, domain - 1), unique=True, max_size=domain))
            if keys:
                counts = draw(
                    st.lists(st.integers(1, max_count), min_size=len(keys), max_size=len(keys))
                )
                drawn.append((side, node, sorted(keys), counts))
    if not drawn:
        drawn.append((sides[0], 0, [0], [7]))
    total = sum(len(keys) for _, _, keys, _ in drawn)
    top = max(keys[-1] for _, _, keys, _ in drawn)
    limit = _packing_limit_key(num_nodes, total)
    shift = {"zero": 0, "negative": -top - 3, "limit": limit - top, "past": limit + 1 - top}
    return (
        [np.array(keys, dtype=np.int64) + shift[anchor] for _, _, keys, _ in drawn],
        [node for _, node, _, _ in drawn],
        [np.array(counts, dtype=np.int64) for _, _, _, counts in drawn],
        sum(1 for side, *_ in drawn if side == "R"),
        num_nodes,
    )


def assert_same_table(merged, reference):
    names = ("keys", "nodes", "count_r", "count_s", "key_starts", "t_nodes")
    assert len(merged) == len(reference) == len(names)
    for name, got, want in zip(names, merged, reference):
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def dict_union_table(stream_keys, stream_nodes, stream_counts, num_r_streams, num_nodes, seed):
    """The union table built row by row in a dict: shares no code with the
    merges.  Both callers stay within 16 nodes (int8 ids) and counts below
    2**16."""
    rows: dict[tuple[int, int], list[int]] = {}
    for index, (keys, node, counts) in enumerate(zip(stream_keys, stream_nodes, stream_counts)):
        for key, count in zip(keys.tolist(), counts.tolist()):
            rows.setdefault((key, node), [0, 0])[index >= num_r_streams] += count
    ordered = sorted(rows)
    keys = np.array([key for key, _ in ordered], dtype=np.int64)
    key_starts = segment_boundaries(keys)
    counts_dtype = np.uint8 if max(max(row) for row in rows.values()) < 256 else np.uint16
    return (
        keys,
        np.array([node for _, node in ordered], dtype=np.int8),
        np.array([rows[row][0] for row in ordered], dtype=counts_dtype),
        np.array([rows[row][1] for row in ordered], dtype=counts_dtype),
        key_starts,
        hash_partition(keys[key_starts], num_nodes, seed).astype(np.int8),
    )


class TestTrackingMergeEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(stream_instance(), st.integers(0, 3), st.sampled_from([1, 2]), st.sampled_from([2, None]))
    def test_packed_merge_equals_lexsort(self, instance, hash_seed, workers, chunk_rows):
        """The blocked pack-sort merge is the lexsort merge, field for field."""
        reference = _merge_lexsort(*instance, hash_seed)
        assert_same_table(reference, dict_union_table(*instance, hash_seed))
        with exec_scope(workers=workers, chunk_rows=chunk_rows):
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
        counts = np.full(40, 20)
        # The S stream shares every (key, node) with the last R stream.
        r_nodes = sorted({0, num_nodes - 1})
        nodes = r_nodes + [num_nodes - 1]
        limit = _packing_limit_key(num_nodes, len(nodes) * len(offsets))
        for top, packs in ((limit, True), (limit + 1, False)):
            packed_sorts.clear()
            args = (
                [offsets + (top - 39)] * len(nodes),
                nodes,
                [counts] * len(r_nodes) + [counts * 3],
                len(r_nodes),
                num_nodes,
                1,
            )
            with exec_scope(workers=2, chunk_rows=4):
                merged = merge_streams(*args)
            assert bool(packed_sorts) is packs
            assert_same_table(merged, dict_union_table(*args))
            assert len(merged[0]) == len(r_nodes) * len(offsets)
