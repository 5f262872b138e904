"""Unit tests for schemas, tables, and placement policies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.encoding import DictionaryEncoding, FixedByteEncoding, VarByteEncoding
from repro.errors import PlacementError, SchemaError
from repro.parallel.chunks import kernel_config
from repro.storage import (
    Column,
    DistributedTable,
    LocalPartition,
    Schema,
    by_key_hash,
    pattern_nodes,
    random_uniform,
    round_robin,
    shuffled,
)

#: Placement runs inline and over two kernel workers in two-row chunks.
CHUNKED = {"workers": 2, "chunk_rows": 2}


class TestColumn:
    def test_needs_bits_or_char_length(self):
        with pytest.raises(SchemaError):
            Column("bad")

    def test_rejects_nonpositive_bits(self):
        with pytest.raises(SchemaError):
            Column("bad", bits=0)

    def test_char_column(self):
        col = Column("name", char_length=23)
        assert col.is_char

    def test_decimal_digits_derived_from_bits(self):
        # 30 bits ~ 9.03 decimal digits -> 10.
        assert Column("k", bits=30).effective_decimal_digits() == 10

    def test_explicit_decimal_digits_win(self):
        assert Column("k", bits=30, decimal_digits=12).effective_decimal_digits() == 12


class TestSchema:
    def test_widths_under_encodings(self):
        schema = Schema(
            (Column("k", bits=30),),
            (Column("a", bits=6), Column("b", bits=24)),
        )
        dictionary = DictionaryEncoding()
        assert schema.key_width(dictionary) == pytest.approx(30 / 8)
        assert schema.payload_width(dictionary) == pytest.approx(30 / 8)
        assert schema.tuple_width(dictionary) == pytest.approx(60 / 8)
        fixed = FixedByteEncoding()
        assert schema.key_width(fixed) == 4
        assert schema.payload_width(fixed) == 1 + 4

    def test_with_widths_shortcut(self):
        schema = Schema.with_widths(32, 128)
        assert schema.tuple_width(DictionaryEncoding()) == pytest.approx(20.0)

    def test_with_widths_zero_payload(self):
        schema = Schema.with_widths(32, 0)
        assert schema.payload_columns == ()

    def test_requires_key(self):
        with pytest.raises(SchemaError):
            Schema(key_columns=())

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema((Column("k", bits=8),), (Column("k", bits=8),))

    def test_multi_column_key(self):
        schema = Schema((Column("k1", bits=16), Column("k2", bits=16)), ())
        assert schema.key_width(DictionaryEncoding()) == pytest.approx(4.0)


class TestLocalPartition:
    def test_column_length_checked(self):
        with pytest.raises(SchemaError):
            LocalPartition(keys=np.arange(3), columns={"x": np.arange(2)})

    def test_take(self):
        part = LocalPartition(keys=np.array([5, 6, 7]), columns={"v": np.array([1, 2, 3])})
        taken = part.take(np.array([2, 0]))
        assert np.array_equal(taken.keys, [7, 5])
        assert np.array_equal(taken.columns["v"], [3, 1])

    def test_concat_mismatched_columns_rejected(self):
        a = LocalPartition(keys=np.array([1]), columns={"x": np.array([1])})
        b = LocalPartition(keys=np.array([2]), columns={"y": np.array([2])})
        with pytest.raises(SchemaError):
            LocalPartition.concat([a, b])

    def test_concat_empty_list(self):
        assert LocalPartition.concat([]).num_rows == 0


class TestDistributedTable:
    def test_from_assignment_partitions_rows(self):
        keys = np.array([10, 11, 12, 13])
        nodes = np.array([1, 0, 1, 2])
        table = DistributedTable.from_assignment(
            "T", Schema.with_widths(32, 32), keys, nodes, num_nodes=3
        )
        assert table.total_rows == 4
        assert np.array_equal(table.partitions[0].keys, [11])
        assert sorted(table.partitions[1].keys.tolist()) == [10, 12]
        assert np.array_equal(table.partitions[2].keys, [13])

    def test_rid_column_synthesized(self):
        table = DistributedTable.from_assignment(
            "T", Schema.with_widths(32, 32), np.array([1, 2]), np.array([0, 1]), 2
        )
        assert table.payload_names == ("rid",)
        gathered = table.gathered()
        assert sorted(gathered.columns["rid"].tolist()) == [0, 1]

    def test_bad_assignment_rejected(self):
        with pytest.raises(PlacementError):
            DistributedTable.from_assignment(
                "T", Schema.with_widths(32, 0), np.array([1]), np.array([5]), 2
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(PlacementError):
            DistributedTable.from_assignment(
                "T", Schema.with_widths(32, 0), np.array([1, 2]), np.array([0]), 2
            )

    @pytest.mark.parametrize("rows", [12, 8])
    def test_column_length_mismatch_rejected(self, rows):
        """Too long was silently truncated, too short a bare IndexError."""
        with pytest.raises(SchemaError, match=f"column 'v' has {rows} rows, keys have 10"):
            DistributedTable.from_assignment(
                "T", Schema.with_widths(32, 32), np.arange(10), np.arange(10) % 4, 4,
                columns={"v": np.arange(rows)},
            )

    @pytest.mark.parametrize("kernels", [{}, CHUNKED], ids=["serial", "chunked"])
    @pytest.mark.parametrize("num_nodes,num_rows", [(1, 9), (4, 0), (5, 60), (300, 40)])
    def test_from_assignment_matches_mask_reference(self, kernels, num_nodes, num_rows):
        """Node ``n`` holds exactly ``column[node_of_row == n]``, in row order."""
        rng = np.random.default_rng(num_nodes + num_rows)
        keys = rng.integers(0, 50, num_rows)
        # Node 0 never receives a row when there is another node to take it.
        node_of_row = rng.integers(min(1, num_nodes - 1), num_nodes, num_rows)
        columns = {
            "i": rng.integers(-5, 5, num_rows),
            "f": rng.standard_normal(num_rows),
            "b": rng.integers(0, 2, num_rows).astype(bool),
        }
        given_columns = dict(columns)
        with kernel_config(**kernels):
            table = DistributedTable.from_assignment(
                "T", Schema.with_widths(32, 32), keys, node_of_row, num_nodes,
                columns=columns,
            )
        assert table.num_nodes == num_nodes
        assert columns.keys() == given_columns.keys()
        assert all(columns[name] is given_columns[name] for name in columns)
        for node, part in enumerate(table.partitions):
            here = node_of_row == node
            assert part.keys.dtype == np.int64
            assert np.array_equal(part.keys, keys[here])
            assert list(part.columns) == ["i", "f", "b"]
            for name, values in columns.items():
                assert part.columns[name].dtype == values.dtype
                assert np.array_equal(part.columns[name], values[here])

    @pytest.mark.parametrize("kernels", [{}, CHUNKED], ids=["serial", "chunked"])
    def test_synthesized_rid_follows_rows(self, kernels):
        node_of_row = np.array([2, 0, 2, 1, 0])
        with kernel_config(**kernels):
            table = DistributedTable.from_assignment(
                "T", Schema.with_widths(32, 32), np.arange(5) + 10, node_of_row, 4
            )
        rids = [part.columns["rid"].tolist() for part in table.partitions]
        assert rids == [[1, 4], [3], [0, 2], []]

    def test_empty_nodes_keep_column_dtypes(self):
        """A table placed on one node reports its dtypes on every node."""
        table = DistributedTable.from_assignment(
            "T", Schema.with_widths(32, 64), np.arange(6), np.zeros(6, dtype=np.int64), 4,
            columns={"v": np.linspace(0.0, 1.0, 6)},
        )
        assert [p.num_rows for p in table.partitions] == [6, 0, 0, 0]
        assert {p.columns["v"].dtype for p in table.partitions} == {np.dtype(np.float64)}

    def test_node_sizes(self):
        table = DistributedTable.from_assignment(
            "T", Schema.with_widths(32, 0), np.arange(6), round_robin(6, 3), 3
        )
        assert np.array_equal(table.node_sizes(), [2, 2, 2])


class TestPlacement:
    def test_round_robin(self):
        assert np.array_equal(round_robin(5, 2), [0, 1, 0, 1, 0])

    def test_random_uniform_range_and_determinism(self):
        a = random_uniform(1000, 8, seed=3)
        b = random_uniform(1000, 8, seed=3)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 8

    def test_by_key_hash_collocates_equal_keys(self):
        keys = np.array([7, 7, 7, 9, 9])
        nodes = by_key_hash(keys, 4)
        assert len(set(nodes[:3].tolist())) == 1
        assert len(set(nodes[3:].tolist())) == 1

    def test_shuffled_changes_assignment(self):
        original = np.zeros(1000, dtype=np.int64)
        result = shuffled(original, 8, seed=1)
        assert len(np.unique(result)) > 1

    def test_pattern_nodes_collocated(self):
        key_index, node, _pool = pattern_nodes(100, (5,), 16, seed=0)
        assert len(key_index) == 500
        for k in range(100):
            nodes_of_key = node[key_index == k]
            assert len(set(nodes_of_key.tolist())) == 1

    def test_pattern_nodes_spread(self):
        key_index, node, _pool = pattern_nodes(50, (1, 1, 1, 1, 1), 16, seed=0)
        for k in range(50):
            nodes_of_key = node[key_index == k]
            assert len(set(nodes_of_key.tolist())) == 5

    def test_pattern_nodes_partial(self):
        key_index, node, _pool = pattern_nodes(50, (2, 2, 1), 16, seed=0)
        for k in range(50):
            nodes_of_key = node[key_index == k]
            counts = sorted(c for c in np.bincount(nodes_of_key, minlength=16) if c > 0)
            assert counts == [1, 2, 2]

    def test_pattern_nodes_shared_pool_collocates(self):
        _, node_a, pool = pattern_nodes(30, (5,), 8, seed=1)
        _, node_b, _ = pattern_nodes(30, (5,), 8, node_pool=pool)
        assert np.array_equal(node_a, node_b)

    def test_pattern_too_many_groups(self):
        with pytest.raises(PlacementError):
            pattern_nodes(10, (1, 1, 1), 2)

    @given(st.integers(1, 64), st.integers(1, 8))
    def test_round_robin_balance(self, rows, nodes):
        counts = np.bincount(round_robin(rows, nodes), minlength=nodes)
        assert counts.max() - counts.min() <= 1
