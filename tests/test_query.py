"""Tests for the query substrate: predicates, aggregation, plan execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Cluster, JoinSpec, Schema, random_uniform
from repro.errors import ReproError
from repro.query import (
    Aggregate,
    AggregateSpec,
    And,
    ColumnPredicate,
    Join,
    Or,
    Scan,
    execute,
    run_aggregation,
    table_stats,
)
from repro.storage import LocalPartition


def build_table(cluster, name, keys, columns, payload_bits=64, seed=0):
    schema = Schema.with_widths(32, payload_bits, payload_name=list(columns)[0])
    if len(columns) > 1:
        from repro.storage import Column

        schema = Schema(
            schema.key_columns,
            tuple(Column(c, bits=payload_bits) for c in columns),
        )
    return cluster.table_from_assignment(
        name,
        schema,
        np.asarray(keys, dtype=np.int64),
        random_uniform(len(keys), cluster.num_nodes, seed=seed),
        columns={c: np.asarray(v, dtype=np.int64) for c, v in columns.items()},
    )


class TestPredicates:
    def _partition(self):
        return LocalPartition(
            keys=np.array([1, 2, 3, 4]),
            columns={"v": np.array([10, 20, 30, 40])},
        )

    def test_column_ops(self):
        part = self._partition()
        assert ColumnPredicate("v", "<", 25).mask(part).tolist() == [True, True, False, False]
        assert ColumnPredicate("v", "==", 30).mask(part).tolist() == [False, False, True, False]
        assert ColumnPredicate("key", ">=", 3).mask(part).tolist() == [False, False, True, True]

    def test_and_or(self):
        part = self._partition()
        both = ColumnPredicate("v", ">", 10) & ColumnPredicate("v", "<", 40)
        assert both.mask(part).tolist() == [False, True, True, False]
        either = ColumnPredicate("v", "==", 10) | ColumnPredicate("v", "==", 40)
        assert either.mask(part).tolist() == [True, False, False, True]

    def test_unknown_column(self):
        with pytest.raises(ReproError):
            ColumnPredicate("missing", "<", 1).mask(self._partition())

    def test_unknown_operator(self):
        with pytest.raises(ReproError):
            ColumnPredicate("v", "~", 1)


class TestAggregation:
    def test_sum_count_min_max(self):
        cluster = Cluster(3)
        keys = np.array([1, 1, 2, 2, 2, 3])
        values = np.array([10, 20, 1, 2, 3, 99])
        table = build_table(cluster, "T", keys, {"v": values}, seed=1)
        result = run_aggregation(
            cluster,
            table,
            [
                AggregateSpec("total", "sum", "v"),
                AggregateSpec("n", "count", "v"),
                AggregateSpec("lo", "min", "v"),
                AggregateSpec("hi", "max", "v"),
            ],
            JoinSpec(),
        )
        out = result.table.gathered()
        order = np.argsort(out.keys)
        assert out.keys[order].tolist() == [1, 2, 3]
        assert out.columns["total"][order].tolist() == [30, 6, 99]
        assert out.columns["n"][order].tolist() == [2, 3, 1]
        assert out.columns["lo"][order].tolist() == [10, 1, 99]
        assert out.columns["hi"][order].tolist() == [20, 3, 99]

    def test_groups_end_at_hash_node(self):
        cluster = Cluster(4)
        keys = np.repeat(np.arange(100), 3)
        table = build_table(cluster, "T", keys, {"v": np.ones(300)}, seed=2)
        result = run_aggregation(
            cluster, table, [AggregateSpec("n", "count", "v")], JoinSpec()
        )
        # Each group appears exactly once in the final output.
        out = result.table.gathered()
        assert len(np.unique(out.keys)) == len(out.keys) == 100

    def test_preaggregation_reduces_traffic(self):
        """Heavy repetition: exchanged bytes scale with groups, not rows."""
        cluster = Cluster(4)
        keys = np.repeat(np.arange(50), 100)  # 5000 rows, 50 groups
        table = build_table(cluster, "T", keys, {"v": np.ones(5000)}, seed=3)
        spec = JoinSpec()
        result = run_aggregation(cluster, table, [AggregateSpec("n", "count", "v")], spec)
        # At most num_groups x num_nodes partials cross the network.
        per_partial = table.schema.key_width(spec.encoding) + 8.0
        assert result.network_bytes <= 50 * 4 * per_partial

    def test_requires_specs(self):
        cluster = Cluster(2)
        table = build_table(cluster, "T", [1], {"v": [1]})
        with pytest.raises(ReproError):
            run_aggregation(cluster, table, [], JoinSpec())

    def test_invalid_function(self):
        with pytest.raises(ReproError):
            AggregateSpec("x", "median", "v")


class TestTableStats:
    def test_measured_selectivities(self):
        cluster = Cluster(2)
        table_r = build_table(cluster, "R", np.arange(0, 100), {"v": np.zeros(100)})
        table_s = build_table(cluster, "S", np.arange(80, 180), {"v": np.zeros(100)}, seed=5)
        stats = table_stats(table_r, table_s, JoinSpec())
        assert stats.selectivity_r == pytest.approx(0.2)
        assert stats.selectivity_s == pytest.approx(0.2)
        assert stats.distinct_r == 100


class TestExecute:
    def _tables(self, cluster):
        rng = np.random.default_rng(8)
        orders = build_table(
            cluster,
            "orders",
            rng.integers(0, 500, 3000),
            {"amount": rng.integers(1, 100, 3000), "cust": rng.integers(0, 200, 3000)},
            seed=1,
        )
        items = build_table(
            cluster,
            "items",
            rng.integers(0, 500, 5000),
            {"qty": rng.integers(1, 10, 5000)},
            seed=2,
        )
        return orders, items

    def test_scan_filter(self):
        cluster = Cluster(4)
        orders, _ = self._tables(cluster)
        result = execute(Scan(orders, ColumnPredicate("amount", "<", 50)), cluster)
        assert result.network_bytes == 0.0
        out = result.table.gathered()
        assert (out.columns["amount"] < 50).all()
        assert result.operators[0].operator == "scan+filter"

    def test_join_matches_direct_run(self):
        cluster = Cluster(4)
        orders, items = self._tables(cluster)
        from repro import GraceHashJoin

        plan = Join(Scan(orders), Scan(items), algorithm="HJ")
        result = execute(plan, cluster)
        direct = GraceHashJoin().run(cluster, orders, items)
        assert result.output_rows == direct.output_rows
        assert result.network_bytes == pytest.approx(direct.network_bytes)

    def test_auto_join_picks_and_notes(self):
        cluster = Cluster(4)
        orders, items = self._tables(cluster)
        result = execute(Join(Scan(orders), Scan(items)), cluster)
        join_ops = [op for op in result.operators if op.operator.startswith("join")]
        assert len(join_ops) == 1
        assert join_ops[0].note.startswith("auto:")

    def test_join_then_aggregate(self):
        cluster = Cluster(4)
        orders, items = self._tables(cluster)
        plan = Aggregate(
            Join(Scan(orders), Scan(items), algorithm="4TJ"),
            aggregates=(AggregateSpec("total_qty", "sum", "s.qty"),),
        )
        result = execute(plan, cluster)
        # One output row per matched key.
        matched = np.intersect1d(orders.all_keys(), items.all_keys())
        assert result.output_rows == len(matched)
        # Cross-check one group against a local computation.
        out = result.table.gathered()
        key = int(out.keys[0])
        ok = orders.all_keys() == key
        ik = items.all_keys() == key
        qty = items.gathered().columns["qty"]
        expected = int(qty[ik].sum()) * int(ok.sum())
        position = np.flatnonzero(out.keys == key)[0]
        assert int(out.columns["total_qty"][position]) == expected

    def test_rekey_enables_second_join(self):
        cluster = Cluster(4)
        orders, items = self._tables(cluster)
        rng = np.random.default_rng(9)
        customers = build_table(
            cluster, "customers", np.arange(200), {"region": rng.integers(0, 5, 200)},
            seed=3,
        )
        plan = Join(
            Join(Scan(orders), Scan(items), algorithm="HJ", rekey_on="r.cust"),
            Scan(customers),
            algorithm="4TJ",
        )
        result = execute(plan, cluster)
        # Every (order, item) pair joins exactly one customer row.
        first = execute(Join(Scan(orders), Scan(items), algorithm="HJ"), cluster)
        assert result.output_rows == first.output_rows
        # Traffic accumulates across operators.
        join_bytes = [
            op.network_bytes for op in result.operators if op.operator.startswith("join")
        ]
        assert result.network_bytes == pytest.approx(sum(join_bytes))

    def test_rekey_unknown_column(self):
        cluster = Cluster(4)
        orders, items = self._tables(cluster)
        with pytest.raises(ReproError):
            execute(
                Join(Scan(orders), Scan(items), algorithm="HJ", rekey_on="nope"),
                cluster,
            )

    def test_unknown_algorithm(self):
        cluster = Cluster(4)
        orders, items = self._tables(cluster)
        with pytest.raises(ReproError):
            execute(Join(Scan(orders), Scan(items), algorithm="XJ"), cluster)

    def test_materialize_required(self):
        cluster = Cluster(4)
        orders, items = self._tables(cluster)
        with pytest.raises(ReproError):
            execute(Scan(orders), cluster, JoinSpec(materialize=False))


class TestSampledStats:
    def test_sampled_close_to_exact(self):
        cluster = Cluster(4)
        rng = np.random.default_rng(12)
        table_r = build_table(cluster, "R", rng.integers(0, 5000, 30_000), {"v": np.zeros(30_000)})
        table_s = build_table(cluster, "S", rng.integers(2500, 7500, 30_000), {"v": np.zeros(30_000)}, seed=2)
        exact = table_stats(table_r, table_s, JoinSpec())
        sampled = table_stats(table_r, table_s, JoinSpec(), sample_rate=0.25)
        assert sampled.tuples_r == pytest.approx(exact.tuples_r, rel=0.1)
        assert sampled.selectivity_r == pytest.approx(exact.selectivity_r, abs=0.08)
        assert sampled.selectivity_s == pytest.approx(exact.selectivity_s, abs=0.08)

    def test_tiny_sample_falls_back_to_exact(self):
        cluster = Cluster(2)
        table_r = build_table(cluster, "R", [1, 2, 3], {"v": [0, 0, 0]})
        table_s = build_table(cluster, "S", [2, 3, 4], {"v": [0, 0, 0]}, seed=1)
        stats = table_stats(table_r, table_s, JoinSpec(), sample_rate=1e-9)
        assert stats.tuples_r == 3


class TestRekeyAndStarPlan:
    def test_rekey_node(self):
        from repro.query import Rekey

        cluster = Cluster(4)
        rng = np.random.default_rng(20)
        orders = build_table(
            cluster, "orders", rng.integers(0, 300, 2000),
            {"cust": rng.integers(0, 50, 2000)}, seed=1,
        )
        result = execute(Rekey(Scan(orders), "cust"), cluster)
        assert result.network_bytes == 0.0
        out = result.table.gathered()
        assert out.keys.max() < 50  # keys are now customer ids
        assert "key" in result.table.payload_names  # old key demoted

    def test_rekey_unknown_column(self):
        from repro.query import Rekey

        cluster = Cluster(2)
        table = build_table(cluster, "T", [1, 2], {"v": [1, 2]})
        with pytest.raises(ReproError):
            execute(Rekey(Scan(table), "missing"), cluster)


class TestSemijoinFilteredQueryJoin:
    def test_filtered_join_same_output(self):
        cluster = Cluster(4)
        rng = np.random.default_rng(30)
        table_r = build_table(cluster, "R", np.arange(0, 3000), {"v": np.zeros(3000)})
        table_s = build_table(
            cluster, "S", np.arange(2700, 5700), {"w": np.zeros(3000)}, seed=1
        )
        plain = execute(Join(Scan(table_r), Scan(table_s), algorithm="HJ"), cluster)
        filtered = execute(
            Join(Scan(table_r), Scan(table_s), algorithm="HJ", semijoin_filter=True),
            cluster,
        )
        assert filtered.output_rows == plain.output_rows
        # Selective join: the filter pays for itself.
        assert filtered.network_bytes < plain.network_bytes
        join_op = [o for o in filtered.operators if o.operator.startswith("join")][0]
        assert join_op.operator == "join[BF+HJ]"
