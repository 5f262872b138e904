"""The physical-plan pipeline: compilation, lifecycle, rekey handling.

``execute`` is now a thin wrapper over ``compile_plan(plan).run(...)``;
these tests exercise the two-stage API directly — operator
linearization order, re-runnable plans, per-run statistics caching,
and a join's own ``rekey_on`` against a separate ``Rekey`` — plus the
``Rekey`` edge cases the plan layer must reject.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Cluster, random_uniform
from repro.errors import ReproError
from repro.query import Join, Rekey, Scan, compile_plan, execute
from repro.query import executor as executor_module
from repro.query.executor import JoinOp, RekeyOp, ScanOp
from repro.storage import Column, Schema


def build_table(cluster, name, keys, columns, seed=0):
    schema = Schema(
        (Column("key", bits=32),),
        tuple(Column(c, bits=64) for c in columns),
    )
    keys = np.asarray(keys, dtype=np.int64)
    return cluster.table_from_assignment(
        name,
        schema,
        keys,
        random_uniform(len(keys), cluster.num_nodes, seed=seed),
        columns={c: np.asarray(v, dtype=np.int64) for c, v in columns.items()},
    )


def two_tables(cluster):
    rng = np.random.default_rng(42)
    orders = build_table(
        cluster,
        "orders",
        rng.integers(0, 400, 2500),
        {"amount": rng.integers(1, 100, 2500), "cust": rng.integers(0, 80, 2500)},
        seed=1,
    )
    items = build_table(
        cluster, "items", rng.integers(0, 400, 4000),
        {"qty": rng.integers(1, 10, 4000)}, seed=2,
    )
    return orders, items


def sorted_rows(table):
    """Gathered rows as a sorted comparable structure."""
    part = table.gathered()
    names = sorted(part.columns)
    stacked = np.column_stack([part.keys] + [part.columns[n] for n in names])
    order = np.lexsort(stacked.T[::-1])
    return names, stacked[order]


class TestCompilation:
    def test_postorder_linearization(self):
        cluster = Cluster(2)
        orders, items = two_tables(cluster)
        plan = Rekey(Join(Scan(orders), Scan(items), algorithm="HJ"), "r.cust")
        physical = compile_plan(plan)
        assert [type(op) for op in physical.operators] == [
            ScanOp, ScanOp, JoinOp, RekeyOp,
        ]
        join_op, rekey_op = physical.operators[2], physical.operators[3]
        assert join_op.inputs == (0, 1)
        assert rekey_op.inputs == (2,)

    def test_unknown_plan_node_rejected_at_compile_time(self):
        with pytest.raises(ReproError, match="unknown plan node type"):
            compile_plan("not a plan")

    def test_compiled_plan_is_rerunnable(self):
        cluster = Cluster(4)
        orders, items = two_tables(cluster)
        physical = compile_plan(Join(Scan(orders), Scan(items), algorithm="HJ"))
        first = physical.run(cluster)
        second = physical.run(cluster)
        assert first.output_rows == second.output_rows
        assert first.network_bytes == pytest.approx(second.network_bytes)
        assert [op.operator for op in first.operators] == [
            op.operator for op in second.operators
        ]

    def test_matches_one_shot_execute(self):
        cluster = Cluster(4)
        orders, items = two_tables(cluster)
        plan = Join(Scan(orders), Scan(items), algorithm="4TJ")
        via_pipeline = compile_plan(plan).run(cluster)
        via_execute = execute(plan, cluster)
        assert sorted_rows(via_pipeline.table)[1].tolist() == (
            sorted_rows(via_execute.table)[1].tolist()
        )
        assert via_pipeline.network_bytes == pytest.approx(via_execute.network_bytes)


class TestStatsCaching:
    def test_plan_step_measures_stats_once(self, monkeypatch):
        cluster = Cluster(4)
        orders, items = two_tables(cluster)
        physical = compile_plan(Join(Scan(orders), Scan(items)))  # auto
        calls = {"n": 0}
        real = executor_module.table_stats

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_module, "table_stats", counting)
        ctx = executor_module.ExecutionContext(cluster=cluster, spec=executor_module.JoinSpec())
        scan_l, scan_r, join_op = physical.operators
        for op in (scan_l, scan_r):
            op.plan(ctx)
            op.execute(ctx)
            op.account(ctx)
        join_op.plan(ctx)
        join_op.plan(ctx)  # re-entry (adaptive re-choice) hits the cache
        assert calls["n"] == 1
        assert join_op.index in ctx.join_stats


class TestRekeyFusion:
    """``Join(..., rekey_on=c)`` re-keys in the join's output step; it must
    equal a separate ``Rekey(Join(...), c)`` operator."""

    def test_fused_rows_match_unfused(self):
        cluster = Cluster(4)
        orders, items = two_tables(cluster)
        fused = execute(
            Join(Scan(orders), Scan(items), algorithm="HJ", rekey_on="r.cust"), cluster
        )
        unfused = execute(
            Rekey(Join(Scan(orders), Scan(items), algorithm="HJ"), "r.cust"), cluster
        )
        assert sorted_rows(fused.table)[0] == sorted_rows(unfused.table)[0]
        assert sorted_rows(fused.table)[1].tolist() == sorted_rows(unfused.table)[1].tolist()
        assert fused.network_bytes == unfused.network_bytes


class TestRekeyEdgeCases:
    def test_rekey_on_current_key_column_rejected(self):
        """The key is not a payload column; re-keying on it is an error."""
        cluster = Cluster(2)
        table = build_table(cluster, "T", [1, 2, 3], {"v": [4, 5, 6]})
        with pytest.raises(ReproError, match="'key'"):
            execute(Rekey(Scan(table), "key"), cluster)

    def test_rekey_roundtrip_restores_original_key(self):
        """After a rekey the old key is payload, so rekeying back works."""
        cluster = Cluster(3)
        rng = np.random.default_rng(7)
        table = build_table(
            cluster, "T", rng.integers(0, 50, 300),
            {"cust": rng.integers(0, 9, 300)}, seed=3,
        )
        result = execute(Rekey(Rekey(Scan(table), "cust"), "key"), cluster)
        out = result.table.gathered()
        original = table.gathered()
        # Rows never move during rekey, so arrays match position-for-position.
        assert out.keys.tolist() == original.keys.tolist()
        assert out.columns["cust"].tolist() == original.columns["cust"].tolist()
        assert result.network_bytes == 0.0

    def test_join_rekey_on_unknown_column_lists_candidates(self):
        cluster = Cluster(2)
        orders, items = two_tables(cluster)
        with pytest.raises(ReproError, match=r"r\.cust"):
            execute(
                Join(Scan(orders), Scan(items), algorithm="HJ", rekey_on="bogus"),
                cluster,
            )
