"""Tests for the fault injection and recovery subsystem (repro.faults).

Covers the headline invariant (every registry operator, under a seeded
mixed fault plan, produces output row-identical to the fault-free run
with a byte-identical goodput ledger), the null-plan fast path, budget
exhaustion (typed errors, never hangs), determinism across repeats and
worker counts, query-layer graceful degradation, and plan validation.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import Cluster
from repro.cluster.network import MessageClass
from repro.errors import FaultExhaustedError, ReproError, ValidationError
from repro.faults import CrashEvent, FaultPlan, FaultRates, StragglerEvent
from repro.faults.chaos import default_plan, run_chaos
from repro.joins.registry import create
from repro.parallel import current
from repro.query import Join, Scan, compile_plan
from repro.testing import canonical_output, scatter_tables


def _make_cluster(plan=None, num_nodes=4, workers=1):
    cluster = Cluster(num_nodes, config=replace(current(), workers=workers), fault_plan=plan)
    rng = np.random.default_rng(5)
    table_r, table_s = scatter_tables(
        cluster, rng.integers(0, 40, 120), rng.integers(0, 40, 180)
    )
    return cluster, table_r, table_s


def _goodput(ledger):
    return (
        float(ledger.total_bytes),
        float(ledger.local_bytes),
        int(ledger.message_count),
        sorted((k.value, v) for k, v in ledger.by_class.items() if v),
        sorted((link, v) for link, v in ledger.by_link.items() if v),
    )


def _canonical_table(table):
    """Sorted matrix of a query result table: key plus every column."""
    part = table.gathered()
    names = sorted(part.columns)
    matrix = np.stack([part.keys] + [part.columns[name] for name in names])
    return matrix[:, np.lexsort(matrix)]


# -- headline invariant --------------------------------------------------


class TestChaosMatrix:
    def test_every_operator_every_worker_count_recovers(self):
        """Drops+duplicates+reorders+delays+crash+straggler leave output
        and goodput identical to the fault-free run, for all operators."""
        report = run_chaos(seeds=(0, 1), worker_counts=(1, 4, 8))
        assert report["ok"], report["failures"]
        assert report["runs"] == 2 * 3 * len(report["algorithms"])
        # The plans actually did something: faults were injected and
        # the recovery overhead landed in the retransmit counters.
        assert report["faults"]["faults_injected"] > 0
        assert report["faults"]["crashes"] > 0
        assert report["faults"]["stragglers"] > 0
        assert report["retransmit_bytes"] > 0

    def test_default_plan_is_not_null(self):
        plan = default_plan(0, 4)
        assert not plan.is_null()
        assert plan.crash_count(0, 1) == 1


# -- null-plan fast path -------------------------------------------------


class TestNullPlan:
    def test_null_plan_installs_no_injector(self):
        cluster = Cluster(4, fault_plan=FaultPlan())
        assert FaultPlan().is_null()
        assert cluster.network.faults is None

    def test_null_plan_ledger_identical_to_no_plan(self):
        """A null plan is byte-for-byte the unfaulted fabric."""
        baseline_cluster, table_r, table_s = _make_cluster(plan=None)
        baseline = create("HJ").run(baseline_cluster, table_r, table_s)
        null_cluster, table_r, table_s = _make_cluster(plan=FaultPlan())
        nulled = create("HJ").run(null_cluster, table_r, table_s)
        assert _goodput(nulled.traffic) == _goodput(baseline.traffic)
        assert nulled.traffic.retransmit_bytes == 0.0
        assert np.array_equal(canonical_output(nulled), canonical_output(baseline))


# -- budget exhaustion ---------------------------------------------------


class TestExhaustion:
    def test_message_budget_exhaustion_raises_typed_error(self):
        """A link that drops everything fails fast with attribution."""
        plan = FaultPlan(seed=0, drop=1.0, max_retries=3)
        cluster, table_r, table_s = _make_cluster(plan)
        with pytest.raises(FaultExhaustedError) as excinfo:
            create("HJ").run(cluster, table_r, table_s)
        error = excinfo.value
        assert isinstance(error.category, MessageClass)
        assert isinstance(error.link, tuple) and len(error.link) == 2
        assert error.attempts == plan.max_retries + 1

    def test_crash_budget_exhaustion_raises_typed_error(self):
        """A node that refuses to stay up exhausts its restart budget."""
        plan = FaultPlan(
            seed=0,
            crashes=(CrashEvent(node=1, phase=1, count=99),),
            max_node_restarts=2,
        )
        cluster, table_r, table_s = _make_cluster(plan)
        with pytest.raises(FaultExhaustedError) as excinfo:
            create("HJ").run(cluster, table_r, table_s)
        assert excinfo.value.node == 1
        assert excinfo.value.attempts == plan.max_node_restarts + 1

    def test_non_tracking_exhaustion_propagates_through_query(self):
        """Poisoned tuple traffic cannot be degraded away — it raises."""
        plan = FaultPlan(seed=0, drop=1.0, max_retries=2)
        cluster, table_r, table_s = _make_cluster(plan)
        physical = compile_plan(Join(Scan(table_r), Scan(table_s), algorithm="HJ"))
        with pytest.raises(FaultExhaustedError):
            physical.run(cluster)

    def test_negative_operator_retries_rejected(self):
        cluster, table_r, table_s = _make_cluster()
        physical = compile_plan(Join(Scan(table_r), Scan(table_s), algorithm="HJ"))
        with pytest.raises(ReproError):
            physical.run(cluster, operator_retries=-1)


# -- determinism ---------------------------------------------------------


class TestDeterminism:
    def test_repeat_run_is_identical(self):
        """cluster.reset() rewinds the injector to the seeded sequence."""
        plan = default_plan(0, 4)
        cluster, table_r, table_s = _make_cluster(plan)
        first = create("4TJ").run(cluster, table_r, table_s)
        second = create("4TJ").run(cluster, table_r, table_s)
        assert np.array_equal(canonical_output(first), canonical_output(second))
        assert _goodput(first.traffic) == _goodput(second.traffic)
        assert first.traffic.retransmit_bytes == second.traffic.retransmit_bytes

    def test_fault_sequence_independent_of_worker_count(self):
        """Same plan, same workload: 1 and 4 workers inject identically."""
        plan = default_plan(1, 4)
        snapshots = []
        for workers in (1, 4):
            cluster, table_r, table_s = _make_cluster(plan, workers=workers)
            result = create("3TJ").run(cluster, table_r, table_s)
            snapshots.append(
                (
                    cluster.network.faults.stats.as_dict(),
                    _goodput(result.traffic),
                    canonical_output(result).tobytes(),
                )
            )
            cluster.executor.close()
        assert snapshots[0] == snapshots[1]

    def test_virtual_clock_advances_without_wall_time(self):
        """Backoff and stragglers are charged to the virtual clock."""
        plan = default_plan(0, 4)
        cluster, table_r, table_s = _make_cluster(plan)
        create("HJ").run(cluster, table_r, table_s)
        stats = cluster.network.faults.stats
        assert stats.virtual_time > 0.0
        assert stats.retries > 0


# -- retransmit accounting ----------------------------------------------


class TestRetransmitAccounting:
    def test_recovery_overhead_lands_in_retransmit_counters(self):
        plan = FaultPlan(seed=0, drop=0.2, duplicate=0.2, max_retries=16)
        cluster, table_r, table_s = _make_cluster(plan)
        faulty = create("HJ").run(cluster, table_r, table_s)
        clean_cluster, table_r, table_s = _make_cluster()
        clean = create("HJ").run(clean_cluster, table_r, table_s)
        assert faulty.traffic.retransmit_bytes > 0.0
        assert faulty.traffic.retransmit_count > 0
        assert clean.traffic.retransmit_bytes == 0.0
        # Goodput is unchanged: same message count, same per-class bytes.
        assert _goodput(faulty.traffic) == _goodput(clean.traffic)


# -- query-layer degradation ---------------------------------------------


class TestDegradation:
    def test_tracking_exhaustion_degrades_to_non_tracking_join(self):
        """3TJ with poisoned keys_counts traffic falls back gracefully."""
        plan = FaultPlan(
            seed=3,
            class_rates={MessageClass.KEYS_COUNTS: FaultRates(drop=1.0)},
            max_retries=2,
        )
        cluster, table_r, table_s = _make_cluster(plan)
        tree = Join(Scan(table_r), Scan(table_s), algorithm="3TJ")
        degraded = compile_plan(tree).run(cluster)
        clean_cluster, table_r, table_s = _make_cluster()
        clean = compile_plan(tree).run(clean_cluster)

        join_stats = [
            op for op in degraded.operators if op.operator.startswith("join[")
        ]
        assert len(join_stats) == 1
        assert "degraded 3TJ->" in join_stats[0].note
        assert "keys_counts traffic exhausted its fault budget" in join_stats[0].note
        assert np.array_equal(
            _canonical_table(degraded.table), _canonical_table(clean.table)
        )


# -- plan validation -----------------------------------------------------


class TestPlanValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop": 1.5},
            {"duplicate": -0.1},
            {"crash_rate": 2.0},
            {"max_retries": -1},
            {"max_node_restarts": -1},
            {"backoff_base": 0.0},
            {"backoff_cap": 0.5},  # cap below default base of 1.0
            {"class_rates": {"keys_counts": FaultRates()}},  # key not a MessageClass
            {"link_rates": {(0, 1): 0.5}},  # value not FaultRates
        ],
    )
    def test_bad_plan_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            FaultPlan(**kwargs)

    def test_bad_events_rejected(self):
        with pytest.raises(ValidationError):
            CrashEvent(node=-1, phase=1)
        with pytest.raises(ValidationError):
            CrashEvent(node=0, phase=0)
        with pytest.raises(ValidationError):
            CrashEvent(node=0, phase=1, count=0)
        with pytest.raises(ValidationError):
            StragglerEvent(node=0, phase=0)
        with pytest.raises(ValidationError):
            StragglerEvent(node=0, phase=1, delay=0.0)
        with pytest.raises(ValidationError):
            FaultRates(reorder=1.1)

    def test_scoped_rate_resolution(self):
        """Link overrides beat class overrides beat the base rates."""
        plan = FaultPlan(
            drop=0.1,
            class_rates={MessageClass.RIDS: FaultRates(drop=0.5)},
            link_rates={(0, 1): FaultRates(drop=0.9)},
        )
        assert plan.rates_for(MessageClass.RIDS, 0, 1).drop == 0.9
        assert plan.rates_for(MessageClass.RIDS, 1, 0).drop == 0.5
        assert plan.rates_for(MessageClass.R_TUPLES, 1, 0).drop == 0.1
