"""Pipelined exchange mode: fused phases must change nothing but time.

Depth-1 (strict) execution is the byte-exact reference the golden suite
pins.  With ``pipeline_depth >= 2`` consecutive exchange phases fuse
under one barrier, which may renumber message sequence ids and reorder
profile steps — but the traffic ledger (per class, per link, totals,
message counts), the per-category inbox order, and the join outputs
must be identical at every worker count.  Fault plans force strict
barriers regardless of the configured depth.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro import Cluster, GraceHashJoin, JoinSpec, TrackJoin
from repro.cluster.cluster import default_pipeline_depth
from repro.errors import ParallelError, ValidationError
from repro.faults import FaultPlan
from repro.parallel import ProcessExecutor, run_fused_phases
from repro.timing.profile import ExecutionProfile

from conftest import assert_same_output, make_tables

TJ4 = partial(TrackJoin, "4TJ")
ALGORITHMS = [
    pytest.param(TJ4, id="TrackJoin-4TJ"),
    pytest.param(partial(TrackJoin, "2TJ-R"), id="TrackJoin-2TJ-R"),
    pytest.param(GraceHashJoin, id="GraceHashJoin"),
]


def run_join(algorithm, workers, depth, num_nodes=4, fault_plan=None):
    cluster = Cluster(
        num_nodes, workers=workers, pipeline_depth=depth, fault_plan=fault_plan
    )
    rng = np.random.default_rng(13)
    table_r, table_s = make_tables(
        cluster, rng.integers(0, 700, 2500), rng.integers(300, 1000, 3000)
    )
    return algorithm().run(cluster, table_r, table_s, JoinSpec(materialize=True))


def ledger_signature(traffic):
    return {
        "by_class": sorted((c.name, b) for c, b in traffic.by_class.items()),
        "by_link": sorted(traffic.by_link.items()),
        "total": traffic.total_bytes,
        "messages": traffic.message_count,
        "local": traffic.local_bytes,
    }


class TestPipelinedIdentity:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("workers", [1, 4, 8])
    def test_ledger_and_output_identical_to_strict(self, algorithm, workers):
        strict = run_join(algorithm, workers=1, depth=1)
        pipelined = run_join(algorithm, workers=workers, depth=2)
        assert ledger_signature(strict.traffic) == ledger_signature(
            pipelined.traffic
        )
        assert_same_output(strict, pipelined)

    @pytest.mark.parametrize("depth", [2, 3, 8])
    def test_deeper_windows_identical(self, depth):
        strict = run_join(TJ4, workers=1, depth=1)
        pipelined = run_join(TJ4, workers=4, depth=depth)
        assert ledger_signature(strict.traffic) == ledger_signature(
            pipelined.traffic
        )
        assert_same_output(strict, pipelined)

    def test_profile_step_totals_identical(self):
        strict = run_join(TJ4, workers=1, depth=1)
        pipelined = run_join(TJ4, workers=4, depth=2)
        totals = lambda profile: sorted(  # noqa: E731
            (s.name, s.kind, tuple(s.per_node_bytes)) for s in profile.steps
        )
        assert totals(strict.profile) == totals(pipelined.profile)

    def test_fused_groups_actually_formed(self):
        result = run_join(TJ4, workers=2, depth=2)
        assert any(t["stages"] > 1 for t in result.profile.phase_timings)
        strict = run_join(TJ4, workers=2, depth=1)
        assert all(t["stages"] == 1 for t in strict.profile.phase_timings)


class TestFaultFallback:
    def test_fault_plan_forces_strict_barriers(self):
        plan = FaultPlan(seed=5, drop=0.05, max_retries=8)
        cluster = Cluster(4, pipeline_depth=4, fault_plan=plan)
        assert cluster.pipeline_depth == 4
        assert not cluster.pipeline_active()

    def test_faulted_pipelined_run_matches_faultless_goodput(self):
        plan = FaultPlan(seed=5, drop=0.05, max_retries=8)
        clean = run_join(TJ4, workers=2, depth=4)
        faulted = run_join(TJ4, workers=2, depth=4, fault_plan=plan)
        assert ledger_signature(clean.traffic) == ledger_signature(
            faulted.traffic
        )
        assert_same_output(clean, faulted)
        assert faulted.traffic.retransmit_bytes > 0

    def test_run_fused_phases_rejects_faulted_multi_stage(self):
        plan = FaultPlan(seed=1, drop=0.01, max_retries=8)
        cluster = Cluster(2, fault_plan=plan)
        noop = lambda node: None  # noqa: E731
        with pytest.raises(ParallelError):
            run_fused_phases(cluster, [(noop, None, None), (noop, None, None)])


class TestWindowSemantics:
    def test_run_phase_returns_none_inside_window(self):
        cluster = Cluster(2, pipeline_depth=2)
        seen = []
        with cluster.pipelined_phases():
            assert cluster.run_phase(lambda node: seen.append(node)) is None
            assert not seen  # deferred, not yet executed
        assert sorted(seen) == [0, 1]

    def test_window_noop_at_depth_one(self):
        cluster = Cluster(2, pipeline_depth=1)
        with cluster.pipelined_phases():
            results = cluster.run_phase(lambda node: node)
        assert results == [0, 1]

    def test_exception_discards_window(self):
        cluster = Cluster(2, pipeline_depth=2)
        with pytest.raises(RuntimeError):
            with cluster.pipelined_phases():
                cluster.run_phase(lambda node: node)
                raise RuntimeError("boom")
        # The deferred phase was discarded; the cluster is reusable.
        assert cluster.run_phase(lambda node: node) == [0, 1]

    def test_depth_validation(self):
        with pytest.raises(ValidationError):
            Cluster(2, pipeline_depth=0)
        with pytest.raises(ValidationError):
            Cluster(2).set_pipeline_depth("2")

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PIPELINE", "3")
        assert default_pipeline_depth() == 3
        monkeypatch.setenv("REPRO_PIPELINE", "bogus")
        with pytest.warns(RuntimeWarning):
            assert default_pipeline_depth() == 1
        monkeypatch.setenv("REPRO_PIPELINE", "0")
        with pytest.warns(RuntimeWarning):
            assert default_pipeline_depth() == 1
        monkeypatch.delenv("REPRO_PIPELINE")
        assert default_pipeline_depth() == 1


class TestPhaseTimings:
    def test_breakdown_fields_recorded(self):
        result = run_join(TJ4, workers=2, depth=2)
        timings = result.profile.phase_timings
        assert timings
        for timing in timings:
            for field in (
                "tasks",
                "stages",
                "workers",
                "dispatch_seconds",
                "kernel_seconds",
                "barrier_wait_seconds",
                "commit_seconds",
                "phase_seconds",
            ):
                assert field in timing
                assert timing[field] >= 0
        totals = result.profile.timing_totals()
        assert totals["phases"] == len(timings)
        assert totals["kernel_seconds"] == pytest.approx(
            sum(t["kernel_seconds"] for t in timings)
        )

    def test_timings_not_merged_across_profiles(self):
        profile = ExecutionProfile(2)
        other = ExecutionProfile(2)
        other.record_phase_timing({"kernel_seconds": 1.0})
        profile.merge(other)
        assert profile.phase_timings == []


class TestQueryPipelineKnob:
    def _tables(self, cluster):
        rng = np.random.default_rng(3)
        return make_tables(
            cluster, rng.integers(0, 400, 2000), rng.integers(0, 400, 2000)
        )

    def test_physical_plan_depth_override_and_restore(self):
        from repro.query import Join, Scan, compile_plan

        cluster = Cluster(4, workers=2)
        table_r, table_s = self._tables(cluster)
        plan = compile_plan(Join(Scan(table_r), Scan(table_s), algorithm="4TJ"))
        strict = plan.run(cluster, JoinSpec(materialize=True))
        assert cluster.pipeline_depth == 1
        pipelined = plan.run(
            cluster, JoinSpec(materialize=True), pipeline_depth=2
        )
        assert cluster.pipeline_depth == 1  # restored
        assert strict.output_rows == pipelined.output_rows
        assert strict.network_bytes == pipelined.network_bytes


class TestProcessExecutorBatching:
    def test_batched_map_preserves_item_order(self):
        executor = ProcessExecutor(workers=2)
        try:
            assert executor.map(_square, range(23)) == [i * i for i in range(23)]
        finally:
            executor.close()

    def test_explicit_batch_size(self):
        executor = ProcessExecutor(workers=2, batch_size=3)
        try:
            assert executor._batches(list(range(7))) == [[0, 1, 2], [3, 4, 5], [6]]
            assert executor.map(_square, range(7)) == [i * i for i in range(7)]
        finally:
            executor.close()

    def test_default_batches_one_per_worker(self):
        executor = ProcessExecutor(workers=4)
        assert executor._batches(list(range(10))) == [
            [0, 1, 2],
            [3, 4, 5],
            [6, 7, 8],
            [9],
        ]
        assert executor._batches([]) == []


def _square(x):
    return x * x
