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
from repro.errors import ParallelError, ValidationError
from repro.faults import FaultPlan
from repro.parallel import ExecConfig, run_fused_phases
from repro.timing.profile import ExecutionProfile

from conftest import assert_same_output, make_tables

TJ4 = partial(TrackJoin, "4TJ")
ALGORITHMS = [
    pytest.param(TJ4, id="TrackJoin-4TJ"),
    pytest.param(partial(TrackJoin, "2TJ-R"), id="TrackJoin-2TJ-R"),
    pytest.param(GraceHashJoin, id="GraceHashJoin"),
]


def run_join(algorithm, workers, depth, num_nodes=4, fault_plan=None, materialize=True):
    config = ExecConfig(workers=workers, pipeline_depth=depth)
    with Cluster(num_nodes, config=config, fault_plan=fault_plan) as cluster:
        rng = np.random.default_rng(13)
        table_r, table_s = make_tables(
            cluster, rng.integers(0, 700, 2500), rng.integers(300, 1000, 3000)
        )
        spec = JoinSpec(materialize=materialize)
        return algorithm().run(cluster, table_r, table_s, spec)


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

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_counting_run_identical_to_strict(self, algorithm):
        """Counts drain keys only on the fused path as on the strict one."""
        strict = run_join(algorithm, workers=1, depth=1, materialize=False)
        pipelined = run_join(algorithm, workers=4, depth=2, materialize=False)
        assert ledger_signature(strict.traffic) == ledger_signature(
            pipelined.traffic
        )
        full = run_join(algorithm, workers=1, depth=1)
        assert strict.output_rows == pipelined.output_rows == full.output_rows

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
        cluster = Cluster(4, config=ExecConfig(pipeline_depth=4), fault_plan=plan)
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
        cluster = Cluster(2, config=ExecConfig(pipeline_depth=2))
        seen = []
        with cluster.pipelined_phases():
            assert cluster.run_phase(lambda node: seen.append(node)) is None
            assert not seen  # deferred, not yet executed
        assert sorted(seen) == [0, 1]

    def test_window_noop_at_depth_one(self):
        cluster = Cluster(2, config=ExecConfig(pipeline_depth=1))
        with cluster.pipelined_phases():
            results = cluster.run_phase(lambda node: node)
        assert results == [0, 1]

    def test_exception_discards_window(self):
        cluster = Cluster(2, config=ExecConfig(pipeline_depth=2))
        with pytest.raises(RuntimeError):
            with cluster.pipelined_phases():
                cluster.run_phase(lambda node: node)
                raise RuntimeError("boom")
        # The deferred phase was discarded; the cluster is reusable.
        assert cluster.run_phase(lambda node: node) == [0, 1]

    def test_depth_validation(self):
        with pytest.raises(ValidationError):
            ExecConfig(pipeline_depth=0)
        with pytest.raises(ValidationError):
            Cluster(2).set_pipeline_depth("2")

    def test_env_default(self):
        assert ExecConfig.from_env({"REPRO_PIPELINE": "3"}).pipeline_depth == 3
        with pytest.warns(RuntimeWarning):
            assert ExecConfig.from_env({"REPRO_PIPELINE": "bogus"}).pipeline_depth == 1
        with pytest.warns(RuntimeWarning):
            assert ExecConfig.from_env({"REPRO_PIPELINE": "0"}).pipeline_depth == 1
        assert ExecConfig.from_env({}).pipeline_depth == 1


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

    def test_physical_plan_runs_at_its_cluster_depth(self):
        from repro.query import Join, Scan, compile_plan

        def run(depth):
            with Cluster(4, config=ExecConfig(workers=2, pipeline_depth=depth)) as cluster:
                result = plan.run(cluster, JoinSpec(materialize=True))
            fused = any(
                timing["stages"] > 1
                for profile in result.profiles
                for timing in profile.phase_timings
            )
            return result, fused

        table_r, table_s = self._tables(Cluster(4))
        plan = compile_plan(Join(Scan(table_r), Scan(table_s), algorithm="4TJ"))
        (strict, strict_fused), (pipelined, fused) = run(1), run(2)
        assert not strict_fused and fused
        assert strict.output_rows == pipelined.output_rows
        assert strict.network_bytes == pipelined.network_bytes
