"""Tests for the parallel execution engine.

Covers the executor hierarchy, phase barrier semantics on the cluster,
and the headline determinism guarantee: a join's traffic ledger,
profile, and output are bit-identical for any worker count.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from repro import Cluster, GraceHashJoin, TrackJoin, BroadcastJoin
from repro.cluster.network import MessageClass
from repro.errors import ValidationError
from repro.joins import LateMaterializationHashJoin, TrackingAwareHashJoin
from repro.joins.base import DistributedJoin
from repro.parallel import (
    ExecConfig,
    SerialExecutor,
    ThreadExecutor,
    current,
    kernel_chunk_rows,
    kernel_workers,
    resolve_executor,
    use,
)
from repro.parallel.chunks import run_chunks

from conftest import canonical_output, make_tables


def _square(value: int) -> int:
    return value * value


# -- executors -----------------------------------------------------------


class TestExecutors:
    def test_serial_map_preserves_order(self):
        executor = SerialExecutor()
        assert executor.map(_square, range(6)) == [0, 1, 4, 9, 16, 25]

    def test_thread_map_preserves_order(self):
        executor = ThreadExecutor(workers=4)
        try:
            assert executor.map(_square, range(100)) == [i * i for i in range(100)]
        finally:
            executor.close()

    def test_thread_map_propagates_exception(self):
        executor = ThreadExecutor(workers=2)

        def boom(i):
            if i == 3:
                raise ValueError("task 3 failed")
            return i

        try:
            with pytest.raises(ValueError, match="task 3 failed"):
                executor.map(boom, range(8))
        finally:
            executor.close()

    def test_resolve_executor(self):
        serial = resolve_executor(1)
        assert isinstance(serial, SerialExecutor)
        threaded = resolve_executor(4)
        assert isinstance(threaded, ThreadExecutor)
        threaded.close()

    def test_default_workers_env(self):
        assert ExecConfig.from_env({}) == ExecConfig(1, 1 << 16, 1)
        assert ExecConfig.from_env({"REPRO_WORKERS": " 6 "}).workers == 6
        environ = {"REPRO_WORKERS": "3", "REPRO_KERNEL_CHUNK_ROWS": "128", "REPRO_PIPELINE": "2"}
        assert ExecConfig.from_env(environ) == ExecConfig(3, 128, 2)
        # Kernel width is the phase width; no variable sets it apart.
        assert ExecConfig.from_env({"REPRO_KERNEL_WORKERS": "3"}) == ExecConfig()

    def test_malformed_env_falls_back_to_serial_with_warning(self):
        with pytest.warns(RuntimeWarning, match="not an integer"):
            assert ExecConfig.from_env({"REPRO_WORKERS": "banana"}).workers == 1
        with pytest.warns(RuntimeWarning, match="must be >= 1"):
            assert ExecConfig.from_env({"REPRO_WORKERS": "-3"}).workers == 1

    def test_explicit_workers_validation(self):
        with pytest.raises(ValidationError):
            resolve_executor(0)
        with pytest.raises(ValidationError):
            resolve_executor("four")
        with pytest.raises(ValidationError):
            ThreadExecutor(workers=1.5)
        with pytest.raises(ValidationError):
            ThreadExecutor(workers=True)
        with pytest.raises(ValidationError):
            ExecConfig(workers=-1)
        # ValidationError still is a ValueError, so parsers that caught
        # the builtin keep working.
        with pytest.raises(ValueError):
            resolve_executor(0)
        # Integer-valued floats (a CLI parser artifact) are accepted.
        assert resolve_executor(1.0).workers == 1


# -- cluster phases ------------------------------------------------------


class TestClusterPhases:
    def test_run_phase_task_forms(self):
        cluster = Cluster(4)
        assert cluster.run_phase(lambda node: node) == [0, 1, 2, 3]
        assert cluster.run_phase(lambda task: task * 10, tasks=3) == [0, 10, 20]
        assert cluster.run_phase(lambda task: -task, tasks=[5, 2]) == [-5, -2]

    def test_phase_exception_aborts_network_phase(self):
        cluster = Cluster(2)

        def bad(node):
            cluster.network.send(node, 0, MessageClass.RIDS, 1.0)
            raise RuntimeError("phase failed")

        with pytest.raises(RuntimeError):
            cluster.run_phase(bad)
        # The aborted phase unwound cleanly: no staged state survives and
        # the network accepts a new phase.
        assert cluster.network.pending_messages() == 0
        assert cluster.network.ledger.total_bytes == 0.0
        assert cluster.run_phase(lambda node: node) == [0, 1]

    def test_set_workers(self):
        cluster = Cluster(2, config=ExecConfig())
        assert cluster.workers == 1
        cluster.set_workers(4)
        assert cluster.workers == 4
        assert cluster.run_phase(lambda node: node) == [0, 1]
        cluster.set_workers(1)
        assert cluster.workers == 1


# -- one config per cluster ----------------------------------------------


def _kernel_knobs(_task):
    return kernel_workers(), kernel_chunk_rows()


class _ConfigProbe(DistributedJoin):
    """A join that records the config its body runs under."""

    name = "probe"

    def _execute(self, cluster, table_r, table_s, spec, profile):
        self.seen = current()
        return []


class TestExecConfig:
    def test_frozen_and_validated(self):
        config = ExecConfig(workers=2, chunk_rows=7, pipeline_depth=3)
        with pytest.raises(FrozenInstanceError):
            config.workers = 4
        for bad in ({"chunk_rows": 0}, {"pipeline_depth": "2"}, {"workers": 1.5}):
            with pytest.raises(ValidationError):
                ExecConfig(**bad)
        with pytest.raises(ValidationError):
            Cluster(2, config={"workers": 2})

    def test_cluster_fixes_its_config_at_construction(self):
        explicit = ExecConfig(workers=2, chunk_rows=7)
        scoped = ExecConfig(chunk_rows=5, pipeline_depth=2)
        with use(scoped):
            assert Cluster(2).config is scoped
            assert Cluster(2, config=explicit).config is explicit
            built_in_scope = Cluster(2)
        assert built_in_scope.config is scoped
        assert Cluster(2).config == current()
        leased = Cluster(2, config=explicit, executor=ThreadExecutor(3))
        assert leased.config == ExecConfig(workers=3, chunk_rows=7)

    def test_phase_task_sees_its_cluster_kernel_width(self):
        """Tasks on pool threads read the cluster's config, not the
        caller's scope or the process default."""
        cluster = Cluster(3, config=ExecConfig(workers=2, chunk_rows=7))
        with use(ExecConfig(workers=5, chunk_rows=11)):
            assert cluster.run_phase(_kernel_knobs) == [(2, 7)] * 3
        cluster.executor.close()

    def test_join_binds_its_cluster_config_on_the_caller(self):
        cluster = Cluster(2, config=ExecConfig(chunk_rows=7))
        table_r, table_s = make_tables(cluster, np.arange(4), np.arange(4))
        probe = _ConfigProbe()
        with use(ExecConfig(workers=5, chunk_rows=11)):
            probe.run(cluster, table_r, table_s)
            assert current().chunk_rows == 11
        assert probe.seen is cluster.config

    def test_kernel_pools_of_two_widths_run_side_by_side(self):
        """Threads of different kernel widths never shut down each other's
        pool ('cannot schedule new futures after shutdown')."""
        errors = []

        def loop(workers):
            try:
                with use(ExecConfig(workers=workers)):
                    deadline = time.perf_counter() + 1.0
                    while time.perf_counter() < deadline:
                        assert run_chunks(_square, range(6)) == [0, 1, 4, 9, 16, 25]
            except Exception as error:  # reported below, on the test's thread
                errors.append(error)

        threads = [threading.Thread(target=loop, args=(w,)) for w in (2, 3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


# -- determinism ---------------------------------------------------------


def _ledger_fingerprint(result):
    ledger = result.traffic
    return (
        sorted((c.name, b) for c, b in ledger.by_class.items()),
        sorted(ledger.by_link.items()),
        sorted(ledger.sent_by_node.items()),
        sorted(ledger.received_by_node.items()),
        ledger.local_bytes,
        ledger.message_count,
    )


DETERMINISM_ALGORITHMS = [
    GraceHashJoin(),
    BroadcastJoin("S"),
    TrackJoin("4TJ"),
    LateMaterializationHashJoin(),
    TrackingAwareHashJoin(),
]


@pytest.mark.parametrize(
    "algorithm", DETERMINISM_ALGORITHMS, ids=lambda a: type(a).__name__ + getattr(a, "broadcast", "")
)
def test_join_deterministic_across_worker_counts(algorithm):
    """Serial and 2/4/8-worker runs agree byte-for-byte (tentpole guarantee)."""
    cluster = Cluster(8)
    rng = np.random.default_rng(42)
    table_r, table_s = make_tables(
        cluster,
        rng.integers(0, 500, 2000),
        rng.integers(250, 750, 3000),
    )
    reference = None
    for workers in (1, 2, 4, 8):
        cluster = Cluster(8, config=replace(current(), workers=workers))
        result = algorithm.run(cluster, table_r, table_s)
        fingerprint = (
            _ledger_fingerprint(result),
            canonical_output(result).tobytes(),
        )
        if reference is None:
            reference = fingerprint
        else:
            assert fingerprint == reference, f"workers={workers} diverged"


def test_profile_deterministic_across_worker_counts():
    """Per-node profile steps also commit in task order at the barrier."""
    cluster = Cluster(8)
    rng = np.random.default_rng(9)
    table_r, table_s = make_tables(
        cluster,
        rng.integers(0, 300, 1200),
        rng.integers(100, 400, 1800),
    )

    def profile_steps(workers):
        cluster = Cluster(8, config=replace(current(), workers=workers))
        result = TrackJoin("4TJ").run(cluster, table_r, table_s)
        return [
            (step.name, step.kind, step.rate_class, step.per_node_bytes.tobytes())
            for step in result.profile.steps
        ]

    reference = profile_steps(1)
    for workers in (2, 8):
        assert profile_steps(workers) == reference
