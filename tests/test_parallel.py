"""Tests for the parallel execution engine.

Covers the executor hierarchy, phase barrier semantics on the cluster,
and the headline determinism guarantee: a join's traffic ledger,
profile, and output are bit-identical for any worker count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Cluster, GraceHashJoin, TrackJoin, BroadcastJoin
from repro.cluster.network import MessageClass
from repro.errors import ValidationError
from repro.joins import LateMaterializationHashJoin, TrackingAwareHashJoin
from repro.parallel import (
    SerialExecutor,
    ThreadExecutor,
    default_workers,
    resolve_executor,
    set_default_workers,
)
from repro.parallel.executor import WORKERS_ENV

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

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        set_default_workers(None)
        assert default_workers() == 1
        monkeypatch.setenv(WORKERS_ENV, "6")
        assert default_workers() == 6
        set_default_workers(3)
        assert default_workers() == 3
        set_default_workers(None)
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert default_workers() == 1

    def test_malformed_env_falls_back_to_serial_with_warning(self, monkeypatch):
        set_default_workers(None)
        monkeypatch.setenv(WORKERS_ENV, "banana")
        with pytest.warns(RuntimeWarning, match="not an integer"):
            assert default_workers() == 1
        monkeypatch.setenv(WORKERS_ENV, "-3")
        with pytest.warns(RuntimeWarning, match="must be >= 1"):
            assert default_workers() == 1

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
            set_default_workers(-1)
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
        cluster = Cluster(2, workers=1)
        assert cluster.workers == 1
        cluster.set_workers(4)
        assert cluster.workers == 4
        assert cluster.run_phase(lambda node: node) == [0, 1]
        cluster.set_workers(1)
        assert cluster.workers == 1


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
        cluster.set_workers(workers)
        result = algorithm.run(cluster, table_r, table_s)
        fingerprint = (
            _ledger_fingerprint(result),
            canonical_output(result).tobytes(),
        )
        if reference is None:
            reference = fingerprint
        else:
            assert fingerprint == reference, f"workers={workers} diverged"
    cluster.set_workers(1)


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
        cluster.set_workers(workers)
        result = TrackJoin("4TJ").run(cluster, table_r, table_s)
        return [
            (step.name, step.kind, step.rate_class, step.per_node_bytes.tobytes())
            for step in result.profile.steps
        ]

    try:
        reference = profile_steps(1)
        for workers in (2, 8):
            assert profile_steps(workers) == reference
    finally:
        cluster.set_workers(1)
