"""Cluster: N nodes plus the network fabric that connects them.

A :class:`Cluster` is the execution context every distributed join runs
in.  It owns the :class:`~repro.cluster.network.Network` (and therefore
the traffic ledger), a :class:`~repro.cluster.node.Node` per machine,
and the :class:`~repro.parallel.executor.PhaseExecutor` that decides
how each phase's per-node work is scheduled (serial by default, thread
workers when ``workers > 1``).  Helper constructors build distributed
tables directly onto the cluster.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from ..errors import JoinConfigError, ValidationError
from ..parallel.executor import (
    PhaseExecutor,
    resolve_executor,
    run_fused_phases,
    run_phase,
)
from ..storage.schema import Schema
from ..storage.table import DistributedTable
from ..timing.profile import ExecutionProfile
from .network import Network
from .node import Node

__all__ = ["Cluster", "default_pipeline_depth", "PIPELINE_ENV"]

#: Environment variable consulted for the default pipeline depth.
PIPELINE_ENV = "REPRO_PIPELINE"


def default_pipeline_depth() -> int:
    """Pipeline depth new clusters use when none is given.

    Resolution: the ``REPRO_PIPELINE`` environment variable, else 1
    (strict barriers — the reference the golden suites pin).  A
    malformed or non-positive value falls back to 1 with a warning,
    mirroring :func:`repro.parallel.default_workers`.
    """
    env = os.environ.get(PIPELINE_ENV, "").strip()
    if not env:
        return 1
    try:
        depth = int(env)
    except ValueError:
        warnings.warn(
            f"{PIPELINE_ENV}={env!r} is not an integer; "
            "falling back to strict (depth 1) barriers",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1
    if depth < 1:
        warnings.warn(
            f"{PIPELINE_ENV} must be >= 1, got {depth}; "
            "falling back to strict (depth 1) barriers",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1
    return depth


def _check_depth(depth) -> int:
    if isinstance(depth, bool) or not isinstance(depth, int):
        raise ValidationError(f"pipeline depth must be an integer, got {depth!r}")
    if depth < 1:
        raise ValidationError(f"pipeline depth must be >= 1, got {depth}")
    return depth


class Cluster:
    """A fully connected cluster of ``num_nodes`` simulated machines.

    Parameters
    ----------
    workers:
        Worker count for phase execution.  ``None`` uses the process
        default (:func:`repro.parallel.set_default_workers` or the
        ``REPRO_WORKERS`` environment variable, else 1 = serial).
    executor:
        Pre-built executor, overriding ``workers``.
    fault_plan:
        Optional seeded :class:`~repro.faults.plan.FaultPlan`; when
        given (and not null), every join on this cluster runs under
        deterministic fault injection with phase-level recovery.
    pipeline_depth:
        How many consecutive exchange phases a
        :meth:`pipelined_phases` window may fuse under one barrier.
        ``None`` uses :func:`default_pipeline_depth` (the
        ``REPRO_PIPELINE`` environment variable, else 1 = strict
        barriers).  Depth 1 is the byte-exact reference mode; higher
        depths keep ledger sums, inbox order, and join outputs
        identical but may renumber message sequence ids and reorder
        profile steps.
    """

    def __init__(
        self,
        num_nodes: int,
        workers: int | None = None,
        executor: PhaseExecutor | None = None,
        fault_plan=None,
        pipeline_depth: int | None = None,
    ):
        self.network = Network(num_nodes)
        self.nodes = [Node(i) for i in range(num_nodes)]
        self.executor = executor if executor is not None else resolve_executor(workers)
        self.pipeline_depth = (
            default_pipeline_depth() if pipeline_depth is None else _check_depth(pipeline_depth)
        )
        self._deferred: list[tuple] | None = None
        if fault_plan is not None:
            self.network.set_fault_plan(fault_plan)

    def set_fault_plan(self, fault_plan) -> None:
        """Install (or clear, with ``None``) a fault-injection plan."""
        self.network.set_fault_plan(fault_plan)

    @property
    def num_nodes(self) -> int:
        """Number of machines in the cluster."""
        return self.network.num_nodes

    @property
    def workers(self) -> int:
        """Worker count of the cluster's phase executor."""
        return self.executor.workers

    def set_workers(self, workers: int) -> None:
        """Replace the phase executor with one of ``workers`` workers."""
        self.executor.close()
        self.executor = resolve_executor(workers)

    def set_pipeline_depth(self, depth: int) -> None:
        """Set how many phases a :meth:`pipelined_phases` window may fuse."""
        self.pipeline_depth = _check_depth(depth)

    def pipeline_active(self) -> bool:
        """True when pipelined windows actually fuse phases.

        Requires depth > 1 *and* no installed fault plan: the fault
        injector's phase-numbered crash/drop/duplicate schedule assumes
        strict per-phase sequencing, so pipelining silently falls back
        to strict barriers whenever faults are on.
        """
        return self.pipeline_depth > 1 and self.network.faults is None

    def run_phase(
        self,
        fn: Callable[[int], object],
        tasks: Sequence[int] | int | None = None,
        profile: ExecutionProfile | None = None,
        task_nodes: Sequence[int] | None = None,
    ) -> list | None:
        """Run one phase of per-node work on this cluster's executor.

        See :func:`repro.parallel.run_phase`: each task gets a private
        send lane (messages, ledger and profile steps), committed in
        task order at the closing barrier, so results are deterministic
        for any worker count.  ``task_nodes`` maps task positions to the node each task
        simulates when ``tasks`` is not already one-task-per-node
        (fault-injected crash recovery needs the mapping).

        Inside an active :meth:`pipelined_phases` window the phase is
        *deferred* — buffered and later fused with its neighbours under
        one barrier — and this method returns ``None`` instead of task
        results.  Only call sites that ignore the results may run
        inside such a window.
        """
        if self._deferred is not None:
            self._deferred.append((fn, tasks, profile, task_nodes))
            return None
        return run_phase(self, fn, tasks=tasks, profile=profile, task_nodes=task_nodes)

    @contextmanager
    def pipelined_phases(self):
        """Window that overlaps consecutive exchange phases.

        While the window is open, :meth:`run_phase` calls are buffered;
        on exit they are flushed in windows of at most
        ``pipeline_depth`` consecutive phases (splitting whenever the
        profile object changes), each window running under one shared
        barrier via :func:`repro.parallel.run_fused_phases`.  Phase N's
        sends thus overlap phase N+1's local work, and both commit —
        in original phase order — at the window's single barrier.

        Correctness contract for callers: phases deferred into one
        window must not read each other's results (``run_phase``
        returns ``None`` inside the window) or each other's delivered
        messages (delivery happens at the window barrier).

        When pipelining is inactive (depth 1, a fault plan installed,
        or a window already open) this is a no-op and every phase runs
        strictly.
        """
        if not self.pipeline_active() or self._deferred is not None:
            yield
            return
        deferred: list[tuple] = []
        self._deferred = deferred
        try:
            yield
        except BaseException:
            self._deferred = None
            raise
        self._deferred = None
        self._flush_deferred(deferred)

    def _flush_deferred(self, deferred: list[tuple]) -> None:
        """Run buffered phases in fused windows of ``pipeline_depth``."""
        window: list[tuple] = []
        window_profile: ExecutionProfile | None = None
        for entry in deferred:
            _, _, profile, _ = entry
            if window and (
                len(window) >= self.pipeline_depth or profile is not window_profile
            ):
                self._run_window(window, window_profile)
                window = []
            window.append(entry)
            window_profile = profile
        if window:
            self._run_window(window, window_profile)

    def _run_window(
        self, window: list[tuple], profile: ExecutionProfile | None
    ) -> None:
        if len(window) == 1:
            fn, tasks, profile, task_nodes = window[0]
            run_phase(self, fn, tasks=tasks, profile=profile, task_nodes=task_nodes)
            return
        stages = [(fn, tasks, task_nodes) for fn, tasks, _, task_nodes in window]
        run_fused_phases(self, stages, profile=profile)

    def reset(self) -> None:
        """Clear node scratch state, inboxes, and start a fresh ledger.

        Rewinds the fault injector too (same seed, phase 1 again), so
        every join on a fault-injected cluster — including a degraded
        re-run after :class:`~repro.errors.FaultExhaustedError` — sees
        the identical, reproducible fault sequence.
        """
        for node in self.nodes:
            node.clear()
        self.network.clear_inboxes()
        self.network.reset_ledger()
        if self.network.faults is not None:
            self.network.faults.reset()

    def check_table(self, table: DistributedTable) -> None:
        """Validate that a table is partitioned for this cluster."""
        if table.num_nodes != self.num_nodes:
            raise JoinConfigError(
                f"table {table.name!r} has {table.num_nodes} partitions, "
                f"cluster has {self.num_nodes} nodes"
            )

    def table_from_assignment(
        self,
        name: str,
        schema: Schema,
        keys: np.ndarray,
        node_of_row: np.ndarray,
        columns: dict[str, np.ndarray] | None = None,
    ) -> DistributedTable:
        """Scatter rows onto this cluster (see ``DistributedTable.from_assignment``)."""
        return DistributedTable.from_assignment(
            name, schema, keys, node_of_row, self.num_nodes, columns=columns
        )
