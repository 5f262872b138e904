"""Cluster: N nodes plus the network fabric that connects them.

A :class:`Cluster` is the execution context every distributed join runs
in.  It owns the :class:`~repro.cluster.network.Network` (and therefore
the traffic ledger), a :class:`~repro.cluster.node.Node` per machine,
its fixed :class:`~repro.parallel.config.ExecConfig`, and the
:class:`~repro.parallel.executor.PhaseExecutor` that decides how each
phase's per-node work is scheduled (serial by default, thread workers
when ``workers > 1``).  Helper constructors build distributed tables
directly onto the cluster.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from ..errors import JoinConfigError, ValidationError
from ..parallel.config import ExecConfig, current, use
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

__all__ = ["Cluster"]


class Cluster:
    """A fully connected cluster of ``num_nodes`` simulated machines.

    Parameters
    ----------
    config:
        The cluster's :class:`~repro.parallel.config.ExecConfig`: phase
        and kernel workers, kernel chunk rows, and how many consecutive
        exchange phases a :meth:`pipelined_phases` window may fuse.
        ``None`` takes the config bound on this thread
        (:func:`repro.parallel.use`), else the process default (the
        ``REPRO_*`` environment, else serial, 64 Ki-row chunks and
        strict barriers).  Depth 1 is the byte-exact reference mode;
        higher depths keep ledger sums, inbox order, and join outputs
        identical but may renumber message sequence ids and reorder
        profile steps.
    executor:
        Pre-built executor (a leased warm pool, say); the config's
        ``workers`` becomes the executor's width.
    fault_plan:
        Optional seeded :class:`~repro.faults.plan.FaultPlan`; when
        given (and not null), every join on this cluster runs under
        deterministic fault injection with phase-level recovery.
    """

    def __init__(
        self,
        num_nodes: int,
        config: ExecConfig | None = None,
        executor: PhaseExecutor | None = None,
        fault_plan=None,
    ):
        config = current() if config is None else config
        if not isinstance(config, ExecConfig):
            raise ValidationError(f"expected an ExecConfig, got {config!r}")
        if executor is None:
            executor = resolve_executor(config.workers)
        elif executor.workers != config.workers:
            config = replace(config, workers=executor.workers)
        self.config = config
        self.executor = executor
        self.network = Network(num_nodes)
        self.nodes = [Node(i) for i in range(num_nodes)]
        self._deferred: list[tuple] | None = None
        if fault_plan is not None:
            self.network.set_fault_plan(fault_plan)

    def close(self) -> None:
        """Release the phase executor's worker threads.

        A leased executor (a warm pool's ``SharedExecutor``) stays up:
        its pool outlives the cluster.  A thread executor reopens its
        pool if the cluster runs again.
        """
        self.executor.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def set_fault_plan(self, fault_plan) -> None:
        """Install (or clear, with ``None``) a fault-injection plan."""
        self.network.set_fault_plan(fault_plan)

    @property
    def num_nodes(self) -> int:
        """Number of machines in the cluster."""
        return self.network.num_nodes

    @property
    def workers(self) -> int:
        """Phase and kernel worker count."""
        return self.config.workers

    @property
    def pipeline_depth(self) -> int:
        """How many phases a :meth:`pipelined_phases` window may fuse."""
        return self.config.pipeline_depth

    # Kept only because benchmarks/e2e/measure.py still calls it.
    def set_workers(self, workers: int) -> None:
        """Replace the config's ``workers`` and the phase executor."""
        config = replace(self.config, workers=workers)
        self.executor.close()
        self.executor = resolve_executor(config.workers)
        self.config = config

    # Kept only because benchmarks/e2e/measure.py still calls it.
    def set_pipeline_depth(self, depth: int) -> None:
        """Replace the config's ``pipeline_depth``."""
        self.config = replace(self.config, pipeline_depth=depth)

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
        """Scatter rows onto this cluster (see ``DistributedTable.from_assignment``),
        with its config bound."""
        with use(self.config):
            return DistributedTable.from_assignment(
                name, schema, keys, node_of_row, self.num_nodes, columns=columns
            )
