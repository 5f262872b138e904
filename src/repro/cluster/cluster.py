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

from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from ..errors import JoinConfigError, ValidationError
from ..parallel.config import ExecConfig, check_count, current, use
from ..parallel.executor import PhaseExecutor, resolve_executor, run_phase
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
        and kernel workers and kernel chunk rows.  ``None`` takes the
        config bound on this thread (:func:`repro.parallel.use`), else
        the process default (the ``REPRO_*`` environment, else serial
        and 64 Ki-row chunks).
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

    # Kept only because benchmarks/e2e/measure.py still calls it.
    def set_workers(self, workers: int) -> None:
        """Replace the config's ``workers`` and the phase executor."""
        config = replace(self.config, workers=workers)
        self.executor.close()
        self.executor = resolve_executor(config.workers)
        self.config = config

    # Kept only because benchmarks/e2e/measure.py still calls it.
    def set_pipeline_depth(self, depth: int) -> None:
        """Validate ``depth``; every phase runs under its own barrier."""
        check_count(depth, "pipeline depth")

    def run_phase(
        self,
        fn: Callable[[int], object],
        tasks: Sequence[int] | int | None = None,
        profile: ExecutionProfile | None = None,
        task_nodes: Sequence[int] | None = None,
    ) -> list:
        """Run one phase of per-node work on this cluster's executor.

        See :func:`repro.parallel.run_phase`: each task gets a private
        send lane (messages and profile steps), committed in task order
        at the closing barrier, so results are deterministic for any
        worker count.  ``task_nodes`` maps task positions to the node
        each task simulates when ``tasks`` is not already
        one-task-per-node (fault-injected crash recovery needs the
        mapping).
        """
        return run_phase(self, fn, tasks=tasks, profile=profile, task_nodes=task_nodes)

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
