"""Worker-pool executors for the parallel cluster engine.

The simulated cluster runs each node's per-phase work (partition
scatters, merge-joins, tracking dedup) as one *task*; a
:class:`PhaseExecutor` decides where those tasks run:

:class:`SerialExecutor`
    Tasks run inline on the calling thread, in task order.  The
    default, and the reference every parallel run must match
    byte-for-byte.

:class:`ThreadExecutor`
    Tasks run on a shared :class:`~concurrent.futures.ThreadPoolExecutor`.
    The hot kernels are GIL-releasing numpy (sorts, gathers, bincounts),
    so threads give real parallelism without pickling any state.

Phase tasks are closures over cluster state (send lanes, partitions),
so phases run inline or on threads only.

Determinism does not depend on the executor: :func:`run_phase` gives
every task its own send lane — staged messages, their ledger and the
task's profile steps — and commits the lanes in task order at the phase
barrier, so ledgers, inbox ordering, and profiles are bit-identical for
any worker count or interleaving.
"""

from __future__ import annotations

import abc
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

from ..errors import FaultExhaustedError, NodeCrashError, ParallelError
from ..timing.clock import wall_clock
from .config import check_count, use

__all__ = [
    "PhaseExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "resolve_executor",
    "run_phase",
]


class PhaseExecutor(abc.ABC):
    """Runs the tasks of one phase and collects their results in order."""

    #: Number of workers tasks may occupy concurrently.
    workers: int = 1

    @abc.abstractmethod
    def map(self, fn: Callable, items: Iterable) -> list:
        """Apply ``fn`` to every item; results are in item order.

        The first task exception propagates to the caller (remaining
        tasks may or may not have run).
        """

    def close(self) -> None:
        """Release pooled workers (no-op for inline executors)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} workers={self.workers}>"


class SerialExecutor(PhaseExecutor):
    """Inline execution on the calling thread, in task order."""

    workers = 1

    def map(self, fn: Callable, items: Iterable) -> list:
        return [fn(item) for item in items]


class ThreadExecutor(PhaseExecutor):
    """Thread-pool execution for GIL-releasing numpy task bodies."""

    def __init__(self, workers: int):
        self.workers = check_count(workers, "worker count")
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-worker"
            )
        return self._pool

    def map(self, fn: Callable, items: Iterable) -> list:
        return list(self._ensure_pool().map(fn, items))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def resolve_executor(workers: int) -> PhaseExecutor:
    """Build the executor for ``workers``: inline at 1, threads above.

    A malformed or non-positive ``workers`` raises
    :class:`~repro.errors.ValidationError`.
    """
    workers = check_count(workers, "worker count")
    if workers == 1:
        return SerialExecutor()
    return ThreadExecutor(workers)


class _CrashedTask:
    """Sentinel result marking a task whose node crashed at phase entry.

    Crashes must not abort the whole phase inside ``executor.map`` (the
    supervisor restarts crashed nodes afterwards), so the guarded task
    wrapper converts :class:`~repro.errors.NodeCrashError` into this
    sentinel instead of letting it propagate.
    """

    __slots__ = ("error",)

    def __init__(self, error: NodeCrashError):
        self.error = error


def run_phase(
    cluster,
    fn: Callable[[int], object],
    tasks: Sequence[int] | int | None = None,
    profile=None,
    executor: PhaseExecutor | None = None,
    task_nodes: Sequence[int] | None = None,
) -> list:
    """Run one phase's tasks with barrier semantics and deterministic state.

    ``fn(i)`` is invoked once per task index.  ``tasks`` is either a task
    count, an explicit index sequence, or ``None`` for one task per
    cluster node.  Every task is bound to its own
    :class:`~repro.cluster.network.SendLane`, which also collects the
    task's recordings into ``profile``; lanes are committed in task
    order at the closing barrier, so traffic ledgers, inbox ordering,
    and profiles never depend on the worker count or thread interleaving.
    Each task runs with the cluster's
    :class:`~repro.parallel.config.ExecConfig` bound on its thread, so
    its kernels use that cluster's width and chunk size.
    Messages sent inside the phase become visible to ``deliver`` only
    after the barrier, matching the paper's non-pipelined phase model.

    Crash supervision
        When the cluster network has a fault plan installed, each task
        asks the injector whether its node fail-stops entering this
        phase — *before* the task body runs or its lane binds, so a
        crashed task has no partial side effects.  The supervisor then
        re-executes crashed tasks inline (same lane position, preserving
        barrier commit order) until they succeed or the plan's
        ``max_node_restarts`` budget is spent, at which point
        :class:`~repro.errors.FaultExhaustedError` propagates and the
        phase aborts.  Crash injection needs a task-to-node mapping:
        one-task-per-node phases provide it implicitly, other phases
        pass ``task_nodes``; phases with neither run uninjected.

    Returns the task results in task order.
    """
    executor = executor or cluster.executor
    config = cluster.config
    network = cluster.network
    injector = getattr(network, "faults", None)
    if tasks is None:
        indices: Sequence[int] = range(cluster.num_nodes)
        nodes: Sequence[int | None] = indices
    else:
        indices = range(tasks) if isinstance(tasks, int) else list(tasks)
        nodes = [None] * len(indices)
    if task_nodes is not None:
        nodes = list(task_nodes)
        if len(nodes) != len(indices):
            raise ParallelError(
                f"task_nodes has {len(nodes)} entries for {len(indices)} tasks"
            )
    count = len(indices)

    entry_time = wall_clock()
    starts = [0.0] * count
    ends = [0.0] * count
    lanes = network.begin_phase(count, profile)

    def task(position: int):
        starts[position] = wall_clock()
        try:
            with use(config), network.bind_lane(lanes[position]):
                return fn(indices[position])
        finally:
            ends[position] = wall_clock()

    injected = injector is not None and any(node is not None for node in nodes)
    if not injected:
        guarded = task
    else:

        def guarded(position: int):
            node = nodes[position]
            if node is not None:
                try:
                    injector.maybe_crash(node)
                except NodeCrashError as error:
                    return _CrashedTask(error)
            return task(position)

    try:
        results = executor.map(guarded, range(count))
        map_end = wall_clock()
        if injected:
            restarts: dict[int, int] = {}
            for position, result in enumerate(results):
                while isinstance(result, _CrashedTask):
                    node = nodes[position]
                    attempts = restarts.get(node, 0) + 1
                    restarts[node] = attempts
                    if attempts > injector.plan.max_node_restarts:
                        raise FaultExhaustedError(
                            f"node {node} crashed entering phase "
                            f"{injector.phase} and stayed down past the "
                            f"restart budget of "
                            f"{injector.plan.max_node_restarts}",
                            node=node,
                            attempts=attempts,
                        ) from result.error
                    injector.record_restart(node)
                    try:
                        injector.maybe_crash(node)
                    except NodeCrashError as error:
                        result = _CrashedTask(error)
                        continue
                    # Re-execute from the last barrier, inline on the
                    # coordinator, into the task's original (still
                    # empty) lane so commit order is unchanged.
                    result = task(position)
                results[position] = result
        commit_start = wall_clock()
        network.end_phase()
    except BaseException:
        network.abort_phase()
        raise
    exit_time = wall_clock()
    if profile is not None:
        profile.record_phase_timing(
            {
                "tasks": count,
                "workers": executor.workers,
                "dispatch_seconds": max(0.0, min(starts) - entry_time)
                if count
                else 0.0,
                "kernel_seconds": sum(
                    max(0.0, end - start) for start, end in zip(starts, ends)
                ),
                "barrier_wait_seconds": max(0.0, map_end - max(ends))
                if count
                else 0.0,
                "commit_seconds": exit_time - commit_start,
                "phase_seconds": exit_time - entry_time,
            }
        )
    return results
