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
    "run_fused_phases",
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


def _stage_indices(cluster, tasks) -> Sequence[int]:
    """Resolve one stage's ``tasks`` argument to an index sequence."""
    if tasks is None:
        return range(cluster.num_nodes)
    if isinstance(tasks, int):
        return range(tasks)
    return list(tasks)


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
    return _run_phase_group(
        cluster, [(fn, tasks, task_nodes)], profile=profile, executor=executor
    )[0]


def run_fused_phases(
    cluster,
    stages: Sequence[tuple],
    profile=None,
    executor: PhaseExecutor | None = None,
) -> list[list]:
    """Run several phases' stages under one shared barrier.

    ``stages`` is a sequence of ``(fn, tasks, task_nodes)`` triples, each
    exactly the arguments one :func:`run_phase` call would have taken.
    All stages' tasks are dispatched to the executor together and commit
    at a single barrier, so a later stage's local work overlaps an
    earlier stage's sends — the pipelined-exchange mode
    (:meth:`repro.cluster.cluster.Cluster.pipelined_phases`).

    Deterministic state is preserved exactly as in :func:`run_phase`:
    lanes are committed in stage-major task order, so each category's
    inbox arrival order and the ledger sums match the strict
    phase-per-stage execution.  (Message sequence numbers and profile
    *step order* may differ from strict mode, which is why pipelining is
    an explicit opt-in.)  Tasks of a fused group must not depend on an
    earlier stage's sends — those are only delivered at the shared
    barrier — nor on its results.

    Fault injection requires strict phase sequencing, so fusing more
    than one stage while a fault plan is installed raises
    :class:`~repro.errors.ParallelError`; callers gate on
    ``cluster.pipeline_active()``.

    Returns one result list per stage, in stage order.
    """
    return _run_phase_group(cluster, stages, profile=profile, executor=executor)


def _run_phase_group(
    cluster,
    stages: Sequence[tuple],
    profile=None,
    executor: PhaseExecutor | None = None,
) -> list[list]:
    executor = executor or cluster.executor
    config = cluster.config
    network = cluster.network
    injector = getattr(network, "faults", None)
    if injector is not None and len(stages) > 1:
        raise ParallelError(
            "cannot fuse phases while a fault plan is installed; "
            "pipelining must fall back to strict barriers under faults"
        )

    # Flatten stage tasks into global lane positions, stage-major: the
    # barrier commits lanes in this order, which equals the order the
    # strict per-stage execution would have committed them in.
    stage_indices: list[Sequence[int]] = []
    stage_offsets: list[int] = []
    flat_fns: list[Callable[[int], object]] = []
    nodes: list[int | None] = []
    count = 0
    for fn, tasks, task_nodes in stages:
        indices = _stage_indices(cluster, tasks)
        if task_nodes is not None:
            task_nodes = list(task_nodes)
            if len(task_nodes) != len(indices):
                raise ParallelError(
                    f"task_nodes has {len(task_nodes)} entries "
                    f"for {len(indices)} tasks"
                )
            nodes.extend(task_nodes)
        elif tasks is None:
            nodes.extend(indices)
        else:
            nodes.extend([None] * len(indices))
        stage_indices.append(indices)
        stage_offsets.append(count)
        flat_fns.append(fn)
        count += len(indices)

    entry_time = wall_clock()
    starts = [0.0] * count
    ends = [0.0] * count
    lanes = network.begin_phase(count, profile)

    def position_stage(position: int) -> int:
        stage = len(stage_offsets) - 1
        while stage_offsets[stage] > position:
            stage -= 1
        return stage

    def task(position: int):
        stage = position_stage(position)
        fn = flat_fns[stage]
        index = stage_indices[stage][position - stage_offsets[stage]]
        starts[position] = wall_clock()
        try:
            with use(config), network.bind_lane(lanes[position]):
                return fn(index)
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
                "stages": len(stages),
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
    return [
        results[offset : offset + len(indices)]
        for offset, indices in zip(stage_offsets, stage_indices)
    ]
