"""Warm executor pool: spawn phase workers once, reuse across queries.

Before the serve layer existed, every query paid worker-pool
construction on its critical path: each :class:`~repro.cluster.cluster.Cluster`
resolved its own :class:`~repro.parallel.executor.PhaseExecutor`, so a
thread pool was spawned per query and torn down with it.
:class:`WarmExecutorPool` lifts that ownership out of per-query
lifetimes: the pool resolves and warms one executor at service start,
and every query's cluster borrows it through a :class:`SharedExecutor`
handle whose ``close()`` is a no-op — per-query dispatch cost drops to
task submission.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

from ..cluster.sanitizer import shared_key, track_shared
from ..errors import ParallelError
from ..parallel.config import current
from ..parallel.executor import PhaseExecutor, resolve_executor

__all__ = ["SharedExecutor", "WarmExecutorPool"]


class SharedExecutor(PhaseExecutor):
    """Borrowed view of a pooled executor.

    Delegates :meth:`map` to the pool's executor but neuters
    ``close()``: a cluster that swaps executors (``set_workers``) or a
    query that finishes must never tear down workers other queries are
    using.  Only :meth:`WarmExecutorPool.shutdown` releases the real
    pool.  Dispatch is lock-free, so concurrent queries multiplex onto
    one worker set.
    """

    def __init__(self, inner: PhaseExecutor):
        self._inner = inner
        self._dispatch_lock = threading.Lock()
        self._track = shared_key("serve.pool.dispatch")
        self.dispatches = 0
        self.tasks = 0

    @property
    def workers(self) -> int:  # type: ignore[override]
        return self._inner.workers

    def map(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        with self._dispatch_lock:
            track_shared(
                self._track, write=True, locks=(self._dispatch_lock,)
            )
            self.dispatches += 1
            self.tasks += len(items)
        return self._inner.map(fn, items)

    def snapshot(self) -> tuple[int, int]:
        """(dispatches, tasks) read atomically under the dispatch lock.

        Concurrent drivers increment both counters under
        ``_dispatch_lock``; reading them bare could observe one counter
        from before a dispatch and the other from after it (REP009).
        """
        with self._dispatch_lock:
            track_shared(
                self._track, write=False, locks=(self._dispatch_lock,)
            )
            return self.dispatches, self.tasks

    def close(self) -> None:
        """No-op: the owning :class:`WarmExecutorPool` releases workers."""


class WarmExecutorPool:
    """A spawn-once :class:`PhaseExecutor` shared by many queries.

    Parameters
    ----------
    workers:
        Worker count; ``None`` takes the ``workers`` of the config in
        scope (:func:`repro.parallel.current`).  More than one worker
        is a thread pool, spawned at construction so the first query
        never pays pool start-up.  One worker resolves to the inline
        serial executor: queries then run their phases inline on
        whichever service thread drives them, which is the fastest
        configuration for small queries (concurrency comes from the
        service's in-flight query drivers instead).

    The pool is a context manager; leaving the ``with`` block shuts the
    real executor down.
    """

    def __init__(self, workers: int | None = None):
        self._inner = resolve_executor(current().workers if workers is None else workers)
        self.executor = SharedExecutor(self._inner)
        self._lease_lock = threading.Lock()
        self._track = shared_key("serve.pool.leases")
        self.leases = 0
        self._closed = False
        # Pools spawn lazily on first submission; one trivial task per
        # worker builds the full worker set off any query's critical path.
        self._inner.map(_noop, range(self._inner.workers))

    @property
    def workers(self) -> int:
        """Worker count of the pooled executor."""
        return self._inner.workers

    def lease(self) -> SharedExecutor:
        """Borrow the shared executor for one query (or cluster)."""
        # The closed check shares the lease lock: a lease racing a
        # shutdown either sees _closed and raises, or wins the lock
        # first and hands out the executor before close() runs (REP009).
        with self._lease_lock:
            track_shared(self._track, write=True, locks=(self._lease_lock,))
            if self._closed:
                raise ParallelError(
                    "cannot lease from a shut-down WarmExecutorPool"
                )
            self.leases += 1
        return self.executor

    def stats(self) -> dict:
        """Dispatch accounting: leases, phase dispatches, tasks run."""
        with self._lease_lock:
            track_shared(
                self._track, write=False, locks=(self._lease_lock,)
            )
            leases = self.leases
        dispatches, tasks = self.executor.snapshot()
        return {
            "workers": self.workers,
            "leases": leases,
            "dispatches": dispatches,
            "tasks": tasks,
        }

    def shutdown(self) -> None:
        """Release the real worker pool (idempotent)."""
        with self._lease_lock:
            track_shared(self._track, write=True, locks=(self._lease_lock,))
            self._closed = True
        self._inner.close()

    def __enter__(self) -> "WarmExecutorPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def _noop(_: int) -> None:
    """Warm-up task body."""
    return None
