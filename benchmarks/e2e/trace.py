"""Outside-in span tracer for the per-layer metrics.

The program under test has no tracing of its own, so the benchmark
records spans from here: :func:`tracing` wraps a fixed table of public
entry points (:data:`ENTRY_POINTS`), each standing for one layer
boundary, and restores the originals in ``finally``.  Nothing under
``src/`` is edited, and an untraced run executes unwrapped code.

Every span has a name (the entry point), a start, an end and a parent.
A span's *self time* is its duration minus its child spans' durations,
so the self times of one run add up to the root span
(``DistributedJoin.run``) exactly; whatever the table does not wrap
stays in the root's self time, which is the operator's own glue.

Spans are recorded on the thread that opened the tracer only.  With
phase workers on, per-node tasks run on pool threads; their calls pass
straight through and their time shows as self time of the enclosing
coordinator span.  Counts (``Tracer.counts``) are taken on every
thread, under a lock, so they stay exact for any worker count.
"""

from __future__ import annotations

import importlib
import threading
import time
from contextlib import contextmanager

__all__ = ["ENTRY_POINTS", "ROOT", "TraceError", "Tracer", "tracing"]

#: Layer label of the root span; the caller maps it to the operator's
#: own module (``core.track_join`` or ``joins.grace_hash``).
ROOT = "root"


class TraceError(RuntimeError):
    """An entry point of the table is missing from the program."""


def _tuple_bytes(ledger) -> float:
    return sum(
        nbytes
        for category, nbytes in ledger.by_class.items()
        if category.value in ("r_tuples", "s_tuples")
    )


# Count probes.  ``before`` probes see the call's positional arguments,
# ``after`` probes its return value; both add into ``Tracer.counts``.


def _after_tracking(counts, table) -> None:
    counts["tracking.keys"] += table.num_keys
    counts["tracking.entries"] += table.num_entries


def _after_schedules(counts, schedules) -> None:
    counts["schedule.keys_rs"] += int(schedules.direction_rs.sum())
    counts["schedule.entries_migrating"] += int(schedules.migrate.sum())


def _after_attach_shards(counts, schedules) -> None:
    if schedules.sharded is not None:
        counts["skew.keys_sharded"] += int(schedules.sharded.sum())


def _before_absorb(counts, args) -> None:
    # absorb_received is the consolidation barrier: every migration
    # send is committed by now (also under pipelining, whose window
    # closes before this call) and no selective broadcast has started,
    # so the tuple bytes in the ledger are exactly the migrated bytes.
    counts["migrate.bytes"] += _tuple_bytes(args[0].network.ledger)


def _after_local_join(counts, joined) -> None:
    counts["local.rows_out"] += joined.num_rows


def _after_send(counts, _result) -> None:
    counts["network.send_calls"] += 1


#: (module, attribute path, layer, before probe, after probe).  Module
#: functions are wrapped where the operator modules bind them, so only
#: the operators' calls are spans.
ENTRY_POINTS = (
    ("repro.joins.base", "DistributedJoin.run", ROOT, None, None),
    ("repro.core.track_join", "run_tracking_phase", "core.tracking", None, _after_tracking),
    ("repro.core.track_join", "generate_schedules", "core.schedule", None, _after_schedules),
    ("repro.core.skew", "generate_schedules", "core.schedule", None, _after_schedules),
    ("repro.core.skew", "plan_shards", "core.skew", None, None),
    ("repro.core.skew", "attach_shards", "core.skew", None, _after_attach_shards),
    ("repro.core.track_join", "local_join", "joins.local", None, _after_local_join),
    ("repro.joins.grace_hash", "local_join", "joins.local", None, _after_local_join),
    ("repro.core.track_join", "absorb_received", "exchange.gather", _before_absorb, None),
    ("repro.core.track_join", "segmented_cartesian", "util", None, None),
    ("repro.exchange.locations", "LocationExchange.run", "exchange.locations", None, None),
    ("repro.exchange.selective", "SelectiveBroadcast.run", "exchange.selective", None, None),
    ("repro.exchange.migrate", "Migrate.run", "exchange.migrate", None, None),
    ("repro.exchange.migrate", "ShardedMigrate.run", "exchange.migrate", None, None),
    ("repro.exchange.shuffle", "Shuffle.run", "exchange.shuffle", None, None),
    ("repro.exchange.shuffle", "Shuffle.scatter", "exchange.shuffle", None, None),
    ("repro.exchange.gather", "Gather.run", "exchange.gather", None, None),
    ("repro.cluster.network", "Network.send", "cluster.network", None, _after_send),
    ("repro.cluster.network", "Network.send_batches", "cluster.network", None, None),
    ("repro.cluster.network", "Network.deliver", "cluster.network", None, None),
    ("repro.cluster.network", "Network.deliver_all", "cluster.network", None, None),
    ("repro.cluster.network", "Network.begin_phase", "cluster.network", None, None),
    ("repro.cluster.network", "Network.end_phase", "cluster.network", None, None),
    ("repro.timing.profile", "ExecutionProfile.add_cpu", "timing.profile", None, None),
    ("repro.timing.profile", "ExecutionProfile.add_cpu_at", "timing.profile", None, None),
    ("repro.timing.profile", "ExecutionProfile.add_net", "timing.profile", None, None),
    ("repro.timing.profile", "ExecutionProfile.add_net_at", "timing.profile", None, None),
    ("repro.timing.profile", "ExecutionProfile.add_local", "timing.profile", None, None),
    ("repro.timing.profile", "ExecutionProfile.record_network_load", "timing.profile", None, None),
    ("repro.storage.table", "LocalPartition.distinct_with_counts", "storage.table", None, None),
    ("repro.storage.table", "LocalPartition.distinct_scatter_plan", "storage.table", None, None),
    ("repro.storage.table", "LocalPartition.split_by", "storage.table", None, None),
    ("repro.storage.table", "LocalPartition.hash_split", "storage.table", None, None),
    ("repro.storage.table", "LocalPartition.key_index", "storage.table", None, None),
    ("repro.storage.table", "LocalPartition.take", "storage.table", None, None),
    ("repro.storage.table", "LocalPartition.concat", "storage.table", None, None),
)

COUNT_NAMES = (
    "tracking.keys",
    "tracking.entries",
    "schedule.keys_rs",
    "schedule.entries_migrating",
    "skew.keys_sharded",
    "migrate.bytes",
    "local.rows_out",
    "network.send_calls",
)


class Tracer:
    """Spans and counts of the runs made while it is installed."""

    def __init__(self) -> None:
        self.thread = threading.get_ident()
        self.lock = threading.Lock()
        self.counts: dict[str, float] = dict.fromkeys(COUNT_NAMES, 0)
        # One entry per span, in opening order.
        self.names: list[str] = []
        self.layers: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._current = -1

    def wrap(self, fn, name: str, layer: str, before, after):
        """``fn`` with a span around it (and its count probes)."""
        clock = time.perf_counter
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if before is not None:
                with self.lock:
                    before(self.counts, args)
            if get_ident() != self.thread:
                result = fn(*args, **kwargs)  # pool thread: counts only, no span
            else:
                index = len(self.starts)
                parent = self._current
                self._current = index
                self.names.append(name)
                self.layers.append(layer)
                self.parents.append(parent)
                self.ends.append(0.0)
                self.starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.ends[index] = clock()
                    self._current = parent
            if after is not None:
                with self.lock:
                    after(self.counts, result)
            return result

        return traced

    def roots(self) -> list[int]:
        """Indices of the root spans (one per traced operator run)."""
        return [i for i, parent in enumerate(self.parents) if parent < 0]

    def root_seconds(self) -> float:
        """Summed duration of the root spans."""
        return sum(self.ends[i] - self.starts[i] for i in self.roots())

    def by_layer(self) -> dict[str, tuple[float, int]]:
        """``layer -> (self seconds, calls)`` over every recorded span."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[index]
        totals: dict[str, tuple[float, int]] = {}
        for layer, duration, inner in zip(self.layers, durations, child):
            seconds, calls = totals.get(layer, (0.0, 0))
            totals[layer] = (seconds + duration - inner, calls + 1)
        return totals

    def spans(self) -> list[dict]:
        """The spans as records, for writing out when the run ends."""
        return [
            {"name": name, "layer": layer, "start": start, "end": end, "parent": parent}
            for name, layer, start, end, parent in zip(
                self.names, self.layers, self.starts, self.ends, self.parents
            )
        ]


def _resolve(module_name: str, path: str):
    """``(owner, attribute name, raw attribute)`` of one entry point."""
    try:
        owner = importlib.import_module(module_name)
        *holders, name = path.split(".")
        for holder in holders:
            owner = vars(owner)[holder]
        return owner, name, vars(owner)[name]
    except (ImportError, KeyError) as error:
        raise TraceError(
            f"traced entry point {module_name}:{path} does not exist ({error!r}); "
            "update benchmarks/e2e/trace.py ENTRY_POINTS in a change of its own"
        ) from error


@contextmanager
def tracing():
    """Install the span wrappers; yields the :class:`Tracer`."""
    tracer = Tracer()
    patched: list[tuple[object, str, object]] = []
    try:
        for module_name, path, layer, before, after in ENTRY_POINTS:
            owner, name, raw = _resolve(module_name, path)
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(tracer.wrap(raw.__func__, path, layer, before, after))
            else:
                wrapper = tracer.wrap(raw, path, layer, before, after)
            setattr(owner, name, wrapper)
            patched.append((owner, name, raw))
        yield tracer
    finally:
        for owner, name, raw in reversed(patched):
            setattr(owner, name, raw)
