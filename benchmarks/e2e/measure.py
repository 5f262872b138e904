"""One workload, measured in this process.

:func:`run_workload` sets the workload up (several times, for a median
set-up time), computes the references, warms every algorithm, then
spends the measured seconds on operator runs and on the closed-loop
query mix, checking every operation's output as it goes.  With
``trace`` off it returns the end-to-end metrics; with ``trace`` on it
alternates untraced and traced samples and returns the per-layer
metrics.
"""

from __future__ import annotations

import itertools
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import trace as spans
from repro.cluster.cluster import Cluster
from repro.errors import ReproError
from repro.joins.base import JoinSpec
from repro.joins.registry import create
from repro.parallel import chunks
from repro.query import compile_plan
from repro.serve.service import QueryRequest, QueryService
from repro.timing import paper_cluster_2014
from repro.workloads import Workload
from workloads import (
    ALGORITHMS,
    EXTRA_ALGORITHMS,
    PREFIX,
    QUERY_NODES,
    SMOKE_SCALE,
    WORKLOADS,
    WorkloadConfig,
    query_plans,
    query_tables,
    reference_cardinality,
)

__all__ = ["run_workload"]

clock = time.perf_counter

#: Closed-loop clients of the query mix (and driver threads serving them).
CLIENTS = 2
#: Queries per measured round of the mix; ``queries_per_s`` is the
#: median over rounds of this many queries divided by the round's wall.
ROUND_QUERIES = 100
#: Unrecorded queries before the first measured round.
WARMUP_QUERIES = 100
#: A client gives up on one query after this many seconds.
QUERY_TIMEOUT = 60.0

#: Layers each algorithm's spans are reported under; the first is the
#: root's own module.  A span in any other layer counts as the root's
#: self time, so the layers still add up to the run.
_TJ_LAYERS = (
    "core.track_join",
    "core.tracking",
    "core.schedule",
    "exchange.locations",
    "exchange.selective",
    "exchange.migrate",
    "exchange.gather",
    "cluster.network",
    "timing.profile",
    "storage.table",
    "joins.local",
    "util",
)
LAYERS = {
    "HJ": (
        "joins.grace_hash",
        "exchange.shuffle",
        "exchange.gather",
        "cluster.network",
        "timing.profile",
        "storage.table",
        "joins.local",
    ),
    "4TJ": _TJ_LAYERS,
    "4TJ-shard": _TJ_LAYERS + ("core.skew",),
}


class Checker:
    """Counts operations and the ones whose output was wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(problems)


def _median(values) -> float:
    return float(statistics.median(values))


def _spread(values) -> float:
    """Interquartile range as a share of the median (0 under 2 values)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return float((high - low) / statistics.median(values))


def _ledger_signature(ledger) -> tuple[dict, dict]:
    """Goodput bytes by class and by link, zero entries dropped."""
    return (
        {category.value: nbytes for category, nbytes in ledger.by_class.items() if nbytes},
        {link: nbytes for link, nbytes in ledger.by_link.items() if nbytes},
    )


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


@dataclass
class Setup:
    workload: Workload
    tables: dict
    service: QueryService


def _build_setup(name: str, config: WorkloadConfig, seed: int, scale: int) -> Setup:
    """Generate and place every table, and start the query service."""
    tables = query_tables(seed, scale)
    if config.build is None:
        orders, items = tables.values()
        workload = Workload(name, Cluster(QUERY_NODES), orders, items)
    else:
        workload = config.build(seed, scale)
    service = QueryService(
        tables, workers=1, backend="thread", max_inflight=CLIENTS, max_queue=2 * CLIENTS
    )
    return Setup(workload, tables, service)


def _timed_setup(name: str, config: WorkloadConfig, seed: int, scale: int):
    """Set up at least 3 times (more while cheap); median seconds."""
    times: list[float] = []
    setup = None
    while len(times) < 3 or (len(times) < 15 and sum(times) < 1.0):
        if setup is not None:
            setup.service.close()
        start = clock()
        setup = _build_setup(name, config, seed, scale)
        times.append(clock() - start)
    return setup, times


# ---------------------------------------------------------------------------
# Operator runs
# ---------------------------------------------------------------------------


@dataclass
class ColdRun:
    """The first, serial run of one algorithm: the ledger reference."""

    seconds: float
    signature: tuple[dict, dict]
    net_bytes: float
    max_recv_bytes: float
    modelled_s: float
    messages: int
    class_bytes: dict[str, float]


@dataclass
class TracedRuns:
    """Traced samples of one algorithm."""

    seconds: list[float] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)
    counts: list[dict] = field(default_factory=list)
    #: Tracer of the last sample; its spans are written out with ``--out``.
    last: spans.Tracer | None = None


class JoinBench:
    """Timed, checked ``create(alg).run(...)`` samples over one input."""

    def __init__(self, config: WorkloadConfig, workload: Workload, checker: Checker):
        self.config = config
        self.workload = workload
        self.checker = checker
        self.expected_rows = reference_cardinality(workload.table_r, workload.table_s)
        claimed = workload.expected_output_rows
        if claimed is not None and claimed != self.expected_rows:
            checker.record(
                [f"generator expects {claimed} rows, numpy reference {self.expected_rows}"]
            )
        self.cold: dict[str, ColdRun] = {}
        #: Per algorithm, the phase-timing totals of every untraced run.
        self.timings: dict[str, list[dict]] = {}

    @property
    def tuples(self) -> int:
        return self.workload.table_r.total_rows + self.workload.table_s.total_rows

    def configure(self, workers: int) -> None:
        """Phase workers, pipeline depth and kernel workers, together."""
        cluster = self.workload.cluster
        cluster.set_workers(workers)
        cluster.set_pipeline_depth(workers)
        chunks.set_kernel_workers(workers)

    def reset(self) -> None:
        """Back to the serial engine and the default kernel-worker rule."""
        self.configure(1)
        chunks.set_kernel_workers(None)

    def _run(self, algorithm: str):
        workload = self.workload
        start = clock()
        result = create(algorithm).run(
            workload.cluster, workload.table_r, workload.table_s, self.config.spec
        )
        return clock() - start, result

    def _check(self, algorithm: str, result) -> None:
        problems = []
        if result.output_rows != self.expected_rows:
            problems.append(
                f"{algorithm}: {result.output_rows} output rows, reference {self.expected_rows}"
            )
        if result.traffic.retransmit_bytes:
            problems.append(f"{algorithm}: fault-free run booked retransmit bytes")
        cold = self.cold.get(algorithm)
        if cold is not None and _ledger_signature(result.traffic) != cold.signature:
            problems.append(f"{algorithm}: ledger differs from the first serial run")
        self.checker.record(problems)

    def cold_pass(self, algorithms) -> None:
        """First run of each algorithm, serial: fills caches and references."""
        nodes = self.workload.cluster.num_nodes
        for algorithm in algorithms:
            seconds, result = self._run(algorithm)
            self._check(algorithm, result)
            traffic = result.traffic
            self.cold[algorithm] = ColdRun(
                seconds=seconds,
                signature=_ledger_signature(traffic),
                net_bytes=traffic.total_bytes,
                max_recv_bytes=traffic.max_received_bytes,
                modelled_s=paper_cluster_2014(nodes).total_seconds(result.profile),
                messages=traffic.message_count,
                class_bytes=traffic.breakdown(),
            )

    def sample(self, algorithm: str, keep_timings: bool = True) -> float:
        """Seconds per run over this algorithm's back-to-back repeats."""
        repeats = self.config.repeats.get(algorithm, 1)
        total = 0.0
        for _ in range(repeats):
            seconds, result = self._run(algorithm)
            total += seconds
            self._check(algorithm, result)
            if keep_timings:
                self.timings.setdefault(algorithm, []).append(result.profile.timing_totals())
        return total / repeats

    def traced_sample(self, algorithm: str, into: TracedRuns) -> None:
        """One sample under the tracer; same checks as an untraced one."""
        with spans.tracing() as tracer:
            seconds = self.sample(algorithm, keep_timings=False)
        runs = len(tracer.roots())
        into.seconds.append(seconds)
        into.layers.append(
            {
                layer: (self_s / runs, calls / runs)
                for layer, (self_s, calls) in tracer.by_layer().items()
            }
        )
        into.counts.append({name: value / runs for name, value in tracer.counts.items()})
        into.last = tracer


def _rounds(seconds: float, max_rounds: int | None, one_round) -> int:
    """Call ``one_round`` until the seconds are used; returns the count."""
    start = clock()
    rounds = 0
    while True:
        round_start = clock()
        one_round()
        rounds += 1
        now = clock()
        if max_rounds is None:
            # Stop where another round would overshoot more than it undershoots.
            done = now - start + 0.5 * (now - round_start) >= seconds
        else:
            done = rounds >= max_rounds
        if done:
            return rounds


# ---------------------------------------------------------------------------
# Query mix
# ---------------------------------------------------------------------------


class QueryBench:
    """Closed loop of :data:`CLIENTS` clients over the nine plans."""

    def __init__(self, setup: Setup, checker: Checker):
        self.service = setup.service
        self.plans = query_plans(setup.tables)
        self.spec = JoinSpec()
        self.checker = checker
        self.reference: list[tuple[int, float]] = []
        self.compile_ms: list[float] = []
        self.solo_ms: list[float] = []
        self.issued = 0
        self.recording = False
        #: Per recorded query: its round, the client's latency, then the
        #: service's own queue, run and total seconds.
        self.records: list[tuple[int, float, float, float, float]] = []
        self.round_walls: list[float] = []

    def prepare(self) -> None:
        """Cold compile and solo reference per plan, then solo timings."""
        for plan in self.plans:
            start = clock()
            physical = compile_plan(plan)
            self.compile_ms.append((clock() - start) * 1e3)
            result = physical.run(Cluster(QUERY_NODES), self.spec)
            self.reference.append((result.output_rows, result.network_bytes))
        for plan, reference in zip(self.plans, self.reference):
            physical = compile_plan(plan)
            start = clock()
            result = physical.run(Cluster(QUERY_NODES), self.spec)
            self.solo_ms.append((clock() - start) * 1e3)
            problems = []
            if (result.output_rows, result.network_bytes) != reference:
                problems.append("solo rerun of a plan changed its rows or bytes")
            self.checker.record(problems)

    def round(self, queries: int) -> None:
        """``queries`` queries, shared by the clients; checks each outcome."""
        counter = itertools.count(self.issued)
        limit = self.issued + queries
        self.issued = limit
        done: list[tuple] = []
        errors: list[BaseException] = []

        def client() -> None:
            try:
                while True:
                    index = next(counter)
                    if index >= limit:
                        return
                    plan = index % len(self.plans)
                    request = QueryRequest(plan=self.plans[plan], spec=self.spec, tag=str(index))
                    start = clock()
                    try:
                        outcome = self.service.submit(request).outcome(QUERY_TIMEOUT)
                    except ReproError as error:  # rejected, or the wait timed out
                        done.append((plan, clock() - start, repr(error), None))
                        continue
                    latency = clock() - start
                    problem = None
                    if not outcome.ok:
                        problem = repr(outcome.error)
                    else:
                        observed = (outcome.result.output_rows, outcome.result.network_bytes)
                        if observed != self.reference[plan]:
                            problem = f"rows/bytes {observed}, solo {self.reference[plan]}"
                    served = (outcome.queue_seconds, outcome.run_seconds, outcome.total_seconds)
                    done.append((plan, latency, problem, served))
            except BaseException as error:  # re-raised on the main thread below
                errors.append(error)

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        start = clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = clock() - start
        if errors:
            raise errors[0]
        for plan, latency, problem, served in done:
            self.checker.record([f"query plan {plan}: {problem}"] if problem else [])
            if self.recording and served is not None:
                self.records.append((len(self.round_walls), latency, *served))
        if self.recording:
            self.round_walls.append(wall)

    def measure(self, seconds: float, max_rounds: int | None) -> None:
        """Warm up unrecorded, then record rounds until the seconds are used."""
        smoke = max_rounds is not None
        queries = ROUND_QUERIES // 4 if smoke else ROUND_QUERIES
        self.round(queries if smoke else WARMUP_QUERIES)
        self.recording = True
        _rounds(seconds, max_rounds, lambda: self.round(queries))
        self.recording = False

    def column(self, index: int) -> np.ndarray:
        return np.array([record[index] for record in self.records])

    def round_percentiles(self, percentile: float) -> list[float]:
        """The client-latency percentile of each measured round."""
        rounds = self.column(0)
        latencies = self.column(1)
        return [
            float(np.percentile(latencies[rounds == index], percentile))
            for index in range(len(self.round_walls))
        ]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _end_to_end(setup_times, joins: JoinBench, samples, queries: QueryBench) -> dict:
    tuples = joins.tuples
    cold = joins.cold
    latencies_ms = queries.column(1) * 1e3
    round_queries = len(queries.records) / len(queries.round_walls)
    return {
        "setup_s": (_median(setup_times), "s"),
        "tj4_tuples_per_s": (tuples / _median(samples["4TJ"]), "1/s"),
        "hj_tuples_per_s": (tuples / _median(samples["HJ"]), "1/s"),
        "shard_tuples_per_s": (tuples / _median(samples["4TJ-shard"]), "1/s"),
        "tj4_net_bytes": (cold["4TJ"].net_bytes, "B"),
        "tj4_bytes_vs_hj": (cold["4TJ"].net_bytes / cold["HJ"].net_bytes, "ratio"),
        "tj4_max_recv_bytes": (cold["4TJ"].max_recv_bytes, "B"),
        "shard_max_recv_bytes": (cold["4TJ-shard"].max_recv_bytes, "B"),
        # Its own unit: simulated seconds, not host time.
        "tj4_modelled_s": (cold["4TJ"].modelled_s, "sim_s"),
        "queries_per_s": (_median([round_queries / wall for wall in queries.round_walls]), "1/s"),
        "query_p50_ms": (float(np.percentile(latencies_ms, 50)), "ms"),
        "query_p95_ms": (float(np.percentile(latencies_ms, 95)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _representative(traced: TracedRuns) -> int:
    """Index of the traced sample whose run time is the (lower) median."""
    order = sorted(range(len(traced.seconds)), key=traced.seconds.__getitem__)
    return order[(len(order) - 1) // 2]


def _per_layer(joins, samples, serial_tj4, traced, queries, checker) -> dict:
    metrics: dict[str, tuple[float, str]] = {}
    cold = joins.cold
    for algorithm in ALGORITHMS:
        prefix = PREFIX[algorithm]
        runs = traced[algorithm]
        pick = _representative(runs)
        if any(counts != runs.counts[0] for counts in runs.counts):
            checker.record([f"{algorithm}: traced counts differ between runs"])
        layers = dict(runs.layers[pick])
        counts = runs.counts[pick]
        root_layer, *inner = LAYERS[algorithm]
        root_s = sum(self_s for self_s, _ in layers.values())
        own_s, own_calls = layers.pop(spans.ROOT)
        for layer in inner:
            self_s, calls = layers.pop(layer, (0.0, 0))
            metrics[f"{prefix}.{layer}.self_s"] = (self_s, "s")
            metrics[f"{prefix}.{layer}.calls"] = (calls, "count")
        own_s += sum(self_s for self_s, _ in layers.values())  # layers outside the list
        metrics[f"{prefix}.{root_layer}.self_s"] = (own_s, "s")
        metrics[f"{prefix}.{root_layer}.calls"] = (own_calls, "count")
        metrics[f"{prefix}.cluster.network.send_calls"] = (counts["network.send_calls"], "count")
        metrics[f"{prefix}.cluster.network.messages"] = (cold[algorithm].messages, "count")
        metrics[f"{prefix}.joins.local.rows_out"] = (counts["local.rows_out"], "count")
        for short in ("dispatch", "kernel", "barrier_wait", "commit"):
            values = [timing[f"{short}_seconds"] for timing in joins.timings[algorithm]]
            metrics[f"{prefix}.parallel.{short}_s"] = (_median(values), "s")
        untraced = _median(samples[algorithm])
        metrics[f"{prefix}.cold_run_s"] = (cold[algorithm].seconds, "s")
        metrics[f"{prefix}.trace.unattributed_share"] = (own_s / root_s, "ratio")
        metrics[f"{prefix}.trace.overhead_share"] = (
            (_median(runs.seconds) - untraced) / untraced,
            "ratio",
        )
        if algorithm == "4TJ":
            tuple_bytes = cold["4TJ"].class_bytes["r_tuples"] + cold["4TJ"].class_bytes["s_tuples"]
            metrics["tj4.core.tracking.keys"] = (counts["tracking.keys"], "count")
            metrics["tj4.core.tracking.entries"] = (counts["tracking.entries"], "count")
            metrics["tj4.core.tracking.bytes"] = (cold["4TJ"].class_bytes["keys_counts"], "B")
            metrics["tj4.core.schedule.keys_rs"] = (counts["schedule.keys_rs"], "count")
            metrics["tj4.core.schedule.entries_migrating"] = (
                counts["schedule.entries_migrating"],
                "count",
            )
            metrics["tj4.exchange.locations.bytes"] = (cold["4TJ"].class_bytes["keys_nodes"], "B")
            metrics["tj4.exchange.migrate.bytes"] = (counts["migrate.bytes"], "B")
            metrics["tj4.exchange.selective.bytes"] = (tuple_bytes - counts["migrate.bytes"], "B")
        if algorithm == "4TJ-shard":
            metrics["shard.core.skew.keys_sharded"] = (counts["skew.keys_sharded"], "count")
    metrics["tj4.parallel.speedup_vs_serial"] = (
        _median(serial_tj4) / _median(samples["4TJ"]),
        "ratio",
    )
    for algorithm in EXTRA_ALGORITHMS:
        metrics[f"{PREFIX[algorithm]}.run_s"] = (_median(samples[algorithm]), "s")
    stats = queries.service.stats()
    metrics["serve.queue_wait_ms_p50"] = (float(np.percentile(queries.column(2), 50)) * 1e3, "ms")
    metrics["serve.run_ms_p50"] = (float(np.percentile(queries.column(3), 50)) * 1e3, "ms")
    metrics["serve.latency_p99_ms"] = (float(np.percentile(queries.column(4), 99)) * 1e3, "ms")
    metrics["serve.cache_hit_rate"] = (stats["cache"]["hit_rate"], "ratio")
    metrics["serve.rejected"] = (stats["service"]["rejected"], "count")
    metrics["query.compile_ms"] = (_median(queries.compile_ms), "ms")
    metrics["query.solo_run_ms"] = (_median(queries.solo_ms), "ms")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Measure one workload; returns the result record."""
    config = WORKLOADS[name]
    scale = SMOKE_SCALE if smoke else 1
    max_rounds = 2 if smoke else None
    checker = Checker()
    setup, setup_times = _timed_setup(name, config, seed, scale)
    joins = JoinBench(config, setup.workload, checker)
    queries = QueryBench(setup, checker)
    timed = ALGORITHMS + (EXTRA_ALGORITHMS if trace else ())
    samples: dict[str, list[float]] = {algorithm: [] for algorithm in timed}
    traced = {algorithm: TracedRuns() for algorithm in ALGORITHMS}
    serial_tj4: list[float] = []

    def one_round() -> None:
        for algorithm in timed:
            samples[algorithm].append(joins.sample(algorithm))
            if trace and algorithm in traced:
                joins.traced_sample(algorithm, traced[algorithm])
        if trace and config.workers > 1:
            joins.configure(1)
            serial_tj4.append(joins.sample("4TJ"))
            joins.configure(config.workers)

    try:
        queries.prepare()
        try:
            joins.cold_pass(timed)
            joins.configure(config.workers)
            for algorithm in timed:  # second warm-up round, as configured
                joins.sample(algorithm)
            joins.timings.clear()
            join_seconds = seconds * (1.0 - config.query_share)
            rounds = _rounds(join_seconds, max_rounds, one_round)
        finally:
            joins.reset()
        queries.measure(seconds - join_seconds, max_rounds)
        if trace:
            metrics = _per_layer(
                joins, samples, serial_tj4 or samples["4TJ"], traced, queries, checker
            )
        else:
            metrics = _end_to_end(setup_times, joins, samples, queries)
    finally:
        setup.service.close()

    detail = {
        "join_rounds": rounds,
        "query_rounds": len(queries.round_walls),
        "queries": len(queries.records),
        "setups": len(setup_times),
        "tuples": joins.tuples,
        "output_rows": joins.expected_rows,
        "spread": {
            "setup_s": _spread(setup_times),
            "queries_per_s": _spread(queries.round_walls),
            "query_p50_ms": _spread(queries.round_percentiles(50)),
            "query_p95_ms": _spread(queries.round_percentiles(95)),
            **{
                f"{PREFIX[algorithm]}_tuples_per_s": _spread(samples[algorithm])
                for algorithm in ALGORITHMS
            },
        },
        "samples": {PREFIX[algorithm]: values for algorithm, values in samples.items()},
        "failures": checker.messages[:20],
    }
    if trace:
        detail["spans"] = {PREFIX[a]: traced[a].last.spans() for a in ALGORITHMS}
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()
        },
        "detail": detail,
    }
