"""Query execution: logical plans compiled to a physical-operator pipeline.

Execution happens in two stages.  :func:`compile_plan` linearizes a
:mod:`repro.query.plan` tree into a :class:`PhysicalPlan` — a post-order
list of physical operators wired by input indices.  The plan then runs
as a pipeline: every operator goes through an explicit lifecycle of

- ``plan``    — pre-execution decisions: algorithm choice via the
  Section 3 cost model (with per-operator statistics caching) for
  ``algorithm="auto"`` joins;
- ``execute`` — produce the operator's distributed output table
  (joins construct their operator through the registry,
  :mod:`repro.joins.registry`);
- ``account`` — fold the operator's traffic into the query ledger and
  record its :class:`OperatorStats` row.

Intermediate results stay distributed, and the returned
:class:`QueryResult` accounts every byte of the whole query.  The
split lifecycle is what plan-level features hang off: operator
statistics are cached on the run context, and a future adaptive
re-choice can re-enter ``plan`` mid-pipeline.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass, TrafficLedger
from ..costmodel.optimizer import choose_algorithm, fallback_algorithm
from ..costmodel.stats import JoinStats, stats_epoch
from ..errors import FaultExhaustedError, QueryTimeoutError, ReproError
from ..joins.base import JoinResult, JoinSpec
from ..joins.registry import algorithm, algorithm_names, create
from ..joins.semijoin import SemiJoinFilteredJoin
from ..parallel.config import use
from ..storage.schema import Column, Schema
from ..storage.table import DistributedTable, LocalPartition
from ..timing.clock import wall_clock
from ..timing.profile import ExecutionProfile
from .aggregate import run_aggregation
from .plan import Aggregate, Join, PlanNode, Rekey, Scan

__all__ = [
    "QueryResult",
    "OperatorStats",
    "PhysicalPlan",
    "RunContext",
    "compile_plan",
    "execute",
    "table_stats",
    "rekey_table",
]


@dataclass
class OperatorStats:
    """One executed operator's contribution to the query."""

    operator: str
    output_rows: int
    network_bytes: float
    note: str = ""


@dataclass
class QueryResult:
    """Final table plus the query-wide traffic accounting."""

    table: DistributedTable
    traffic: TrafficLedger
    operators: list[OperatorStats] = field(default_factory=list)
    #: Execution profiles of the traffic-producing operators, in
    #: execution order (one per join/aggregate).  Their deterministic
    #: step lists let callers prove a concurrent run matched a solo run.
    profiles: list[ExecutionProfile] = field(default_factory=list)

    @property
    def network_bytes(self) -> float:
        """Total bytes the whole query moved across the network."""
        return self.traffic.total_bytes

    @property
    def output_rows(self) -> int:
        """Rows of the final result."""
        return self.table.total_rows


def table_stats(
    table_r: DistributedTable,
    table_s: DistributedTable,
    spec: JoinSpec,
    sample_rate: float | None = None,
) -> JoinStats:
    """Join statistics measured from two distributed tables.

    With ``sample_rate`` set, statistics come from a key-correlated
    sample (the Section 3.1 technique a real optimizer would use);
    otherwise they are exact, isolating the algorithm-choice logic
    from estimation error.
    """
    keys_r = table_r.all_keys()
    keys_s = table_s.all_keys()
    if sample_rate is not None:
        from ..costmodel.sampling import _sample_mask

        keys_r = keys_r[_sample_mask(keys_r, sample_rate)]
        keys_s = keys_s[_sample_mask(keys_s, sample_rate)]
        if len(keys_r) == 0 or len(keys_s) == 0:
            keys_r = table_r.all_keys()
            keys_s = table_s.all_keys()
            sample_rate = None
    distinct_r = np.unique(keys_r)
    distinct_s = np.unique(keys_s)
    matched = np.intersect1d(distinct_r, distinct_s, assume_unique=True)
    if len(keys_r) and len(matched):
        selectivity_r = float(np.isin(keys_r, matched).mean())
    else:
        selectivity_r = 0.0
    if len(keys_s) and len(matched):
        selectivity_s = float(np.isin(keys_s, matched).mean())
    else:
        selectivity_s = 0.0
    inflate = 1.0 / sample_rate if sample_rate else 1.0
    return JoinStats(
        num_nodes=table_r.num_nodes,
        tuples_r=max(1, len(keys_r)) * inflate,
        tuples_s=max(1, len(keys_s)) * inflate,
        distinct_r=max(1, len(distinct_r)) * inflate,
        distinct_s=max(1, len(distinct_s)) * inflate,
        key_width=table_r.schema.key_width(spec.encoding),
        payload_r=table_r.schema.payload_width(spec.encoding),
        payload_s=table_s.schema.payload_width(spec.encoding),
        selectivity_r=selectivity_r,
        selectivity_s=selectivity_s,
        location_width=spec.location_width,
    )


def _output_column_defs(
    left: DistributedTable, right: DistributedTable
) -> tuple[Column, dict[str, Column]]:
    """Column definitions of a join output: key + prefixed payloads."""
    key_column = left.schema.key_columns[0]
    defs: dict[str, Column] = {}
    for column in left.schema.payload_columns:
        defs["r." + column.name] = Column(
            "r." + column.name,
            bits=column.bits,
            decimal_digits=column.decimal_digits,
            char_length=column.char_length,
        )
    for column in right.schema.payload_columns:
        defs["s." + column.name] = Column(
            "s." + column.name,
            bits=column.bits,
            decimal_digits=column.decimal_digits,
            char_length=column.char_length,
        )
    return key_column, defs


def _join_output_table(
    result: JoinResult,
    left: DistributedTable,
    right: DistributedTable,
    rekey_on: str | None,
) -> DistributedTable:
    """Package a join's output partitions as a distributed table."""
    key_column, defs = _output_column_defs(left, right)
    if result.output is None:
        raise ReproError("query joins need materialize=True in the JoinSpec")
    if rekey_on is None:
        schema = Schema((key_column,), tuple(defs.values()))
        return DistributedTable(f"({left.name}⋈{right.name})", schema, result.output)
    if rekey_on not in defs:
        raise ReproError(
            f"cannot re-key join output on {rekey_on!r}; columns: {sorted(defs)}"
        )
    new_key = defs.pop(rekey_on)
    old_key_name = key_column.name
    payload = (Column(old_key_name, bits=key_column.bits,
                      decimal_digits=key_column.decimal_digits,
                      char_length=key_column.char_length),) + tuple(defs.values())
    schema = Schema((new_key,), payload)
    partitions = []
    for partition in result.output:
        columns = dict(partition.columns)
        new_keys = columns.pop(rekey_on)
        columns[old_key_name] = partition.keys
        partitions.append(LocalPartition(keys=new_keys, columns=columns))
    return DistributedTable(f"({left.name}⋈{right.name})", schema, partitions)


def rekey_table(table: DistributedTable, column: str) -> DistributedTable:
    """Re-key a distributed table on one of its payload columns.

    Node-local: rows stay where they are; only the schema's notion of
    the join key changes, with the old key demoted to a payload column.
    """
    matches = [c for c in table.schema.payload_columns if c.name == column]
    if not matches:
        raise ReproError(
            f"cannot re-key {table.name!r} on unknown column {column!r}; "
            f"payload columns: {[c.name for c in table.schema.payload_columns]}"
        )
    new_key = matches[0]
    old_key = table.schema.key_columns[0]
    payload = (old_key,) + tuple(
        c for c in table.schema.payload_columns if c.name != column
    )
    schema = Schema((new_key,), payload)
    partitions = []
    for partition in table.partitions:
        columns = dict(partition.columns)
        new_keys = columns.pop(column)
        columns[old_key.name] = partition.keys
        partitions.append(LocalPartition(keys=new_keys, columns=columns))
    return DistributedTable(f"rekey({table.name},{column})", schema, partitions)


# ---------------------------------------------------------------------------
# Physical operators
# ---------------------------------------------------------------------------


@dataclass
class ExecutionContext:
    """Per-run state threaded through the operator lifecycle.

    Every mutable per-run value lives here, never on the physical
    operators themselves: a compiled :class:`PhysicalPlan` is an
    immutable artifact that many concurrent runs (each with its own
    context) may execute at once — the plan-cache contract.  Operators
    pass state between their lifecycle steps through :meth:`state`.
    """

    cluster: Cluster
    spec: JoinSpec
    #: Output table of each executed operator, by operator index.
    tables: dict[int, DistributedTable] = field(default_factory=dict)
    #: Query-wide ledger; each operator folds its traffic in at account.
    traffic: TrafficLedger = field(default_factory=TrafficLedger)
    #: OperatorStats rows in execution (post-)order.
    operators: list[OperatorStats] = field(default_factory=list)
    #: Cached join statistics by operator index, so a re-entered plan
    #: step (or a future adaptive re-choice) never re-measures.  A
    #: :class:`RunContext` may supply this dict, making the cache
    #: survive across reruns of the same compiled plan.
    join_stats: dict[int, JoinStats] = field(default_factory=dict)
    #: Per-operator scratch (plan -> execute -> account hand-off),
    #: keyed by operator index.
    scratch: dict[int, dict] = field(default_factory=dict)
    #: Execution profiles of traffic-producing operators, in order.
    profiles: list[ExecutionProfile] = field(default_factory=list)
    #: Optional wall-clock deadline; checked at operator boundaries.
    deadline: float | None = None

    def state(self, index: int) -> dict:
        """This run's scratch dict for the operator at ``index``."""
        return self.scratch.setdefault(index, {})


@dataclass
class RunContext:
    """Reusable cross-run state for a compiled plan.

    A cached :class:`PhysicalPlan` is re-executed many times; this
    object carries what later runs can skip re-deriving:

    - ``join_stats`` — measured per-operator :class:`JoinStats`, shared
      across runs so a cached-plan rerun skips the full-table statistics
      pass.  The dict is invalidated automatically whenever any scanned
      table's statistics epoch moves.
    - ``deadline`` — per-run wall-clock deadline (this field is *not*
      cross-run; the owner sets it before each run).
    """

    join_stats: dict[int, JoinStats] = field(default_factory=dict)
    deadline: float | None = None
    #: Epoch of every scanned table when ``join_stats`` was measured;
    #: maintained by :meth:`PhysicalPlan.run`.
    epoch_signature: tuple | None = None


class PhysicalOperator(abc.ABC):
    """One pipeline stage with a plan → execute → account lifecycle.

    Operators are immutable after compilation: per-run values flow
    through ``ctx.state(self.index)`` so one compiled plan can serve
    concurrent runs (see :class:`ExecutionContext`).
    """

    def __init__(self, index: int, inputs: tuple[int, ...]):
        self.index = index
        self.inputs = inputs

    def plan(self, ctx: ExecutionContext) -> None:
        """Pre-execution decisions; default operators have none."""

    @abc.abstractmethod
    def execute(self, ctx: ExecutionContext) -> None:
        """Produce this operator's table into ``ctx.tables[self.index]``."""

    @abc.abstractmethod
    def account(self, ctx: ExecutionContext) -> None:
        """Fold traffic and stats of the finished execution into ``ctx``."""


class ScanOp(PhysicalOperator):
    """Table scan with an optional node-local selection."""

    def __init__(self, index: int, node: Scan):
        super().__init__(index, ())
        self.node = node

    def execute(self, ctx: ExecutionContext) -> None:
        node = self.node
        state = ctx.state(self.index)
        ctx.cluster.check_table(node.table)
        if node.predicate is None:
            ctx.tables[self.index] = node.table
            state["stats"] = OperatorStats("scan", node.table.total_rows, 0.0)
            return
        partitions = [
            partition.take(node.predicate.mask(partition))
            for partition in node.table.partitions
        ]
        filtered = DistributedTable(
            f"σ({node.table.name})", node.table.schema, partitions
        )
        kept = filtered.total_rows
        selectivity = kept / node.table.total_rows if node.table.total_rows else 0.0
        ctx.tables[self.index] = filtered
        state["stats"] = OperatorStats(
            "scan+filter", kept, 0.0, note=f"selectivity {selectivity:.3f}"
        )

    def account(self, ctx: ExecutionContext) -> None:
        ctx.operators.append(ctx.state(self.index)["stats"])


class JoinOp(PhysicalOperator):
    """Distributed join; the algorithm resolves at plan time."""

    def __init__(self, index: int, inputs: tuple[int, int], node: Join):
        super().__init__(index, inputs)
        self.node = node

    def plan(self, ctx: ExecutionContext) -> None:
        node = self.node
        state = ctx.state(self.index)
        if node.algorithm == "auto":
            stats = ctx.join_stats.get(self.index)
            if stats is None:
                left, right = (ctx.tables[i] for i in self.inputs)
                stats = table_stats(left, right, ctx.spec)
                ctx.join_stats[self.index] = stats
            choice = choose_algorithm(stats)
            state["algorithm"] = choice.algorithm
            state["note"] = f"auto: {choice.algorithm}"
            if choice.note:
                state["note"] += f" ({choice.note})"
        elif node.algorithm in algorithm_names():
            state["algorithm"] = node.algorithm
            state["note"] = "fixed"
        else:
            raise ReproError(
                f"unknown join algorithm {node.algorithm!r}; "
                f"use 'auto' or one of {sorted(algorithm_names())}"
            )

    #: Message classes only tracking-phase operators send; their fault
    #: exhaustion is survivable by degrading to a non-tracking algorithm.
    _TRACKING_CLASSES = (MessageClass.KEYS_COUNTS, MessageClass.KEYS_NODES)

    def execute(self, ctx: ExecutionContext) -> None:
        left, right = (ctx.tables[i] for i in self.inputs)
        try:
            self._run_operator(ctx, left, right)
        except FaultExhaustedError as error:
            fallback = self._degraded_algorithm(ctx, error)
            if fallback is None:
                raise
            ctx.state(self.index)["algorithm"] = fallback
            self._run_operator(ctx, left, right)

    def _run_operator(
        self, ctx: ExecutionContext, left: DistributedTable, right: DistributedTable
    ) -> None:
        state = ctx.state(self.index)
        operator = create(state["algorithm"])
        if self.node.semijoin_filter:
            operator = SemiJoinFilteredJoin(operator)
        state["operator_name"] = operator.name
        state["result"] = operator.run(ctx.cluster, left, right, ctx.spec)
        ctx.tables[self.index] = _join_output_table(
            state["result"], left, right, self.node.rekey_on
        )

    def _degraded_algorithm(
        self, ctx: ExecutionContext, error: FaultExhaustedError
    ) -> str | None:
        """Graceful degradation: the cheapest non-tracking fallback.

        Applies only when the exhausted traffic is a tracking message
        class and the chosen operator actually has a tracking phase — a
        poisoned tuple class or a crash would fail any algorithm, so
        those exhaustions propagate.  The fallback re-runs the join from
        scratch (``DistributedJoin.run`` resets the cluster, rewinding
        the fault injector to the identical seeded sequence), and the
        downgrade is recorded in the operator's stats note.
        """
        state = ctx.state(self.index)
        if error.category not in self._TRACKING_CLASSES:
            return None
        if not algorithm(state["algorithm"]).tracking:
            return None
        stats = ctx.join_stats.get(self.index)
        if stats is None:
            left, right = (ctx.tables[i] for i in self.inputs)
            stats = table_stats(left, right, ctx.spec)
            ctx.join_stats[self.index] = stats
        fallback = fallback_algorithm(stats)
        if fallback is None or fallback.algorithm == state["algorithm"]:
            return None
        state["note"] += (
            f"; degraded {state['algorithm']}->{fallback.algorithm}: "
            f"{error.category.value} traffic exhausted its fault budget"
        )
        return fallback.algorithm

    def account(self, ctx: ExecutionContext) -> None:
        state = ctx.state(self.index)
        result: JoinResult = state["result"]
        ctx.traffic = ctx.traffic.merged_with(result.traffic)
        ctx.profiles.append(result.profile)
        ctx.operators.append(
            OperatorStats(
                f"join[{state['operator_name']}]",
                result.output_rows,
                result.network_bytes,
                note=state["note"],
            )
        )


class RekeyOp(PhysicalOperator):
    """Node-local re-key of the input table on a payload column."""

    def __init__(self, index: int, inputs: tuple[int], node: Rekey):
        super().__init__(index, inputs)
        self.node = node

    def execute(self, ctx: ExecutionContext) -> None:
        ctx.tables[self.index] = rekey_table(
            ctx.tables[self.inputs[0]], self.node.column
        )

    def account(self, ctx: ExecutionContext) -> None:
        ctx.operators.append(
            OperatorStats(
                "rekey",
                ctx.tables[self.index].total_rows,
                0.0,
                note=f"on {self.node.column}",
            )
        )


class AggregateOp(PhysicalOperator):
    """Two-phase distributed group-by over the input table."""

    def __init__(self, index: int, inputs: tuple[int], node: Aggregate):
        super().__init__(index, inputs)
        self.node = node

    def execute(self, ctx: ExecutionContext) -> None:
        result = run_aggregation(
            ctx.cluster, ctx.tables[self.inputs[0]], self.node.aggregates, ctx.spec
        )
        ctx.state(self.index)["result"] = result
        ctx.tables[self.index] = result.table

    def account(self, ctx: ExecutionContext) -> None:
        result = ctx.state(self.index)["result"]
        ctx.traffic = ctx.traffic.merged_with(result.traffic)
        ctx.profiles.append(result.profile)
        ctx.operators.append(
            OperatorStats(
                "aggregate",
                result.table.total_rows,
                result.network_bytes,
            )
        )


# ---------------------------------------------------------------------------
# Compilation and the pipeline
# ---------------------------------------------------------------------------


@dataclass
class PhysicalPlan:
    """A compiled plan: physical operators in post-order.

    The compiled artifact is immutable and safe to share: concurrent
    :meth:`run` calls keep all per-run state on their own
    :class:`ExecutionContext`, which is what lets the serve layer's
    plan cache hand one compiled plan to many in-flight queries.
    """

    operators: list[PhysicalOperator]
    #: Names of every scanned table, for statistics-epoch invalidation.
    table_names: tuple[str, ...] = ()

    def run(
        self,
        cluster: Cluster,
        spec: JoinSpec | None = None,
        operator_retries: int = 0,
        context: RunContext | None = None,
    ) -> QueryResult:
        """Drive every operator through plan → execute → account.

        Completed operator outputs in ``ctx.tables`` double as
        checkpoints: an operator that fails with
        :class:`~repro.errors.FaultExhaustedError` can be retried up to
        ``operator_retries`` times without re-running anything upstream
        (the cluster fabric is reset, which also rewinds a fault
        injector to its seeded sequence).  A failed attempt accounted
        nothing — ``execute`` raises before ``account`` folds traffic
        or stats into the context — so retries never double-count.

        Every operator runs with the cluster's
        :class:`~repro.parallel.config.ExecConfig` bound on this thread.

        ``context`` threads reusable cross-run state through the run
        (see :class:`RunContext`): cached ``join_stats`` let reruns
        skip the statistics pass (cleared automatically when a scanned
        table's statistics epoch has moved), and a ``deadline`` is
        enforced at every operator boundary with
        :class:`~repro.errors.QueryTimeoutError`.
        """
        spec = spec or JoinSpec()
        if not spec.materialize:
            raise ReproError("query execution requires materialize=True")
        if operator_retries < 0:
            raise ReproError(
                f"operator_retries must be >= 0, got {operator_retries}"
            )
        join_stats: dict[int, JoinStats] | None = None
        deadline: float | None = None
        if context is not None:
            epoch_signature = tuple(
                stats_epoch(name) for name in self.table_names
            )
            if context.epoch_signature != epoch_signature:
                context.join_stats.clear()
                context.epoch_signature = epoch_signature
            join_stats = context.join_stats
            deadline = context.deadline
        with use(cluster.config):
            ctx = ExecutionContext(cluster=cluster, spec=spec, deadline=deadline)
            if join_stats is not None:
                ctx.join_stats = join_stats
            for operator in self.operators:
                if deadline is not None and wall_clock() > deadline:
                    raise QueryTimeoutError(
                        f"query deadline expired before operator "
                        f"{operator.index} ({type(operator).__name__})",
                        where="running",
                    )
                attempt = 0
                while True:
                    try:
                        operator.plan(ctx)
                        operator.execute(ctx)
                        operator.account(ctx)
                        break
                    except FaultExhaustedError:
                        attempt += 1
                        if attempt > operator_retries:
                            raise
                        cluster.reset()
            final = ctx.tables[self.operators[-1].index]
            return QueryResult(
                table=final,
                traffic=ctx.traffic,
                operators=ctx.operators,
                profiles=ctx.profiles,
            )


def _children(node: PlanNode) -> tuple[PlanNode, ...]:
    if isinstance(node, Join):
        return (node.left, node.right)
    if isinstance(node, (Rekey, Aggregate)):
        return (node.child,)
    return ()


def _make_operator(node: PlanNode, index: int, inputs: tuple[int, ...]) -> PhysicalOperator:
    if isinstance(node, Scan):
        return ScanOp(index, node)
    if isinstance(node, Join):
        return JoinOp(index, inputs, node)
    if isinstance(node, Rekey):
        return RekeyOp(index, inputs, node)
    if isinstance(node, Aggregate):
        return AggregateOp(index, inputs, node)
    raise ReproError(f"unknown plan node type: {type(node).__name__}")


def compile_plan(plan: PlanNode) -> PhysicalPlan:
    """Linearize a logical plan tree into a physical pipeline.

    The walk is iterative (an explicit frame stack, no recursion) and
    emits operators in post-order: children left to right, then the
    node itself, so execution order and accounting match a bottom-up
    evaluation.
    """
    operators: list[PhysicalOperator] = []
    # Each frame: [node, collected child op indices, next child position].
    frames: list[list] = [[plan, [], 0]]
    while frames:
        node, child_ids, pos = frames[-1]
        kids = _children(node)
        if pos < len(kids):
            frames[-1][2] += 1
            frames.append([kids[pos], [], 0])
            continue
        index = len(operators)
        operators.append(_make_operator(node, index, tuple(child_ids)))
        frames.pop()
        if frames:
            frames[-1][1].append(index)
    return PhysicalPlan(operators, table_names=plan.table_names())


def execute(plan: PlanNode, cluster: Cluster, spec: JoinSpec | None = None) -> QueryResult:
    """Compile a plan tree and run it; returns the final table with accounting."""
    return compile_plan(plan).run(cluster, spec)
