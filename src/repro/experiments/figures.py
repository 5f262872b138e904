"""Experiment definitions for every figure of the paper's evaluation.

Each ``run_figN`` function generates the workload, executes the seven
compared algorithms (BJ-R, BJ-S, HJ, 2TJ-R, 2TJ-S, 3TJ, 4TJ — or the
figure's subset), and returns an
:class:`~repro.experiments.report.ExperimentResult` with measured
traffic in GiB at paper scale, the published anchor values where the
paper prints them, and stacked-bar breakdowns by message class.

All runs execute at reduced cardinality; traffic is linear in table
size, so the reported values are scaled by the workload's factor.
``scale`` arguments let callers trade accuracy for speed.
"""

from __future__ import annotations

from ..cluster.network import MessageClass
from ..core.track_join import TrackJoin
from ..encoding import DictionaryEncoding, FixedByteEncoding, VarByteEncoding
from ..errors import WorkloadError
from ..joins.base import DistributedJoin, JoinSpec
from ..joins.broadcast import BroadcastJoin
from ..joins.grace_hash import GraceHashJoin
from ..workloads.base import Workload
from ..workloads.real import workload_x, workload_y
from ..workloads.synthetic import (
    PATTERN_COLLOCATED,
    PATTERN_PARTIAL,
    PATTERN_SPREAD,
    both_sides_pattern_workload,
    single_side_pattern_workload,
    unique_keys_workload,
)
from . import paperdata
from .report import ExperimentResult, Group, Row

__all__ = [
    "seven_algorithms",
    "run_algorithms",
    "run_fig1_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
]

_GIB = paperdata.GIB

#: Breakdown keys in figure legend order.
_BREAKDOWN = [
    ("Keys & Counts", MessageClass.KEYS_COUNTS),
    ("Keys & Nodes", MessageClass.KEYS_NODES),
    ("R Tuples", MessageClass.R_TUPLES),
    ("S Tuples", MessageClass.S_TUPLES),
]


def seven_algorithms() -> list[DistributedJoin]:
    """The seven algorithms every traffic figure compares."""
    return [
        BroadcastJoin("R"),
        BroadcastJoin("S"),
        GraceHashJoin(),
        TrackJoin("2TJ-R"),
        TrackJoin("2TJ-S"),
        TrackJoin("3TJ"),
        TrackJoin("4TJ"),
    ]


def run_algorithms(
    workload: Workload,
    spec: JoinSpec,
    algorithms: list[DistributedJoin] | None = None,
    paper: dict[str, float] | None = None,
) -> Group:
    """Run a set of algorithms on one workload; rows in paper-scale GiB.

    Figure runs build no output, so a run whose ``output_rows`` differs
    from the cardinality the workload generator states raises
    :class:`~repro.errors.WorkloadError` — the one check that a traffic
    experiment joined the right rows.
    """
    algorithms = algorithms if algorithms is not None else seven_algorithms()
    paper = paper or {}
    group = Group(label=workload.name)
    for algorithm in algorithms:
        result = algorithm.run(workload.cluster, workload.table_r, workload.table_s, spec)
        if (
            workload.expected_output_rows is not None
            and result.output_rows != workload.expected_output_rows
        ):
            raise WorkloadError(
                f"{algorithm.name} on {workload.name}: {result.output_rows} rows, "
                f"expected {workload.expected_output_rows}"
            )
        breakdown = {
            label: result.class_bytes(category) * workload.scale / _GIB
            for label, category in _BREAKDOWN
        }
        group.rows.append(
            Row(
                label=result.algorithm,
                measured=result.network_bytes * workload.scale / _GIB,
                paper=paper.get(result.algorithm),
                breakdown=breakdown,
            )
        )
    return group


def _figure_spec(**overrides) -> JoinSpec:
    """Simulation defaults: dictionary codes, grouped location messages.

    The paper's simulations apply the Section 2.4 message optimization
    of sending many keys under a single node label, so grouped location
    accounting is the default for figure reproductions.
    """
    defaults = dict(
        encoding=DictionaryEncoding(),
        materialize=False,
        group_locations=True,
    )
    defaults.update(overrides)
    return JoinSpec(**defaults)


def run_fig1_fig2() -> ExperimentResult:
    """Figures 1-2: the worked single-key scheduling examples."""
    from ..core.schedule import (
        migrate_and_broadcast,
        optimal_schedule,
        selective_broadcast_cost,
    )

    result = ExperimentResult(
        experiment_id="fig1-fig2",
        title="Single-key schedule examples",
        unit="cost units",
        notes="Exact worked examples from Figures 1 and 2 (M = 0).",
    )
    sizes_r = {0: 2.0, 2: 4.0}
    sizes_s = {1: 3.0, 3: 1.0}
    fig1 = Group(label="Figure 1 (R=[2,0,4,0,0], S=[0,3,0,1,0])")
    fig1.rows.append(Row("HJ (all to hash node)", 2 + 4 + 3 + 1, paper=10))
    fig1.rows.append(
        Row("2TJ R→S", selective_broadcast_cost(sizes_r, sizes_s, 4), paper=12)
    )
    fig1.rows.append(
        Row("3TJ (S→R)", selective_broadcast_cost(sizes_s, sizes_r, 4), paper=8)
    )
    fig1.rows.append(Row("4TJ", optimal_schedule(sizes_r, sizes_s, 4).plan.cost, paper=6))
    result.groups.append(fig1)

    sizes_r2 = {1: 4.0, 2: 8.0, 3: 9.0, 4: 6.0}
    sizes_s2 = {1: 2.0, 2: 5.0, 3: 3.0, 4: 1.0}
    fig2 = Group(label="Figure 2 (R=[0,4,8,9,6], S=[0,2,5,3,1])")
    fig2.rows.append(
        Row("Selective broadcast S→R", selective_broadcast_cost(sizes_s2, sizes_r2, 0), paper=33)
    )
    plan = migrate_and_broadcast(sizes_s2, sizes_r2, 0)
    fig2.rows.append(Row("After migrations (4 and 6)", plan.cost, paper=24))
    fig2.rows.append(Row("Migration cost", plan.migration_cost, paper=10))
    result.groups.append(fig2)
    return result


def run_fig3(scaled_tuples: int = 250_000, num_nodes: int = 16, seed: int = 0) -> ExperimentResult:
    """Figure 3: 1e9 x 1e9 tuples, unique keys, three width ratios."""
    result = ExperimentResult(
        experiment_id="fig3",
        title="Synthetic 1e9 vs 1e9 tuples with ~1e9 unique join keys",
        unit="GiB (paper scale)",
        notes=f"Simulated at {scaled_tuples} tuples per table, {num_nodes} nodes.",
    )
    for width_r in (20, 40, 60):
        workload = unique_keys_workload(
            num_nodes=num_nodes,
            row_bytes_r=width_r,
            row_bytes_s=60,
            scaled_tuples=scaled_tuples,
            seed=seed,
        )
        group = run_algorithms(
            workload,
            _figure_spec(),
            paper=paperdata.FIG3_BROADCAST_GIB[(width_r, 60)],
        )
        group.label = f"R width = {width_r} B, S width = 60 B"
        result.groups.append(group)
    return result


def run_fig4(scaled_keys: int = 100_000, num_nodes: int = 16, seed: int = 0) -> ExperimentResult:
    """Figure 4: single-side repeated keys across placement patterns."""
    result = ExperimentResult(
        experiment_id="fig4",
        title="2e8 unique R vs 1e9 S (single side intra-table collocated)",
        unit="GiB (paper scale)",
        notes=f"Simulated at {scaled_keys} distinct keys, {num_nodes} nodes.",
    )
    for pattern in (PATTERN_COLLOCATED, PATTERN_PARTIAL, PATTERN_SPREAD):
        workload = single_side_pattern_workload(
            pattern, num_nodes=num_nodes, scaled_keys=scaled_keys, seed=seed
        )
        group = run_algorithms(workload, _figure_spec(), paper=paperdata.FIG4_BROADCAST_GIB)
        group.label = f"Pattern: {','.join(map(str, pattern))},0,..."
        result.groups.append(group)
    return result


def _run_fig5_or_6(
    inter: bool, scaled_keys: int, num_nodes: int, seed: int
) -> ExperimentResult:
    figure = "fig6" if inter else "fig5"
    result = ExperimentResult(
        experiment_id=figure,
        title=(
            "2e8 tuples per table, 4e7 unique keys "
            f"({'inter & intra' if inter else 'intra'} collocated)"
        ),
        unit="GiB (paper scale)",
        notes=f"Simulated at {scaled_keys} distinct keys, {num_nodes} nodes.",
    )
    for pattern in (PATTERN_COLLOCATED, PATTERN_PARTIAL, PATTERN_SPREAD):
        workload = both_sides_pattern_workload(
            pattern,
            inter_collocated=inter,
            num_nodes=num_nodes,
            scaled_keys=scaled_keys,
            seed=seed,
        )
        group = run_algorithms(workload, _figure_spec(), paper=paperdata.FIG5_BROADCAST_GIB)
        group.label = f"Pattern: {','.join(map(str, pattern))},0,..."
        result.groups.append(group)
    return result


def run_fig5(scaled_keys: int = 40_000, num_nodes: int = 16, seed: int = 0) -> ExperimentResult:
    """Figure 5: both sides repeat 5x, intra-table collocation only."""
    return _run_fig5_or_6(False, scaled_keys, num_nodes, seed)


def run_fig6(scaled_keys: int = 40_000, num_nodes: int = 16, seed: int = 0) -> ExperimentResult:
    """Figure 6: both sides repeat 5x, inter & intra-table collocation."""
    return _run_fig5_or_6(True, scaled_keys, num_nodes, seed)


_ENCODINGS = {
    "fixed": FixedByteEncoding,
    "varbyte": VarByteEncoding,
    "dictionary": DictionaryEncoding,
}


def _run_fig7_or_8(
    ordering: str, scale_denominator: int, num_nodes: int, seed: int
) -> ExperimentResult:
    figure = "fig7" if ordering == "original" else "fig8"
    result = ExperimentResult(
        experiment_id=figure,
        title=f"Workload X Q1 slowest join, {ordering} tuple ordering",
        unit="GiB (paper scale)",
        notes=f"Surrogate at 1/{scale_denominator} scale, {num_nodes} nodes.",
    )
    workload = workload_x(
        query=1,
        num_nodes=num_nodes,
        scale_denominator=scale_denominator,
        ordering=ordering,
        seed=seed,
    )
    for name, encoding_cls in _ENCODINGS.items():
        group = run_algorithms(
            workload,
            _figure_spec(encoding=encoding_cls()),
            paper=paperdata.FIG7_OFFCHART_GIB[name],
        )
        group.label = f"{name} encoding"
        result.groups.append(group)
    return result


def run_fig7(scale_denominator: int = 1024, num_nodes: int = 16, seed: int = 0) -> ExperimentResult:
    """Figure 7: X Q1 traffic under three encodings, original ordering."""
    return _run_fig7_or_8("original", scale_denominator, num_nodes, seed)


def run_fig8(scale_denominator: int = 1024, num_nodes: int = 16, seed: int = 0) -> ExperimentResult:
    """Figure 8: same as Figure 7 with locality shuffled away."""
    return _run_fig7_or_8("shuffled", scale_denominator, num_nodes, seed)


def run_fig9(scale_denominator: int = 1024, num_nodes: int = 16, seed: int = 0) -> ExperimentResult:
    """Figure 9: HJ vs TJ on queries Q1-Q5, optimal dictionary codes.

    The paper value attached to the track join row is the traffic hash
    join would have to beat given the published reduction percentage.
    """
    result = ExperimentResult(
        experiment_id="fig9",
        title="Common slowest join of queries Q1-Q5, workload X",
        unit="GiB (paper scale)",
        notes=f"Surrogates at 1/{scale_denominator} scale; dictionary codes.",
    )
    for query in range(1, 6):
        workload = workload_x(
            query=query,
            num_nodes=num_nodes,
            scale_denominator=scale_denominator,
            ordering="original",
            seed=seed,
        )
        spec = _figure_spec()
        group = Group(label=f"Q{query}")
        hash_result = GraceHashJoin().run(
            workload.cluster, workload.table_r, workload.table_s, spec
        )
        # Both inputs have almost entirely unique keys, so the paper notes
        # all track join versions perform alike and the 2-phase variant
        # (broadcasting the shorter R tuples) suffices.
        track_result = TrackJoin("2TJ-R").run(
            workload.cluster, workload.table_r, workload.table_s, spec
        )
        hash_gib = hash_result.network_bytes * workload.scale / _GIB
        track_gib = track_result.network_bytes * workload.scale / _GIB
        group.rows.append(Row("Hash Join", hash_gib))
        group.rows.append(
            Row(
                "Track Join",
                track_gib,
                paper=hash_gib * (1 - paperdata.FIG9_REDUCTION[query]),
            )
        )
        group.rows.append(
            Row(
                "traffic reduction (%)",
                100 * (1 - track_gib / hash_gib),
                paper=100 * paperdata.FIG9_REDUCTION[query],
            )
        )
        result.groups.append(group)
    return result


def _run_fig10_or_11(
    ordering: str, scale_denominator: int, num_nodes: int, seed: int
) -> ExperimentResult:
    figure = "fig10" if ordering == "original" else "fig11"
    result = ExperimentResult(
        experiment_id=figure,
        title=f"Workload Y slowest join, {ordering} tuple ordering (varbyte)",
        unit="GiB (paper scale)",
        notes=f"Surrogate at 1/{scale_denominator} scale, {num_nodes} nodes.",
    )
    workload = workload_y(
        num_nodes=num_nodes,
        scale_denominator=scale_denominator,
        ordering=ordering,
        seed=seed,
    )
    spec = _figure_spec(
        encoding=VarByteEncoding(), count_width_r=2.0, count_width_s=2.0
    )
    group = run_algorithms(workload, spec, paper=paperdata.FIG10_OFFCHART_GIB)
    result.groups.append(group)
    return result


def run_fig10(scale_denominator: int = 256, num_nodes: int = 16, seed: int = 0) -> ExperimentResult:
    """Figure 10: workload Y, original tuple ordering."""
    return _run_fig10_or_11("original", scale_denominator, num_nodes, seed)


def run_fig11(scale_denominator: int = 256, num_nodes: int = 16, seed: int = 0) -> ExperimentResult:
    """Figure 11: workload Y, shuffled (all locality removed)."""
    return _run_fig10_or_11("shuffled", scale_denominator, num_nodes, seed)
