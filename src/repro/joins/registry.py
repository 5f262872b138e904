"""The operator registry: one table of distributed join algorithms.

Single source of truth for algorithm name → operator construction,
paper table label, and analytic cost estimate.  The query executor
(`repro.query.executor`), the cost-model optimizer
(:func:`repro.costmodel.optimizer.rank_algorithms`), and the experiment
tables (`repro.experiments.tables`) all consume this registry instead
of carrying their own name tables.

Registry order is part of the contract: :func:`rank_algorithms` sorts
the entries stably by estimated cost, so on ties the earlier entry wins
— the order below reproduces the optimizer's historical tie-breaking
(broadcast before hash before track variants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.track_join import TrackJoin
from ..costmodel.formulas import (
    CorrelationClasses,
    broadcast_cost,
    hash_join_cost,
    track2_cost,
    track3_cost,
    track4_cost,
)
from ..costmodel.stats import JoinStats
from ..errors import UnknownKeyError
from .base import DistributedJoin
from .broadcast import BroadcastJoin
from .grace_hash import GraceHashJoin

__all__ = ["AlgorithmInfo", "ALGORITHMS", "algorithm", "algorithm_names", "create"]

#: An analytic traffic estimate: (stats, correlation classes) → bytes.
CostFn = Callable[[JoinStats, CorrelationClasses | None], float]


@dataclass(frozen=True)
class AlgorithmInfo:
    """One registered distributed join algorithm.

    Parameters
    ----------
    name:
        Canonical identifier ("HJ", "2TJ-R", ...) used by query plans,
        reports, and the optimizer.
    description:
        One-line summary for docs and CLI listings.
    factory:
        Zero-argument constructor of a fresh operator instance.
    cost:
        Analytic network-cost estimate of Section 3, or ``None`` for
        operators the optimizer does not rank.
    paper_label:
        Row label in the paper's Tables 2-4 for the variants the
        implementation study measures, ``None`` otherwise.
    tracking:
        True for operators with a tracking phase (the track-join
        family).  Graceful degradation keys on this: when tracking
        traffic exhausts its fault budget, the executor falls back to
        the cheapest non-tracking entry.
    """

    name: str
    description: str
    factory: Callable[[], DistributedJoin]
    cost: CostFn | None = None
    paper_label: str | None = None
    tracking: bool = False


#: Registry order matters: it is the optimizer's tie-break (see module
#: docstring) and the row order of the experiment tables.
ALGORITHMS: tuple[AlgorithmInfo, ...] = (
    AlgorithmInfo(
        "BJ-R",
        "broadcast join, replicating R to all S locations",
        lambda: BroadcastJoin("R"),
        cost=lambda stats, classes: broadcast_cost(stats, "R"),
    ),
    AlgorithmInfo(
        "BJ-S",
        "broadcast join, replicating S to all R locations",
        lambda: BroadcastJoin("S"),
        cost=lambda stats, classes: broadcast_cost(stats, "S"),
    ),
    AlgorithmInfo(
        "HJ",
        "Grace hash join, hash-partitioning both inputs",
        GraceHashJoin,
        cost=lambda stats, classes: hash_join_cost(stats),
        paper_label="HJ",
    ),
    AlgorithmInfo(
        "2TJ-R",
        "2-phase track join, selectively broadcasting R to S locations",
        lambda: TrackJoin("2TJ-R"),
        cost=lambda stats, classes: track2_cost(stats, "RS"),
        paper_label="2TJ",
        tracking=True,
    ),
    AlgorithmInfo(
        "2TJ-S",
        "2-phase track join, selectively broadcasting S to R locations",
        lambda: TrackJoin("2TJ-S"),
        cost=lambda stats, classes: track2_cost(stats, "SR"),
        tracking=True,
    ),
    AlgorithmInfo(
        "3TJ",
        "3-phase track join, choosing the cheaper direction per key",
        lambda: TrackJoin("3TJ"),
        cost=track3_cost,
        paper_label="3TJ",
        tracking=True,
    ),
    AlgorithmInfo(
        "4TJ",
        "4-phase track join, adding per-key migrations",
        lambda: TrackJoin("4TJ"),
        cost=track4_cost,
        paper_label="4TJ",
        tracking=True,
    ),
    # Extensions beyond the paper's measured variants (Section 5 future
    # work): appended after the paper rows so tie-breaks and table
    # order stay historical.
    AlgorithmInfo(
        "4TJ-bal",
        "4-phase track join with load-balanced destination choices",
        lambda: TrackJoin("4TJ-bal"),
        # The balancer only re-picks cost-equivalent directions and
        # destinations, so its traffic estimate is the plain 4-phase one.
        cost=track4_cost,
        tracking=True,
    ),
    AlgorithmInfo(
        "4TJ-shard",
        "4-phase track join with heavy-hitter sharding",
        lambda: TrackJoin("4TJ-shard"),
        # The cost model has no skew term; without one, sharding never
        # fires and the estimate is the plain 4-phase one.
        cost=track4_cost,
        tracking=True,
    ),
)

_BY_NAME: dict[str, AlgorithmInfo] = {info.name: info for info in ALGORITHMS}


def algorithm_names() -> tuple[str, ...]:
    """All registered algorithm names, in registry order."""
    return tuple(info.name for info in ALGORITHMS)


def algorithm(name: str) -> AlgorithmInfo:
    """Look one algorithm up by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise UnknownKeyError(
            f"unknown join algorithm {name!r}; registered: {sorted(_BY_NAME)}"
        ) from None


def create(name: str) -> DistributedJoin:
    """Construct a fresh operator instance by name."""
    return algorithm(name).factory()
