"""Query-optimizer hook: choose the cheapest distributed join.

The formal model of track join exists "to decide whether to use track
join in favor of hash join or broadcast join" (Section 3).  Given
:class:`~repro.costmodel.stats.JoinStats` (and, optionally, correlation
classes from correlated sampling), :func:`rank_algorithms` scores every
available algorithm and :func:`choose_algorithm` returns the winner with
a human-readable justification, applying the paper's rules of thumb:

- broadcast join when one input is very small;
- 2-phase track join when both inputs have almost entirely unique keys
  (the full scheduler is redundant there);
- hash join when payloads are narrow relative to keys
  (``2*wk > max(wR, wS)`` and no locality).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..joins.registry import ALGORITHMS
from .formulas import CorrelationClasses, track_join_beats_hash_join_width_rule
from .stats import JoinStats

__all__ = [
    "AlgorithmEstimate",
    "rank_algorithms",
    "choose_algorithm",
    "fallback_algorithm",
]

#: Keys are "almost entirely unique" when repetition is below this.
_UNIQUE_KEY_REPETITION = 1.05


@dataclass(frozen=True)
class AlgorithmEstimate:
    """One algorithm's analytic traffic estimate."""

    algorithm: str
    cost_bytes: float
    note: str = ""


def rank_algorithms(
    stats: JoinStats, classes: CorrelationClasses | None = None
) -> list[AlgorithmEstimate]:
    """All algorithms ordered by estimated network bytes, cheapest first.

    Candidates come from the operator registry
    (:data:`repro.joins.registry.ALGORITHMS`); registry order is the
    tie-break of the stable sort.
    """
    return sorted(
        (
            AlgorithmEstimate(info.name, info.cost(stats, classes))
            for info in ALGORITHMS
            if info.cost is not None
        ),
        key=lambda estimate: estimate.cost_bytes,
    )


def fallback_algorithm(
    stats: JoinStats, classes: CorrelationClasses | None = None
) -> AlgorithmEstimate | None:
    """Cheapest non-tracking algorithm, for graceful degradation.

    When a tracking phase exhausts its fault budget (repeatedly dropped
    ``KEYS_COUNTS``/``KEYS_NODES`` traffic), the query executor retries
    with this choice instead of failing the query: the non-tracking
    operators never send the poisoned message classes.  Returns ``None``
    when the registry has no rankable non-tracking entry.
    """
    tracking = {info.name: info.tracking for info in ALGORITHMS}
    for estimate in rank_algorithms(stats, classes):
        if not tracking[estimate.algorithm]:
            return estimate
    return None


def choose_algorithm(
    stats: JoinStats, classes: CorrelationClasses | None = None
) -> AlgorithmEstimate:
    """The optimizer's pick, with the reasoning attached."""
    ranking = rank_algorithms(stats, classes)
    best = ranking[0]

    notes = []
    repetition_r = stats.tuples_r / stats.distinct_r
    repetition_s = stats.tuples_s / stats.distinct_s
    unique_keys = (
        repetition_r <= _UNIQUE_KEY_REPETITION
        and repetition_s <= _UNIQUE_KEY_REPETITION
    )
    if best.algorithm.startswith("BJ"):
        notes.append("one input is small enough that replication is cheapest")
    if unique_keys and best.algorithm.startswith(("3TJ", "4TJ")):
        # Prefer the simpler variant when scheduling cannot help: with
        # unique keys all track join versions transfer the same payloads.
        for estimate in ranking:
            if estimate.algorithm.startswith("2TJ"):
                if estimate.cost_bytes <= best.cost_bytes * 1.001:
                    best = estimate
                    notes.append(
                        "keys are almost entirely unique; 2-phase track join "
                        "suffices and avoids scheduling overhead"
                    )
                break
    if best.algorithm == "HJ" and not track_join_beats_hash_join_width_rule(stats):
        notes.append(
            "payloads are narrow (2*wk > max(wR, wS)); without locality "
            "track join cannot beat hash join"
        )
    return AlgorithmEstimate(best.algorithm, best.cost_bytes, "; ".join(notes))
