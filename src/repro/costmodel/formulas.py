"""Closed-form network traffic formulas of Sections 3.1-3.3.

Each function returns estimated bytes crossing the network for one
algorithm, given :class:`~repro.costmodel.stats.JoinStats`.  The
formulas are transcribed from the paper; where the paper keeps a term
symbolic (correlation classes, Bloom filter error) the functions take it
as a parameter.

The hash join estimate follows the paper in omitting the ``1 - 1/N``
in-place probability by default; pass ``include_local_discount=True``
for the byte-exact expectation the simulator measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import CostModelError
from .stats import JoinStats

__all__ = [
    "hash_join_cost",
    "broadcast_cost",
    "track2_cost",
    "track3_cost",
    "track4_cost",
    "CorrelationClasses",
    "late_materialization_cost",
    "tracking_aware_cost",
    "filtered_hash_join_cost",
    "filtered_late_materialization_cost",
    "filtered_track2_cost",
    "track_join_beats_hash_join_width_rule",
]


def _remote_fraction(stats: JoinStats, include_local_discount: bool) -> float:
    return (1.0 - 1.0 / stats.num_nodes) if include_local_discount else 1.0


def hash_join_cost(stats: JoinStats, include_local_discount: bool = False) -> float:
    """Grace hash join: ``tR*(wk+wR) + tS*(wk+wS)``."""
    fraction = _remote_fraction(stats, include_local_discount)
    return fraction * (
        stats.tuples_r * stats.tuple_width_r + stats.tuples_s * stats.tuple_width_s
    )


def broadcast_cost(stats: JoinStats, side: str = "R") -> float:
    """Broadcast join: the chosen side is replicated to ``N - 1`` nodes."""
    if side == "R":
        return stats.tuples_r * stats.tuple_width_r * (stats.num_nodes - 1)
    if side == "S":
        return stats.tuples_s * stats.tuple_width_s * (stats.num_nodes - 1)
    raise CostModelError(f"side must be 'R' or 'S', got {side!r}")


def _tracking_cost(stats: JoinStats, with_counts: bool) -> float:
    """Key tracking: each node's distinct keys to the scheduling nodes."""
    count_r = stats.counter_width_r() if with_counts else 0.0
    count_s = stats.counter_width_s() if with_counts else 0.0
    return stats.distinct_r * stats.nodes_per_key_r * (stats.key_width + count_r) + (
        stats.distinct_s * stats.nodes_per_key_s * (stats.key_width + count_s)
    )


def track2_cost(stats: JoinStats, direction: str = "RS") -> float:
    """2-phase track join, Section 3.1:

    ``(dR*nR + dS*nS)*wk + dR*mS*wk + tR*sR*mS*(wk+wR)`` for R -> S.
    """
    if direction == "SR":
        return track2_cost(stats.swapped(), "RS")
    if direction != "RS":
        raise CostModelError(f"direction must be 'RS' or 'SR', got {direction!r}")
    tracking = _tracking_cost(stats, with_counts=False)
    locations = stats.distinct_r * stats.matching_nodes_s * stats.key_width
    tuples = (
        stats.tuples_r
        * stats.selectivity_r
        * stats.matching_nodes_s
        * stats.tuple_width_r
    )
    return tracking + locations + tuples


@dataclass(frozen=True)
class CorrelationClasses:
    """Key-population split used by the 3/4-phase cost formulas.

    Fractions of the distinct keys (and, with uniform repetition, of the
    tuples) joined through each mechanism:

    - ``rs``: R -> S selective broadcast (class R1/S1),
    - ``sr``: S -> R selective broadcast (class R2/S2),
    - ``hashlike``: keys whose optimal schedule consolidates to a single
      node, hash join style (class R3/S3, 4-phase only).

    The paper populates these classes with correlated sampling; see
    :mod:`repro.costmodel.sampling`.
    """

    rs: float
    sr: float
    hashlike: float = 0.0

    def __post_init__(self) -> None:
        total = self.rs + self.sr + self.hashlike
        if not math.isclose(total, 1.0, rel_tol=1e-6, abs_tol=1e-9):
            raise CostModelError(f"correlation class fractions must sum to 1, got {total}")
        if min(self.rs, self.sr, self.hashlike) < -1e-12:
            raise CostModelError("correlation class fractions must be non-negative")


def _selective_broadcast_terms(stats: JoinStats, fraction: float, direction: str) -> float:
    """Location + tuple transfer cost for one direction's key class."""
    if direction == "SR":
        return _selective_broadcast_terms(stats.swapped(), fraction, "RS")
    locations = fraction * stats.distinct_r * stats.matching_nodes_s * stats.key_width
    tuples = (
        fraction
        * stats.tuples_r
        * stats.selectivity_r
        * stats.matching_nodes_s
        * stats.tuple_width_r
    )
    return locations + tuples


def track3_cost(stats: JoinStats, classes: CorrelationClasses | None = None) -> float:
    """3-phase track join with per-key direction classes R1/S1, R2/S2."""
    if classes is None:
        # Without sampling information, assume the optimizer-preferred
        # single direction (cheaper side broadcast) for every key.
        rs_cost = _selective_broadcast_terms(stats, 1.0, "RS")
        sr_cost = _selective_broadcast_terms(stats, 1.0, "SR")
        best = min(rs_cost, sr_cost)
        return _tracking_cost(stats, with_counts=True) + best
    if classes.hashlike:
        raise CostModelError("3-phase track join has no hash-like class")
    return (
        _tracking_cost(stats, with_counts=True)
        + _selective_broadcast_terms(stats, classes.rs, "RS")
        + _selective_broadcast_terms(stats, classes.sr, "SR")
    )


def track4_cost(stats: JoinStats, classes: CorrelationClasses | None = None) -> float:
    """4-phase track join, simplified three-class form of Section 3.1.

    Classes ``rs``/``sr`` behave like 3-phase selective broadcasts; the
    ``hashlike`` class consolidates each key at one node, paying one
    transfer per tuple plus its tracking-style location messages.
    """
    if classes is None:
        return track3_cost(stats, None)
    hashlike = classes.hashlike * (
        stats.distinct_r * stats.nodes_per_key_r * stats.key_width
        + stats.tuples_r * stats.selectivity_r * stats.tuple_width_r
        + stats.distinct_s * stats.nodes_per_key_s * stats.key_width
        + stats.tuples_s * stats.selectivity_s * stats.tuple_width_s
    )
    return (
        _tracking_cost(stats, with_counts=True)
        + _selective_broadcast_terms(stats, classes.rs, "RS")
        + _selective_broadcast_terms(stats, classes.sr, "SR")
        + hashlike
    )


def _rid_bytes(tuples: float) -> float:
    """``log t`` bits, as bytes, for a record identifier."""
    return max(1.0, math.log2(max(2.0, tuples))) / 8.0


def late_materialization_cost(stats: JoinStats, output_tuples: float) -> float:
    """Late-materialized hash join (Section 3.2):

    ``(tR+tS)*wk + tRS*(wR+wS+log tR+log tS)``.
    """
    rid_r = _rid_bytes(stats.tuples_r)
    rid_s = _rid_bytes(stats.tuples_s)
    return (stats.tuples_r + stats.tuples_s) * stats.key_width + output_tuples * (
        stats.payload_r + stats.payload_s + rid_r + rid_s
    )


def tracking_aware_cost(stats: JoinStats, output_tuples: float) -> float:
    """Tracking-aware rid hash join (Section 3.2):

    ``(tR+tS)*wk + tRS*(min(wR,wS)+wk+log tR+log tS)``.
    """
    rid_r = _rid_bytes(stats.tuples_r)
    rid_s = _rid_bytes(stats.tuples_s)
    return (stats.tuples_r + stats.tuples_s) * stats.key_width + output_tuples * (
        min(stats.payload_r, stats.payload_s) + stats.key_width + rid_r + rid_s
    )


def _filter_broadcast(stats: JoinStats, filter_width: float) -> float:
    """``(tR*sR + tS*sS) * N * wbf``: Bloom filters to every node."""
    qualifying = stats.tuples_r * stats.selectivity_r + stats.tuples_s * stats.selectivity_s
    return qualifying * stats.num_nodes * filter_width


def filtered_hash_join_cost(
    stats: JoinStats, filter_width: float, error: float
) -> float:
    """Early-materialized hash join behind two-way Bloom filtering."""
    return (
        _filter_broadcast(stats, filter_width)
        + stats.tuples_r * (stats.selectivity_r + error) * stats.tuple_width_r
        + stats.tuples_s * (stats.selectivity_s + error) * stats.tuple_width_s
    )


def filtered_late_materialization_cost(
    stats: JoinStats, filter_width: float, error: float, output_tuples: float
) -> float:
    """Late-materialized hash join behind two-way Bloom filtering."""
    rid_r = _rid_bytes(stats.tuples_r)
    rid_s = _rid_bytes(stats.tuples_s)
    return (
        _filter_broadcast(stats, filter_width)
        + stats.tuples_r * (stats.selectivity_r + error) * (stats.key_width + rid_r)
        + stats.tuples_s * (stats.selectivity_s + error) * (stats.key_width + rid_s)
        + output_tuples * (stats.payload_r + stats.payload_s + rid_r + rid_s)
    )


def filtered_track2_cost(stats: JoinStats, filter_width: float, error: float) -> float:
    """2-phase track join behind two-way Bloom filtering (Section 3.3)."""
    me_r = min(
        stats.num_nodes,
        stats.tuples_r * (stats.selectivity_r + error) / stats.distinct_r,
    )
    me_s = min(
        stats.num_nodes,
        stats.tuples_s * (stats.selectivity_s + error) / stats.distinct_s,
    )
    return (
        _filter_broadcast(stats, filter_width)
        + stats.distinct_r * (stats.selectivity_r + error) * me_r * stats.key_width
        + stats.distinct_s * (stats.selectivity_s + error) * me_s * stats.key_width
        + stats.distinct_r * stats.selectivity_r * stats.matching_nodes_s * stats.key_width
        + stats.tuples_r
        * stats.selectivity_r
        * stats.matching_nodes_s
        * stats.tuple_width_r
    )


def track_join_beats_hash_join_width_rule(stats: JoinStats) -> bool:
    """The Section 3.1 width rule for unique-key equal-cardinality joins.

    With no locality, track join transfers no more than hash join iff
    ``2*wk <= max(wR, wS)``.
    """
    return 2 * stats.key_width <= max(stats.payload_r, stats.payload_s)
