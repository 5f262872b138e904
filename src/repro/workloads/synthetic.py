"""Synthetic workload generators for Figures 3-6.

Figure 3 joins two billion-tuple tables with almost entirely unique
keys at three payload-width ratios.  Figures 4-6 probe locality: keys
repeat five times per table and the repeats are placed according to a
pattern (``5,0,0,...`` fully collocated, ``2,2,1,0,...`` partially,
``1,1,1,1,1,0,...`` fully spread), with Figure 5 collocating repeats
within each table independently (*intra*) and Figure 6 additionally
collocating the two tables' groups on the same nodes (*inter & intra*).

All generators run at a reduced cardinality and report the linear
``scale`` factor back to paper size.
"""

from __future__ import annotations

import numpy as np

from ..cluster.cluster import Cluster
from ..errors import WorkloadError
from ..storage.placement import pattern_nodes, random_uniform
from ..storage.schema import Schema
from .base import Workload

__all__ = [
    "unique_keys_workload",
    "single_side_pattern_workload",
    "both_sides_pattern_workload",
    "zipf_workload",
    "hot_key_workload",
    "PATTERN_COLLOCATED",
    "PATTERN_PARTIAL",
    "PATTERN_SPREAD",
]

#: The three placement patterns of Figures 4-6.
PATTERN_COLLOCATED: tuple[int, ...] = (5,)
PATTERN_PARTIAL: tuple[int, ...] = (2, 2, 1)
PATTERN_SPREAD: tuple[int, ...] = (1, 1, 1, 1, 1)


def _schema_for_row_bytes(row_bytes: int, key_bytes: int = 4) -> Schema:
    """Schema with a ``key_bytes`` key and payload filling ``row_bytes``."""
    if row_bytes < key_bytes:
        raise WorkloadError(f"row of {row_bytes} bytes cannot hold a {key_bytes}-byte key")
    return Schema.with_widths(key_bytes * 8, (row_bytes - key_bytes) * 8)


def unique_keys_workload(
    num_nodes: int = 16,
    paper_tuples: int = 10**9,
    row_bytes_r: int = 20,
    row_bytes_s: int = 60,
    scaled_tuples: int = 1_000_000,
    seed: int = 0,
) -> Workload:
    """Figure 3: equal-cardinality tables with almost entirely unique keys.

    Both tables share the same key set (high selectivity), each key
    appearing exactly once per table, and tuples are placed uniformly
    at random — the no-locality worst case for track join.
    """
    cluster = Cluster(num_nodes)
    keys = np.arange(scaled_tuples, dtype=np.int64)
    table_r = cluster.table_from_assignment(
        "R",
        _schema_for_row_bytes(row_bytes_r),
        keys,
        random_uniform(scaled_tuples, num_nodes, seed=seed * 7 + 1),
    )
    table_s = cluster.table_from_assignment(
        "S",
        _schema_for_row_bytes(row_bytes_s),
        keys,
        random_uniform(scaled_tuples, num_nodes, seed=seed * 7 + 2),
    )
    return Workload(
        name=f"fig3-{row_bytes_r}v{row_bytes_s}",
        cluster=cluster,
        table_r=table_r,
        table_s=table_s,
        scale=paper_tuples / scaled_tuples,
        expected_output_rows=scaled_tuples,
        notes=(
            f"{paper_tuples:.0e} vs {paper_tuples:.0e} tuples, unique keys, "
            f"{row_bytes_r}/{row_bytes_s}-byte rows, simulated at {scaled_tuples} tuples"
        ),
    )


def single_side_pattern_workload(
    pattern: tuple[int, ...],
    num_nodes: int = 16,
    paper_unique_tuples: int = 200_000_000,
    scaled_keys: int = 200_000,
    row_bytes_r: int = 30,
    row_bytes_s: int = 60,
    seed: int = 0,
) -> Workload:
    """Figure 4: unique-key R joins S whose keys repeat 5x per ``pattern``.

    R has one 30-byte tuple per key placed uniformly; S repeats every
    key five times, splitting the repeats across nodes according to the
    placement pattern (this is *intra-table* collocation of a single
    side; R's placement is independent of S's).
    """
    if sum(pattern) != 5:
        raise WorkloadError(f"Figure 4 patterns distribute 5 repeats, got {pattern}")
    cluster = Cluster(num_nodes)
    keys = np.arange(scaled_keys, dtype=np.int64)
    table_r = cluster.table_from_assignment(
        "R",
        _schema_for_row_bytes(row_bytes_r),
        keys,
        random_uniform(scaled_keys, num_nodes, seed=seed * 11 + 1),
    )
    key_index, node, _pool = pattern_nodes(
        scaled_keys, pattern, num_nodes, seed=seed * 11 + 2
    )
    table_s = cluster.table_from_assignment(
        "S", _schema_for_row_bytes(row_bytes_s), keys[key_index], node
    )
    return Workload(
        name=f"fig4-{','.join(map(str, pattern))}",
        cluster=cluster,
        table_r=table_r,
        table_s=table_s,
        scale=paper_unique_tuples / scaled_keys,
        expected_output_rows=scaled_keys * 5,
        notes=(
            f"2e8 unique R vs 1e9 S tuples, S repeats per pattern {pattern}, "
            f"simulated at {scaled_keys} keys"
        ),
    )


def both_sides_pattern_workload(
    pattern: tuple[int, ...],
    inter_collocated: bool,
    num_nodes: int = 16,
    paper_keys: int = 40_000_000,
    scaled_keys: int = 40_000,
    row_bytes_r: int = 30,
    row_bytes_s: int = 60,
    seed: int = 0,
) -> Workload:
    """Figures 5-6: both tables repeat every key 5x per ``pattern``.

    With ``inter_collocated=False`` (Figure 5) each table draws its own
    host nodes per key — repeats collocate within a table only.  With
    ``True`` (Figure 6) both tables' groups land on the same nodes, so
    matching tuples across tables are collocated too and, under the
    fully-collocated pattern, track join eliminates all payload
    transfers.
    """
    if sum(pattern) != 5:
        raise WorkloadError(f"Figure 5/6 patterns distribute 5 repeats, got {pattern}")
    cluster = Cluster(num_nodes)
    keys = np.arange(scaled_keys, dtype=np.int64)
    key_index_r, node_r, pool = pattern_nodes(
        scaled_keys, pattern, num_nodes, seed=seed * 13 + 1
    )
    if inter_collocated:
        key_index_s, node_s, _ = pattern_nodes(
            scaled_keys, pattern, num_nodes, node_pool=pool
        )
    else:
        key_index_s, node_s, _ = pattern_nodes(
            scaled_keys, pattern, num_nodes, seed=seed * 13 + 2
        )
    table_r = cluster.table_from_assignment(
        "R", _schema_for_row_bytes(row_bytes_r), keys[key_index_r], node_r
    )
    table_s = cluster.table_from_assignment(
        "S", _schema_for_row_bytes(row_bytes_s), keys[key_index_s], node_s
    )
    figure = "fig6" if inter_collocated else "fig5"
    return Workload(
        name=f"{figure}-{','.join(map(str, pattern))}",
        cluster=cluster,
        table_r=table_r,
        table_s=table_s,
        scale=paper_keys / scaled_keys,
        expected_output_rows=scaled_keys * 25,
        notes=(
            f"2e8 vs 2e8 tuples, 4e7 keys repeated 5x each side, pattern {pattern}, "
            f"{'inter+intra' if inter_collocated else 'intra'} collocation, "
            f"simulated at {scaled_keys} keys"
        ),
    )


def _frequency_dot(keys_r: np.ndarray, keys_s: np.ndarray, distinct_keys: int) -> int:
    """Exact equi-join size of keys drawn from ``[0, distinct_keys)``."""
    return int(
        np.dot(
            np.bincount(keys_r, minlength=distinct_keys),
            np.bincount(keys_s, minlength=distinct_keys),
        )
    )


def zipf_workload(
    num_nodes: int = 16,
    tuples_per_table: int = 200_000,
    distinct_keys: int = 20_000,
    skew: float = 1.0,
    row_bytes_r: int = 30,
    row_bytes_s: int = 60,
    seed: int = 0,
) -> Workload:
    """Skewed key frequencies: an extension workload beyond the paper.

    Keys are drawn from a Zipf-like distribution (frequency of the
    rank-``i`` key proportional to ``1 / i**skew``), placed uniformly at
    random.  Heavy hitters stress both hash join (all copies of the hot
    key meet at one hash node) and the track join scheduler (many
    holders per key); the skew ablation benchmark measures who degrades
    and how per-node balance behaves.

    ``skew = 0`` recovers uniform key frequencies.
    """
    if skew < 0:
        raise WorkloadError(f"zipf skew must be non-negative, got {skew}")
    if distinct_keys <= 0:
        raise WorkloadError("need at least one distinct key")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, distinct_keys + 1, dtype=np.float64)
    weights = ranks**-skew
    probabilities = weights / weights.sum()
    keys_r = rng.choice(distinct_keys, size=tuples_per_table, p=probabilities)
    keys_s = rng.choice(distinct_keys, size=tuples_per_table, p=probabilities)
    cluster = Cluster(num_nodes)
    table_r = cluster.table_from_assignment(
        "R",
        _schema_for_row_bytes(row_bytes_r),
        keys_r.astype(np.int64),
        random_uniform(tuples_per_table, num_nodes, seed=seed * 17 + 1),
    )
    table_s = cluster.table_from_assignment(
        "S",
        _schema_for_row_bytes(row_bytes_s),
        keys_s.astype(np.int64),
        random_uniform(tuples_per_table, num_nodes, seed=seed * 17 + 2),
    )
    return Workload(
        name=f"zipf-{skew}",
        cluster=cluster,
        table_r=table_r,
        table_s=table_s,
        scale=1.0,
        expected_output_rows=_frequency_dot(keys_r, keys_s, distinct_keys),
        notes=(
            f"{tuples_per_table} tuples per table over {distinct_keys} keys, "
            f"zipf skew {skew}"
        ),
    )


def hot_key_workload(
    num_nodes: int = 16,
    tuples_per_table: int = 100_000,
    distinct_keys: int = 10_000,
    skew: float = 1.2,
    hot_threshold: float = 0.02,
    probe_factor: float = 3.0,
    row_bytes_r: int = 30,
    row_bytes_s: int = 60,
    seed: int = 0,
) -> Workload:
    """Heavy hitters that the 4-phase scheduler *consolidates*.

    The build side ``S`` draws keys from a Zipf(``skew``) distribution,
    so a handful of keys dominate it.  The probe side ``R`` is uniform
    background **plus** ``probe_factor / num_nodes`` of each hot key's
    build count as probe rows — enough probe bytes that migrating the
    hot key's build tuples beats replicating the probes (Theorem 1), so
    plain 4TJ piles each hot key onto a single destination.  This is
    the skew ablation's worst case: minimal total traffic with maximal
    per-node received bytes, the regime heavy-hitter sharding
    (``4TJ-shard``, :mod:`repro.core.skew`) is built for.

    ``hot_threshold`` is the build-frequency fraction above which a key
    gets probe amplification; all draws are deterministic per ``seed``.
    """
    if skew < 0:
        raise WorkloadError(f"zipf skew must be non-negative, got {skew}")
    if distinct_keys <= 0:
        raise WorkloadError("need at least one distinct key")
    if not 0.0 < hot_threshold < 1.0:
        raise WorkloadError(f"hot_threshold must be in (0, 1), got {hot_threshold}")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, distinct_keys + 1, dtype=np.float64)
    weights = ranks**-skew
    probabilities = weights / weights.sum()
    keys_s = rng.choice(distinct_keys, size=tuples_per_table, p=probabilities)
    counts_s = np.bincount(keys_s, minlength=distinct_keys)
    hot = np.flatnonzero(counts_s > hot_threshold * tuples_per_table)
    keys_r_background = rng.integers(0, distinct_keys, size=tuples_per_table)
    probe_rows = [
        np.full(
            int(np.ceil(probe_factor * counts_s[key] / num_nodes)), key, dtype=np.int64
        )
        for key in hot
    ]
    keys_r = np.concatenate([keys_r_background.astype(np.int64)] + probe_rows)
    cluster = Cluster(num_nodes)
    table_r = cluster.table_from_assignment(
        "R",
        _schema_for_row_bytes(row_bytes_r),
        keys_r,
        random_uniform(len(keys_r), num_nodes, seed=seed * 17 + 1),
    )
    table_s = cluster.table_from_assignment(
        "S",
        _schema_for_row_bytes(row_bytes_s),
        keys_s.astype(np.int64),
        random_uniform(tuples_per_table, num_nodes, seed=seed * 17 + 2),
    )
    return Workload(
        name=f"hot-key-{skew}",
        cluster=cluster,
        table_r=table_r,
        table_s=table_s,
        scale=1.0,
        expected_output_rows=_frequency_dot(keys_r, keys_s, distinct_keys),
        notes=(
            f"{tuples_per_table} build tuples over {distinct_keys} keys, "
            f"zipf skew {skew}, {len(hot)} hot keys amplified on the probe side"
        ),
    )
