"""Surrogates for the paper's commercial workloads X and Y.

The originals are proprietary ("extracted from a corpus of commercial
analytical workloads"), so we synthesize inputs matching every published
statistic:

* **Workload X** (Figures 7-9, Tables 1-4): the slowest join of the five
  slowest queries.  Table 1 gives exact cardinalities and minimum-bit
  dictionary widths for every column of Q1; Q2-Q5 share the same key
  columns and differ in payload width (total bits 79:145, 67:120,
  60:126, 67:131, 69:145).  Keys are almost entirely unique on both
  sides and ~95% of R rows find a match (output 730,073,001).

* **Workload Y** (Figures 10-11): 57,119,489 x 141,312,688 tuples with
  1,068,159,117 output rows — heavy key repetition (output is 5.4x the
  input cardinality, uniformly per key), 37/47-byte variable-byte
  tuples dominated by a 23-byte character column.

"Original tuple ordering" exhibits partial pre-existing collocation of
matching tuples, modeled by anchoring each key on a node (hashed with a
seed *different* from the join's hash seed, so hash join gains nothing)
and placing each row there with probability ``locality``.  "Shuffled"
runs place every row uniformly at random, exactly like the paper's
shuffle that removes all locality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.cluster import Cluster
from ..errors import WorkloadError
from ..storage.schema import Column, Schema
from ..util import hash_partition
from .base import Workload

__all__ = [
    "X_PAPER",
    "Y_PAPER",
    "XColumnStat",
    "workload_x",
    "workload_y",
    "x_query_schemas",
]

#: Seed stream for key anchoring; deliberately distinct from the default
#: join hash seed (0) so "original ordering" locality is invisible to
#: hash join, matching Figures 7 vs 8 where HJ traffic is unchanged.
_ANCHOR_SEED = 0xA17C


@dataclass(frozen=True)
class XColumnStat:
    """One row of the paper's Table 1."""

    name: str
    distinct: int
    bits: int
    decimal_digits: int
    is_key: bool = False


#: Table 1 of the paper, plus plausible decimal digit counts for the
#: uncompressed base-100 representation (the paper states the raw values
#: exceed the 32-bit range, hence keys at ~12 digits).
X_TABLE1_R: tuple[XColumnStat, ...] = (
    XColumnStat("J.ID", 769_785_856, 30, 12, is_key=True),
    XColumnStat("T.ID", 53, 6, 2),
    XColumnStat("J.T.AMT", 9_824_256, 24, 9),
    XColumnStat("T.C.ID", 297_952, 19, 7),
)
X_TABLE1_S: tuple[XColumnStat, ...] = (
    XColumnStat("J.ID", 788_463_616, 30, 12, is_key=True),
    XColumnStat("T.ID", 53, 6, 2),
    XColumnStat("S.B.ID", 95, 7, 2),
    XColumnStat("O.U.AMT", 26_308_608, 25, 9),
    XColumnStat("C.ID", 359, 9, 3),
    XColumnStat("T.B.C.ID", 233_040, 18, 7),
    XColumnStat("S.C.AMT", 11_278_336, 24, 9),
    XColumnStat("M.U.AMT", 54_407_160, 26, 10),
)

#: Published top-level statistics of both workloads.
X_PAPER = {
    "tuples_r": 769_845_120,
    "tuples_s": 790_963_741,
    "distinct_r": 769_785_856,
    "distinct_s": 788_463_616,
    "output": 730_073_001,
    # Total dictionary bits per tuple (R:S) for queries Q1-Q5 (Fig 9).
    "query_bits": {1: (79, 145), 2: (67, 120), 3: (60, 126), 4: (67, 131), 5: (69, 145)},
}
Y_PAPER = {
    "tuples_r": 57_119_489,
    "tuples_s": 141_312_688,
    "output": 1_068_159_117,
    "row_bytes_r": 37,
    "row_bytes_s": 47,
}


def x_query_schemas(query: int) -> tuple[Schema, Schema]:
    """Schemas of the X join for query ``query`` (1-5).

    Q1 carries the full Table 1 column set; Q2-Q5 share Q1's key column
    and aggregate their payloads into one column with the published
    total width.
    """
    if query not in X_PAPER["query_bits"]:
        raise WorkloadError(f"workload X has queries 1-5, got {query}")
    if query == 1:
        r_cols = tuple(
            Column(c.name, bits=c.bits, decimal_digits=c.decimal_digits)
            for c in X_TABLE1_R
        )
        s_cols = tuple(
            Column(c.name, bits=c.bits, decimal_digits=c.decimal_digits)
            for c in X_TABLE1_S
        )
        return (
            Schema(key_columns=(r_cols[0],), payload_columns=r_cols[1:]),
            Schema(key_columns=(s_cols[0],), payload_columns=s_cols[1:]),
        )
    bits_r, bits_s = X_PAPER["query_bits"][query]
    key = Column("J.ID", bits=30, decimal_digits=12)
    return (
        Schema((key,), (Column("payload", bits=bits_r - 30),)),
        Schema((key,), (Column("payload", bits=bits_s - 30),)),
    )


def _implementation_schema(key_bytes: int, payload_bytes: int) -> Schema:
    """Fixed-width schema of the paper's C++ implementation (Sec 4.2)."""
    return Schema.with_widths(key_bytes * 8, payload_bytes * 8)


def _locality_assignment(
    keys: np.ndarray, num_nodes: int, locality: float, seed: int
) -> np.ndarray:
    """Uniform placement with a ``locality`` fraction pinned to key anchors."""
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, num_nodes, size=len(keys), dtype=np.int64)
    if locality > 0:
        pinned = rng.random(len(keys)) < locality
        anchors = hash_partition(keys, num_nodes, seed=_ANCHOR_SEED)
        assignment[pinned] = anchors[pinned]
    return assignment


def _scaled_distinct(paper_distinct: int, fraction: float) -> int:
    """Scale a column's distinct count; small dimensions keep theirs."""
    if paper_distinct <= 1000:
        return paper_distinct
    return max(1000, round(paper_distinct * fraction))


def _payload_columns(
    stats: tuple[XColumnStat, ...], num_rows: int, fraction: float, rng
) -> dict[str, np.ndarray]:
    """Generate payload column values with scaled distinct counts."""
    columns: dict[str, np.ndarray] = {}
    for stat in stats:
        if stat.is_key:
            continue
        domain = _scaled_distinct(stat.distinct, fraction)
        columns[stat.name] = rng.integers(0, domain, size=num_rows, dtype=np.int64)
    return columns


def workload_x(
    query: int = 1,
    num_nodes: int = 16,
    scale_denominator: int = 512,
    ordering: str = "original",
    locality: float = 0.85,
    seed: int = 0,
    implementation_widths: bool = False,
) -> Workload:
    """The slowest join of workload X's query ``query`` (1-5).

    Parameters
    ----------
    ordering:
        ``"original"`` applies ``locality`` collocation of matching
        tuples; ``"shuffled"`` places rows uniformly at random.
    implementation_widths:
        Use the C++ implementation's fixed widths (4-byte keys, 7/18
        byte payloads — Section 4.2) instead of the Table 1 schemas;
        for the Table 2-4 timing reproductions on 4 nodes.
    """
    if ordering not in ("original", "shuffled"):
        raise WorkloadError(f"ordering must be 'original' or 'shuffled', got {ordering!r}")
    fraction = 1.0 / scale_denominator
    tuples_r = round(X_PAPER["tuples_r"] * fraction)
    tuples_s = round(X_PAPER["tuples_s"] * fraction)
    distinct_r = round(X_PAPER["distinct_r"] * fraction)
    distinct_s = round(X_PAPER["distinct_s"] * fraction)
    matched = round(X_PAPER["output"] * fraction)
    if matched > min(distinct_r, distinct_s):
        raise WorkloadError("inconsistent scaled cardinalities for workload X")

    rng = np.random.default_rng(seed)
    # Key universe: [0, matched) match on both sides; then R-only and
    # S-only ranges.  Duplicated rows draw uniformly from each table's
    # distinct set, preserving the tiny key repetition of the original.
    r_distinct_keys = np.arange(distinct_r, dtype=np.int64)
    s_only = np.arange(distinct_s - matched, dtype=np.int64) + distinct_r
    s_distinct_keys = np.concatenate([np.arange(matched, dtype=np.int64), s_only])
    keys_r = np.concatenate(
        [r_distinct_keys, rng.choice(r_distinct_keys, tuples_r - distinct_r)]
    )
    keys_s = np.concatenate(
        [s_distinct_keys, rng.choice(s_distinct_keys, tuples_s - distinct_s)]
    )
    rng.shuffle(keys_r)
    rng.shuffle(keys_s)

    if implementation_widths:
        schema_r = _implementation_schema(4, 7)
        schema_s = _implementation_schema(4, 18)
        columns_r: dict[str, np.ndarray] | None = None
        columns_s: dict[str, np.ndarray] | None = None
    else:
        schema_r, schema_s = x_query_schemas(query)
        if query == 1:
            columns_r = _payload_columns(X_TABLE1_R, len(keys_r), fraction, rng)
            columns_s = _payload_columns(X_TABLE1_S, len(keys_s), fraction, rng)
        else:
            columns_r = {"payload": rng.integers(0, 1 << 31, len(keys_r), dtype=np.int64)}
            columns_s = {"payload": rng.integers(0, 1 << 31, len(keys_s), dtype=np.int64)}

    effective_locality = locality if ordering == "original" else 0.0
    cluster = Cluster(num_nodes)
    table_r = cluster.table_from_assignment(
        "R",
        schema_r,
        keys_r,
        _locality_assignment(keys_r, num_nodes, effective_locality, seed * 3 + 1),
        columns=columns_r,
    )
    table_s = cluster.table_from_assignment(
        "S",
        schema_s,
        keys_s,
        _locality_assignment(keys_s, num_nodes, effective_locality, seed * 3 + 2),
        columns=columns_s,
    )
    return Workload(
        name=f"X-Q{query}-{ordering}",
        cluster=cluster,
        table_r=table_r,
        table_s=table_s,
        scale=scale_denominator,
        expected_output_rows=None,
        notes=(
            f"workload X Q{query} surrogate at 1/{scale_denominator} scale, "
            f"{ordering} ordering (locality={effective_locality})"
        ),
    )


def _two_anchor_assignment(
    keys: np.ndarray,
    num_nodes: int,
    locality: float,
    primary_share: float,
    seed: int,
) -> np.ndarray:
    """Placement concentrating each key's tuples on two anchor nodes.

    A ``locality`` fraction of rows lands on the key's primary anchor
    (with probability ``primary_share``) or secondary anchor; the rest
    are uniform.  Workload Y's original ordering behaves this way: all
    track join variants perform alike because each key already occupies
    very few nodes and migration cannot consolidate further.
    """
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, num_nodes, size=len(keys), dtype=np.int64)
    if locality <= 0 or num_nodes == 1:
        return assignment
    primary = hash_partition(keys, num_nodes, seed=_ANCHOR_SEED)
    if num_nodes > 1:
        offset = (hash_partition(keys, num_nodes - 1, seed=_ANCHOR_SEED + 1) + 1).astype(
            np.int64
        )
        secondary = (primary + offset) % num_nodes
    else:  # pragma: no cover - guarded above
        secondary = primary
    pinned = rng.random(len(keys)) < locality
    use_primary = rng.random(len(keys)) < primary_share
    anchors = np.where(use_primary, primary, secondary)
    assignment[pinned] = anchors[pinned]
    return assignment


def workload_y(
    num_nodes: int = 16,
    scale_denominator: int = 128,
    ordering: str = "original",
    locality: float = 0.95,
    primary_share: float = 0.7,
    seed: int = 0,
    implementation_widths: bool = False,
    repeats_r: int = 11,
    repeats_s: int = 27,
) -> Workload:
    """The slowest join of workload Y's slowest query.

    The paper describes Y as a high-output-selectivity join (output is
    5.4x the input cardinality, "which also applies per distinct join
    key") whose 2-phase selective broadcast degenerates to almost a full
    broadcast when shuffled, while 4-phase still beats hash join by 28%.
    The published cardinalities admit that behaviour only with *partial
    input selectivity*: a core of matched keys repeating heavily on both
    sides, plus unmatched single-occurrence keys in each table.  We use
    ``repeats_r x repeats_s`` matched multiplicities (defaults 11 x 27,
    close to the tables' 1:2.47 size ratio); the matched key count
    follows from the published output, and the unmatched remainders fill
    each table to its published cardinality.
    """
    if ordering not in ("original", "shuffled"):
        raise WorkloadError(f"ordering must be 'original' or 'shuffled', got {ordering!r}")
    fraction = 1.0 / scale_denominator
    matched_keys = max(1, round(Y_PAPER["output"] / (repeats_r * repeats_s) * fraction))
    tuples_r = round(Y_PAPER["tuples_r"] * fraction)
    tuples_s = round(Y_PAPER["tuples_s"] * fraction)
    unmatched_r = tuples_r - matched_keys * repeats_r
    unmatched_s = tuples_s - matched_keys * repeats_s
    if unmatched_r < 0 or unmatched_s < 0:
        raise WorkloadError(
            f"matched multiplicities {repeats_r}x{repeats_s} exceed the "
            "published table cardinalities"
        )

    matched = np.arange(matched_keys, dtype=np.int64)
    keys_r = np.concatenate(
        [
            np.repeat(matched, repeats_r),
            np.arange(unmatched_r, dtype=np.int64) + matched_keys,
        ]
    )
    keys_s = np.concatenate(
        [
            np.repeat(matched, repeats_s),
            np.arange(unmatched_s, dtype=np.int64) + matched_keys + unmatched_r,
        ]
    )
    expected_output = matched_keys * repeats_r * repeats_s

    if implementation_widths:
        schema_r = _implementation_schema(4, 33)
        schema_s = _implementation_schema(4, 43)
    else:
        key = Column("key", bits=27, decimal_digits=8)
        schema_r = Schema(
            (key,),
            (
                Column("name", char_length=23),
                Column("amt1", bits=30, decimal_digits=9),
                Column("amt2", bits=30, decimal_digits=9),
            ),
        )
        schema_s = Schema(
            (key,),
            (
                Column("name", char_length=23),
                Column("amt1", bits=30, decimal_digits=9),
                Column("amt2", bits=30, decimal_digits=9),
                Column("amt3", bits=30, decimal_digits=9),
                Column("amt4", bits=30, decimal_digits=9),
            ),
        )

    effective_locality = locality if ordering == "original" else 0.0
    cluster = Cluster(num_nodes)
    table_r = cluster.table_from_assignment(
        "R",
        schema_r,
        keys_r,
        _two_anchor_assignment(
            keys_r, num_nodes, effective_locality, primary_share, seed * 5 + 1
        ),
    )
    table_s = cluster.table_from_assignment(
        "S",
        schema_s,
        keys_s,
        _two_anchor_assignment(
            keys_s, num_nodes, effective_locality, primary_share, seed * 5 + 2
        ),
    )
    return Workload(
        name=f"Y-{ordering}",
        cluster=cluster,
        table_r=table_r,
        table_s=table_s,
        scale=scale_denominator,
        expected_output_rows=expected_output,
        notes=(
            f"workload Y surrogate at 1/{scale_denominator} scale, {ordering} "
            f"ordering (locality={effective_locality}), {matched_keys} matched keys "
            f"at {repeats_r}x{repeats_s} repeats"
        ),
    )
