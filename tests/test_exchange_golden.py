"""Golden-equivalence suite for the exchange-operator rewiring.

The fixtures in ``tests/golden/exchange_golden.json`` were captured from
the pre-refactor operator implementations — the hand-rolled
scatter/broadcast/migrate/gather loops each join used to carry before
:mod:`repro.exchange` existed.  Every rewired operator must reproduce,
for worker counts 1, 4, and 8 on an 8-node cluster:

- a byte-identical :class:`~repro.cluster.network.TrafficLedger`
  (total bytes, per-class breakdown, local-copy bytes, message count,
  and the full per-link byte map);
- an identical :class:`~repro.timing.profile.ExecutionProfile`
  (step names, kinds, rate classes, and per-node byte vectors);
- a row-for-row identical output (same rows, same order, same dtypes).

Regenerate with ``REPRO_REGEN_GOLDEN=1 pytest tests/test_exchange_golden.py``
only when intentionally changing accounting semantics — never to paper
over an equivalence break.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import Cluster, JoinSpec
from repro.cluster.network import TrafficLedger
from repro.core.track_join import TrackJoin
from repro.joins.broadcast import BroadcastJoin
from repro.joins.grace_hash import GraceHashJoin
from repro.joins.semijoin import SemiJoinFilteredJoin
from repro.joins.tracking_aware import LateMaterializationHashJoin, TrackingAwareHashJoin
from repro.parallel import current
from repro.storage.schema import Column, Schema
from repro.storage.table import LocalPartition

GOLDEN_PATH = Path(__file__).parent / "golden" / "exchange_golden.json"
NUM_NODES = 8
WORKER_COUNTS = (1, 4, 8)


# ---------------------------------------------------------------------------
# Deterministic workload
# ---------------------------------------------------------------------------


def _tables(cluster: Cluster):
    """Two overlapping tables with repetition, skew, and multi-column payloads."""
    rng = np.random.default_rng(7)
    keys_r = rng.integers(0, 600, 2500)
    # A hot key with heavy repetition on both sides exercises migration
    # (4TJ) and per-key direction choices (3TJ).
    keys_r = np.concatenate([keys_r, np.full(120, 42)])
    keys_s = np.concatenate(
        [rng.integers(200, 800, 3000), np.full(260, 42), np.full(90, 250)]
    )
    schema_r = Schema(
        (Column("key", bits=30),),
        (Column("amount", bits=64), Column("cust", bits=24)),
    )
    schema_s = Schema((Column("key", bits=30),), (Column("qty", bits=40),))
    table_r = cluster.table_from_assignment(
        "R",
        schema_r,
        keys_r,
        rng.integers(0, NUM_NODES, len(keys_r)),
        columns={
            "amount": rng.integers(0, 1 << 20, len(keys_r)),
            "cust": rng.integers(0, 200, len(keys_r)),
        },
    )
    table_s = cluster.table_from_assignment(
        "S",
        schema_s,
        keys_s,
        rng.integers(0, NUM_NODES, len(keys_s)),
        columns={"qty": rng.integers(1, 100, len(keys_s))},
    )
    return table_r, table_s


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------


def _ledger_fingerprint(ledger: TrafficLedger) -> dict:
    links = sorted((f"{s}->{d}", b) for (s, d), b in ledger.by_link.items() if b)
    link_digest = hashlib.sha256(
        "".join(f"{k}:{b!r};" for k, b in links).encode()
    ).hexdigest()
    return {
        "total": ledger.total_bytes,
        "local": ledger.local_bytes,
        "messages": ledger.message_count,
        "breakdown": {k: v for k, v in ledger.breakdown().items() if v},
        "links": link_digest,
    }


def _profile_fingerprint(profile) -> str:
    digest = hashlib.sha256()
    for step in profile.steps:
        digest.update(
            f"{step.name}|{step.kind}|{step.rate_class}|".encode()
        )
        digest.update(step.per_node_bytes.astype(np.float64).tobytes())
    return digest.hexdigest()


def _output_fingerprint(partitions: list[LocalPartition]) -> dict:
    """Row-for-row digest: node order, row order, dtypes all matter."""
    digest = hashlib.sha256()
    rows = 0
    for partition in partitions:
        rows += partition.num_rows
        digest.update(f"part|{partition.num_rows}|".encode())
        digest.update(str(partition.keys.dtype).encode())
        digest.update(np.ascontiguousarray(partition.keys).tobytes())
        for name in sorted(partition.columns):
            values = np.ascontiguousarray(partition.columns[name])
            digest.update(f"{name}|{values.dtype}|".encode())
            digest.update(values.tobytes())
    return {"rows": rows, "hash": digest.hexdigest()}


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


def _join_case(factory, spec: JoinSpec | None = None):
    def run(cluster: Cluster) -> dict:
        table_r, table_s = _tables(cluster)
        result = factory().run(cluster, table_r, table_s, spec or JoinSpec())
        return {
            "traffic": _ledger_fingerprint(result.traffic),
            "profile": _profile_fingerprint(result.profile),
            "output": _output_fingerprint(result.output),
        }

    return run


CASES = {
    "HJ": _join_case(GraceHashJoin),
    "BJ-R": _join_case(lambda: BroadcastJoin("R")),
    "BJ-S": _join_case(lambda: BroadcastJoin("S")),
    "2TJ-R": _join_case(lambda: TrackJoin("2TJ-R")),
    "2TJ-S": _join_case(lambda: TrackJoin("2TJ-S")),
    "3TJ": _join_case(lambda: TrackJoin("3TJ")),
    "4TJ": _join_case(lambda: TrackJoin("4TJ")),
    "4TJ-grouped": _join_case(
        lambda: TrackJoin("4TJ"), JoinSpec(group_locations=True, delta_keys=True)
    ),
    "4TJ-bal": _join_case(lambda: TrackJoin("4TJ-bal")),
    "4TJ-shard": _join_case(lambda: TrackJoin("4TJ-shard")),
    "LMHJ": _join_case(LateMaterializationHashJoin),
    "TAHJ": _join_case(TrackingAwareHashJoin),
    "BF+HJ": _join_case(lambda: SemiJoinFilteredJoin(GraceHashJoin())),
    "BF+3TJ": _join_case(lambda: SemiJoinFilteredJoin(TrackJoin("3TJ"))),
}


def _run_case(name: str, workers: int) -> dict:
    # The golden pins strict-barrier profiles; chunk rows stay ambient.
    config = replace(current(), workers=workers, pipeline_depth=1)
    cluster = Cluster(NUM_NODES, config=config)
    try:
        return CASES[name](cluster)
    finally:
        cluster.executor.close()


# ---------------------------------------------------------------------------
# Regeneration and tests
# ---------------------------------------------------------------------------


def _regenerate() -> dict:
    golden = {name: _run_case(name, workers=1) for name in CASES}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return golden


if os.environ.get("REPRO_REGEN_GOLDEN") == "1":  # pragma: no cover - tooling
    _regenerate()


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        "golden fixture missing; run REPRO_REGEN_GOLDEN=1 pytest "
        "tests/test_exchange_golden.py against the reference implementation"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_operator_matches_golden(golden, name, workers):
    expected = golden[name]
    actual = _run_case(name, workers)
    assert actual["traffic"] == expected["traffic"], (
        f"{name} (workers={workers}): traffic ledger diverged from the "
        "pre-refactor reference"
    )
    assert actual["profile"] == expected["profile"], (
        f"{name} (workers={workers}): execution profile diverged"
    )
    assert actual["output"] == expected["output"], (
        f"{name} (workers={workers}): output rows diverged"
    )


def test_golden_covers_every_operator(golden):
    assert sorted(golden) == sorted(CASES)
