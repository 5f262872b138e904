"""S3: concurrent queries are byte-identical to solo runs.

Every query the service runs — at any worker count, cold-compiled or
from the plan cache — must produce the same traffic ledger (per message
class and per link), the same operator stats, the same deterministic
profile steps, and the same output rows as the identical query executed
alone on a private cluster.  This is the isolation contract that makes
the serve layer's multiplexing safe: sharing the warm executor and the
compiled plan shares *capacity*, never *state*.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Cluster, JoinSpec
from repro.query import compile_plan
from repro.serve import QueryRequest, QueryService

from serving import serve_query_mix, serve_tables

NUM_NODES = 4
WORKER_COUNTS = (1, 4, 8)


def canonical_result(result) -> tuple:
    """Everything deterministic about a QueryResult, bytes included.

    Profile ``steps`` are part of the signature (they are committed in
    task order, so they are bit-identical across worker counts);
    wall-clock ``phase_timings`` are explicitly excluded — they are the
    one non-deterministic field.
    """
    ledger_by_class = tuple(
        sorted((cls.name, bytes_) for cls, bytes_ in result.traffic.by_class.items())
    )
    ledger_by_link = tuple(sorted(result.traffic.by_link.items()))
    operators = tuple(
        (op.operator, op.output_rows, op.network_bytes, op.note)
        for op in result.operators
    )
    steps = tuple(
        (step.name, step.kind, step.rate_class, tuple(step.per_node_bytes.tolist()))
        for profile in result.profiles
        for step in profile.steps
    )
    gathered = result.table.gathered()
    names = sorted(gathered.columns)
    order = np.lexsort(
        tuple(gathered.columns[name] for name in reversed(names)) + (gathered.keys,)
    )
    rows = (
        tuple(gathered.keys[order].tolist()),
        tuple(
            (name, tuple(gathered.columns[name][order].tolist())) for name in names
        ),
    )
    return (ledger_by_class, ledger_by_link, operators, steps, rows)


@pytest.fixture(scope="module")
def tables():
    return serve_tables(num_nodes=NUM_NODES, scaled_tuples=1200, seed=5)


@pytest.fixture(scope="module")
def mix(tables):
    return serve_query_mix(tables)


@pytest.fixture(scope="module")
def solo_references(mix):
    """Each plan executed alone, cold, on a private serial cluster."""
    return [
        canonical_result(compile_plan(plan).run(Cluster(NUM_NODES), JoinSpec()))
        for plan in mix
    ]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_concurrent_queries_match_solo_runs(tables, mix, solo_references, workers):
    """Two waves (cold, then cached) at each worker count, all identical."""
    with QueryService(
        tables, workers=workers, backend="thread", max_inflight=4,
        max_queue=4 * len(mix),
    ) as service:
        tickets = service.submit_many(
            QueryRequest(plan=mix[i % len(mix)], tag=f"w{wave}-q{i}")
            for wave in (0, 1)
            for i in range(len(mix))
        )
        outcomes = service.drain(tickets)
        cache_stats = service.stats()["cache"]
    assert all(outcome.ok for outcome in outcomes), [
        outcome.error for outcome in outcomes if not outcome.ok
    ]
    for position, outcome in enumerate(outcomes):
        reference = solo_references[position % len(mix)]
        assert canonical_result(outcome.result) == reference, (
            f"{outcome.tag} diverged from its solo reference "
            f"(workers={workers}, cache_hit={outcome.cache_hit})"
        )
    # The second wave must have come from the plan cache.
    assert cache_stats["hits"] >= len(mix)
    assert any(outcome.cache_hit for outcome in outcomes[len(mix):])
    assert not any(outcome.cache_hit for outcome in outcomes[: len(mix)])


def test_cache_hit_path_identical_to_cold_compile(tables, mix, solo_references):
    """One query repeated: the cached rerun is byte-identical to cold."""
    plan = mix[3]
    with QueryService(tables, workers=1) as service:
        cold = service.submit(plan).outcome()
        warm = service.submit(plan).outcome()
    assert not cold.cache_hit and warm.cache_hit
    assert canonical_result(cold.result) == canonical_result(warm.result)
    assert canonical_result(warm.result) == solo_references[3]


def test_interleaved_distinct_queries_stay_isolated(tables, mix, solo_references):
    """A shuffled interleaving of different plans cross-checks ledgers.

    Queries with different traffic shapes run in flight together; each
    must land exactly on its own solo ledger, proving no query's bytes
    leak into another's accounting.
    """
    order = [3, 7, 2, 8, 4, 3, 7, 5, 6, 2]
    with QueryService(tables, workers=2, max_inflight=3, max_queue=32) as service:
        tickets = service.submit_many(
            QueryRequest(plan=mix[index], tag=f"i{i}")
            for i, index in enumerate(order)
        )
        outcomes = service.drain(tickets)
    for outcome, index in zip(outcomes, order):
        assert outcome.ok, outcome.error
        assert canonical_result(outcome.result) == solo_references[index]
