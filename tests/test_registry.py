"""The operator registry: the one table every consumer reads.

Exactly one algorithm-name table exists (``repro.joins.registry``);
the query executor, the cost-model optimizer, and the experiment
tables all derive their views from it.  These tests pin the registry
contract — names, order, paper labels, cost coverage — and check each
consumer actually goes through it.
"""

from __future__ import annotations

import ast
import inspect

import pytest

from repro.core.track_join import VARIANTS, TrackJoin
from repro.costmodel.optimizer import rank_algorithms
from repro.costmodel.stats import JoinStats
from repro.errors import ReproError, UnknownKeyError, ValidationError
from repro.joins import DistributedJoin, registry
from repro.joins.registry import ALGORITHMS, algorithm, algorithm_names, create

#: Registry order is contractual: the optimizer's stable-sort tie-break
#: and the experiment tables' row order both derive from it.
EXPECTED_ORDER = (
    "BJ-R",
    "BJ-S",
    "HJ",
    "2TJ-R",
    "2TJ-S",
    "3TJ",
    "4TJ",
    "4TJ-bal",
    "4TJ-shard",
)


def _stats() -> JoinStats:
    return JoinStats(
        num_nodes=4,
        tuples_r=10_000,
        tuples_s=40_000,
        distinct_r=5_000,
        distinct_s=8_000,
        key_width=4.0,
        payload_r=8.0,
        payload_s=8.0,
        selectivity_r=0.5,
        selectivity_s=0.4,
    )


class TestRegistryContract:
    def test_names_and_order(self):
        assert algorithm_names() == EXPECTED_ORDER

    def test_factories_build_matching_fresh_operators(self):
        for info in ALGORITHMS:
            first, second = info.factory(), info.factory()
            assert isinstance(first, DistributedJoin)
            assert first.name == info.name
            assert first is not second  # no shared operator state

    def test_paper_labels_in_table_order(self):
        labels = [info.paper_label for info in ALGORITHMS if info.paper_label]
        assert labels == ["HJ", "2TJ", "3TJ", "4TJ"]

    def test_every_entry_has_a_description(self):
        assert all(info.description for info in ALGORITHMS)

    def test_lookup_unknown_name(self):
        with pytest.raises(UnknownKeyError, match="nope"):
            algorithm("nope")
        # The registry error stays catchable as the stdlib type too.
        with pytest.raises(KeyError):
            create("nope")

    def test_tracking_entries_build_their_track_join_variant(self):
        tracking = [info for info in ALGORITHMS if info.tracking]
        assert [info.name for info in tracking] == list(VARIANTS)
        for info in tracking:
            operator = info.factory()
            assert type(operator) is TrackJoin
            assert operator.name == info.name

    def test_unknown_track_join_variant(self):
        with pytest.raises(ValidationError, match="4TJ-shard"):
            TrackJoin("XY")

    def test_registry_imports_at_module_top(self):
        """No deferred import: the registry imports every operator and
        formula it lists when it loads."""
        tree = ast.parse(inspect.getsource(registry))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = [
                    node
                    for node in ast.walk(function)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
                assert not nested, f"import inside {function.name}()"

    def test_costs_are_finite_and_positive(self):
        stats = _stats()
        for info in ALGORITHMS:
            assert info.cost is not None  # every current entry is rankable
            assert info.cost(stats, None) > 0.0


class TestRegistryConsumers:
    def test_optimizer_ranks_the_whole_registry(self):
        ranking = rank_algorithms(_stats())
        assert sorted(e.algorithm for e in ranking) == sorted(EXPECTED_ORDER)
        costs = [e.cost_bytes for e in ranking]
        assert costs == sorted(costs)

    def test_executor_error_lists_registry_names(self):
        import numpy as np

        from repro import Cluster, Schema, random_uniform
        from repro.query import Join, Scan, execute

        cluster = Cluster(2)
        schema = Schema.with_widths(32, 64)
        keys = np.arange(10, dtype=np.int64)
        assignment = random_uniform(10, 2, seed=0)
        left = cluster.table_from_assignment("L", schema, keys, assignment)
        right = cluster.table_from_assignment("R", schema, keys, assignment)
        with pytest.raises(ReproError, match="2TJ-R"):
            execute(Join(Scan(left), Scan(right), algorithm="XJ"), cluster)

    def test_tables_measure_registry_paper_labels(self):
        from repro.experiments import tables

        # run_table2 measures exactly the paper-labeled registry entries.
        assert [
            info.paper_label for info in ALGORITHMS if info.paper_label is not None
        ] == ["HJ", "2TJ", "3TJ", "4TJ"]
        assert tables.ALGORITHMS is ALGORITHMS
