"""Edge-case coverage across subsystems."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Cluster,
    GraceHashJoin,
    JoinSpec,
    Schema,
    TrackJoin,
    paper_cluster_2014,
)
from repro.errors import ReproError
from repro.query import AggregateSpec, run_aggregation
from repro.workloads import Workload, workload_y

from conftest import make_tables


class TestEmptyAndDegenerate:
    def test_aggregation_on_empty_table(self):
        cluster = Cluster(3)
        table = cluster.table_from_assignment(
            "T",
            Schema.with_widths(32, 64),
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            columns={"v": np.array([], dtype=np.int64)},
        )
        result = run_aggregation(cluster, table, [AggregateSpec("n", "count", "v")], JoinSpec())
        assert result.table.total_rows == 0
        assert result.network_bytes == 0.0

    def test_join_one_empty_side(self, small_cluster):
        table_r, table_s = make_tables(
            small_cluster, np.array([], dtype=np.int64), np.arange(100)
        )
        for algorithm in (GraceHashJoin(), TrackJoin("4TJ")):
            assert algorithm.run(small_cluster, table_r, table_s).output_rows == 0

    def test_all_rows_one_node(self):
        """Degenerate placement: everything starts on node 0."""
        cluster = Cluster(4)
        keys = np.arange(500, dtype=np.int64)
        schema = Schema.with_widths(32, 64)
        zeros = np.zeros(500, dtype=np.int64)
        table_r = cluster.table_from_assignment("R", schema, keys, zeros)
        table_s = cluster.table_from_assignment("S", schema, keys, zeros)
        result = TrackJoin("4TJ").run(cluster, table_r, table_s)
        assert result.output_rows == 500
        # All matches are collocated: no payload crosses.
        from repro.cluster import MessageClass

        assert result.class_bytes(MessageClass.R_TUPLES) == 0.0
        assert result.class_bytes(MessageClass.S_TUPLES) == 0.0

    def test_single_hot_key_everywhere(self):
        """One key on every node of both tables: full cartesian output."""
        cluster = Cluster(4)
        schema = Schema.with_widths(32, 64)
        keys = np.zeros(8, dtype=np.int64)
        nodes = np.repeat(np.arange(4), 2).astype(np.int64)
        table_r = cluster.table_from_assignment("R", schema, keys, nodes)
        table_s = cluster.table_from_assignment("S", schema, keys, nodes)
        hashed = GraceHashJoin().run(cluster, table_r, table_s)
        tracked = TrackJoin("4TJ").run(cluster, table_r, table_s)
        assert hashed.output_rows == tracked.output_rows == 64


class TestWorkloadHelpers:
    def test_paper_gb_scaling(self):
        cluster = Cluster(2)
        table_r, table_s = make_tables(cluster, np.arange(10), np.arange(10))
        workload = Workload("w", cluster, table_r, table_s, scale=100.0)
        assert workload.paper_gb(1e7) == pytest.approx(1.0)
        assert workload.num_nodes == 2

    def test_y_implementation_widths(self):
        from repro.encoding import DictionaryEncoding

        wl = workload_y(scale_denominator=2048, implementation_widths=True, num_nodes=4)
        encoding = DictionaryEncoding()
        assert wl.table_r.schema.tuple_width(encoding) == pytest.approx(37)
        assert wl.table_s.schema.tuple_width(encoding) == pytest.approx(47)


class TestModelEdges:
    def test_hardware_model_zero_profile(self):
        from repro.timing import ExecutionProfile

        model = paper_cluster_2014(4)
        profile = ExecutionProfile(4)
        assert model.cpu_seconds(profile) == 0.0
        assert model.network_seconds(profile) == 0.0

    def test_unknown_plan_node(self):
        from repro.query import execute

        class Weird:
            pass

        with pytest.raises(ReproError):
            execute(Weird(), Cluster(2))
