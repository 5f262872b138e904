"""Integration tests: every distributed join produces the same output.

This is the central correctness property of the library — broadcast,
Grace hash, rid-based, Bloom-filtered, and all track join variants are
different *transfer strategies* for the same equi-join, so their output
multisets must be identical on every input.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    BroadcastJoin,
    Cluster,
    GraceHashJoin,
    JoinSpec,
    TrackJoin,
)
from repro.cluster.network import MessageClass
from repro.encoding import DictionaryEncoding
from repro.errors import JoinConfigError
from repro.joins import (
    LateMaterializationHashJoin,
    SemiJoinFilteredJoin,
    TrackingAwareHashJoin,
)
from repro.joins.registry import algorithm_names, create
from repro.parallel import ExecConfig, use
from repro.workloads import hot_key_workload, unique_keys_workload

from conftest import assert_same_output, canonical_output, make_tables, transient_peak


def all_algorithms():
    return [
        GraceHashJoin(),
        BroadcastJoin("R"),
        BroadcastJoin("S"),
        TrackJoin("2TJ-R"),
        TrackJoin("2TJ-S"),
        TrackJoin("3TJ"),
        TrackJoin("4TJ"),
        LateMaterializationHashJoin(),
        TrackingAwareHashJoin(),
        SemiJoinFilteredJoin(GraceHashJoin()),
        SemiJoinFilteredJoin(TrackJoin("4TJ")),
    ]


class TestOutputEquality:
    def test_all_algorithms_agree(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        reference = GraceHashJoin().run(small_cluster, table_r, table_s)
        for algorithm in all_algorithms()[1:]:
            result = algorithm.run(small_cluster, table_r, table_s)
            assert_same_output(reference, result)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(0, 30), min_size=0, max_size=120),
        st.lists(st.integers(0, 30), min_size=0, max_size=120),
        st.integers(2, 6),
        st.integers(0, 100),
    )
    def test_random_inputs_agree(self, keys_r, keys_s, num_nodes, seed):
        cluster = Cluster(num_nodes)
        table_r, table_s = make_tables(
            cluster, np.array(keys_r, dtype=np.int64), np.array(keys_s, dtype=np.int64),
            seed=seed,
        )
        results = [
            algorithm.run(cluster, table_r, table_s)
            for algorithm in (
                GraceHashJoin(),
                TrackJoin("2TJ-R"),
                TrackJoin("2TJ-S"),
                TrackJoin("3TJ"),
                TrackJoin("4TJ"),
                TrackingAwareHashJoin(),
            )
        ]
        for other in results[1:]:
            assert_same_output(results[0], other)

    def test_empty_inputs(self, small_cluster):
        table_r, table_s = make_tables(
            small_cluster, np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        )
        for algorithm in all_algorithms():
            result = algorithm.run(small_cluster, table_r, table_s)
            assert result.output_rows == 0

    def test_disjoint_keys(self, small_cluster):
        table_r, table_s = make_tables(
            small_cluster, np.arange(0, 100), np.arange(1000, 1100)
        )
        for algorithm in all_algorithms():
            assert algorithm.run(small_cluster, table_r, table_s).output_rows == 0

    def test_skewed_single_key(self, small_cluster):
        """One hot key repeated on both sides exercises cartesian output."""
        table_r, table_s = make_tables(
            small_cluster, np.zeros(50, dtype=np.int64), np.zeros(40, dtype=np.int64)
        )
        reference = GraceHashJoin().run(small_cluster, table_r, table_s)
        assert reference.output_rows == 2000
        for algorithm in (TrackJoin("3TJ"), TrackJoin("4TJ"), TrackingAwareHashJoin()):
            assert_same_output(reference, algorithm.run(small_cluster, table_r, table_s))

    def test_single_node_cluster(self):
        cluster = Cluster(1)
        table_r, table_s = make_tables(
            cluster, np.array([1, 2, 2]), np.array([2, 3])
        )
        for algorithm in all_algorithms():
            result = algorithm.run(cluster, table_r, table_s)
            assert result.output_rows == 2
            assert result.network_bytes == 0.0, algorithm.name


class TestTrafficInvariants:
    def test_single_node_no_traffic(self):
        cluster = Cluster(1)
        table_r, table_s = make_tables(cluster, np.arange(100), np.arange(100))
        result = TrackJoin("4TJ").run(cluster, table_r, table_s)
        assert result.network_bytes == 0.0

    def test_hash_join_moves_most_tuples(self, small_cluster, small_tables):
        """Grace hash join moves ~(1 - 1/N) of both tables."""
        table_r, table_s = small_tables
        spec = JoinSpec()
        result = GraceHashJoin().run(small_cluster, table_r, table_s, spec)
        expected = 0.75 * (
            table_r.total_rows * table_r.schema.tuple_width(spec.encoding)
            + table_s.total_rows * table_s.schema.tuple_width(spec.encoding)
        )
        moved = result.class_bytes(MessageClass.R_TUPLES) + result.class_bytes(
            MessageClass.S_TUPLES
        )
        assert moved == pytest.approx(expected, rel=0.1)

    def test_broadcast_replicates_table(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        spec = JoinSpec()
        result = BroadcastJoin("R").run(small_cluster, table_r, table_s, spec)
        expected = (
            table_r.total_rows
            * table_r.schema.tuple_width(spec.encoding)
            * (small_cluster.num_nodes - 1)
        )
        assert result.class_bytes(MessageClass.R_TUPLES) == pytest.approx(expected)
        assert result.class_bytes(MessageClass.S_TUPLES) == 0.0

    def test_track_join_payload_never_exceeds_simple_variants(self, small_cluster):
        """4TJ payload traffic <= each 2TJ direction and 3TJ (optimality)."""
        rng = np.random.default_rng(3)
        table_r, table_s = make_tables(
            small_cluster,
            rng.integers(0, 150, 1200),
            rng.integers(50, 250, 1800),
            seed=5,
        )
        spec = JoinSpec()

        def payload_bytes(result):
            return result.class_bytes(MessageClass.R_TUPLES) + result.class_bytes(
                MessageClass.S_TUPLES
            )

        four = payload_bytes(TrackJoin("4TJ").run(small_cluster, table_r, table_s, spec))
        for simpler in (TrackJoin("2TJ-R"), TrackJoin("2TJ-S"), TrackJoin("3TJ")):
            other = payload_bytes(simpler.run(small_cluster, table_r, table_s, spec))
            assert four <= other + 1e-6, simpler.name

    def test_perfect_collocation_no_payload_traffic(self):
        """Matching tuples all on the same node: 4TJ ships no payloads."""
        cluster = Cluster(4)
        keys = np.arange(400, dtype=np.int64)
        from repro.storage import by_key_hash, Schema

        nodes = by_key_hash(keys, 4, seed=99)
        schema = Schema.with_widths(32, 64)
        table_r = cluster.table_from_assignment("R", schema, keys, nodes)
        table_s = cluster.table_from_assignment("S", schema, keys, nodes)
        result = TrackJoin("4TJ").run(cluster, table_r, table_s)
        assert result.class_bytes(MessageClass.R_TUPLES) == 0.0
        assert result.class_bytes(MessageClass.S_TUPLES) == 0.0
        assert result.output_rows == 400

    def test_traffic_scales_linearly(self):
        """Doubling table size ~doubles every algorithm's traffic."""
        for algorithm_factory in (GraceHashJoin, partial(TrackJoin, "4TJ")):
            totals = []
            for size in (2000, 4000):
                cluster = Cluster(4)
                rng = np.random.default_rng(11)
                table_r, table_s = make_tables(
                    cluster,
                    rng.integers(0, size // 2, size),
                    rng.integers(0, size // 2, size),
                    seed=1,
                )
                result = algorithm_factory().run(cluster, table_r, table_s)
                totals.append(result.network_bytes)
            assert totals[1] == pytest.approx(2 * totals[0], rel=0.05)

    def test_no_pending_messages_after_join(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        for algorithm in all_algorithms():
            algorithm.run(small_cluster, table_r, table_s)
            assert small_cluster.network.pending_messages() == 0


class TestJoinConfig:
    def test_wrong_cluster_size_rejected(self, small_tables):
        table_r, table_s = small_tables
        other = Cluster(7)
        with pytest.raises(JoinConfigError):
            GraceHashJoin().run(other, table_r, table_s)

    def test_materialize_false_keeps_counts(self, small_cluster, small_tables):
        """Counting runs equal materialized ones in everything but rows.

        Every registry operator and the semi-join wrapper, without and
        with hot keys: no output kept, the same row count (the
        generator's, where it states one), and byte-identical traffic
        and profile steps — the steps carry every modelled second, so
        they pin ``tj4_modelled_s``.
        """
        hot = hot_key_workload(num_nodes=8, tuples_per_table=4_000, distinct_keys=400)
        assert hot.expected_output_rows == 535_298
        inputs = {
            "small": (small_cluster, *small_tables, None),
            "hot": (hot.cluster, hot.table_r, hot.table_s, hot.expected_output_rows),
        }

        def fingerprint(result):
            return (
                result.output_rows,
                result.traffic.by_class,
                result.traffic.by_link,
                [
                    (step.name, step.kind, step.rate_class, step.per_node_bytes.tobytes())
                    for step in result.profile.steps
                ],
            )

        operators = {name: partial(create, name) for name in algorithm_names()}
        operators["BF+4TJ"] = lambda: SemiJoinFilteredJoin(create("4TJ"))
        for label, (cluster, table_r, table_s, expected_rows) in inputs.items():
            for name, make in operators.items():
                for workers in (1, 4) if name in ("HJ", "4TJ") else (1,):
                    config = replace(cluster.config, workers=workers)
                    with Cluster(cluster.num_nodes, config=config) as on:
                        full = make().run(on, table_r, table_s)
                        lean = make().run(on, table_r, table_s, JoinSpec(materialize=False))
                    context = f"{name} on {label}, {workers} worker(s)"
                    assert lean.output is None, context
                    assert fingerprint(lean) == fingerprint(full), context
                    if expected_rows is not None:
                        assert lean.output_rows == expected_rows, context
                    with pytest.raises(JoinConfigError):
                        lean.gathered_output()

    def test_materialize_false_memory_is_bounded_by_the_input(self):
        """A counting run never allocates in proportion to its output.

        1.3 MB of keys join to 18.7 M rows (0.6 GB materialized); a
        warmed counting run of the hash join, the 4-phase track joins
        and both broadcast joins — whose replicated table is the same
        1.3 MB here — stays under 32 MB.
        """
        workload = hot_key_workload(16, 40_000, 4_000, skew=1.2)
        assert workload.expected_output_rows == 18_693_055
        spec = JoinSpec(materialize=False)
        for name in ("HJ", "4TJ", "4TJ-bal", "4TJ-shard", "BJ-R", "BJ-S"):
            peak, result = transient_peak(create(name), workload, spec)
            assert result.output_rows == workload.expected_output_rows, name
            assert peak < 32 * 2**20, f"{name}: peak {peak / 2**20:.1f} MiB"

    def test_track_join_transient_peak_is_bounded_by_the_input(self):
        """Tracking stores counts, node ids are narrow and pair blocks are
        written in place, so a warmed 2TJ-R / 3TJ / 4TJ / 4TJ-shard run on
        unique keys allocates at most 2.5x its input arrays on top of
        them; hash join, which ships every tuple, at most 1.6x.

        The bounds are the serial engine's, so the cluster is serial
        whatever the environment selects: tracemalloc counts every
        thread's allocations, and with phase and kernel workers running
        at once the peak depends on how their temporaries interleave."""
        with use(ExecConfig()):
            workload = unique_keys_workload(
                16, scaled_tuples=200_000, row_bytes_r=20, row_bytes_s=60, seed=1
            )
        assert workload.cluster.config == ExecConfig()
        input_bytes = sum(
            part.keys.nbytes + sum(values.nbytes for values in part.columns.values())
            for table in (workload.table_r, workload.table_s)
            for part in table.partitions
        )
        spec = JoinSpec(DictionaryEncoding(), materialize=False, group_locations=True)
        for name, bound in (
            ("HJ", 1.6), ("2TJ-R", 2.5), ("3TJ", 2.5), ("4TJ", 2.5), ("4TJ-shard", 2.5)
        ):
            peak, result = transient_peak(create(name), workload, spec)
            assert result.output_rows == workload.expected_output_rows, name
            assert peak <= bound * input_bytes, f"{name}: {peak / input_bytes:.2f}x the input"

    def test_invalid_broadcast_side(self):
        with pytest.raises(ValueError):
            BroadcastJoin("X")

    def test_node_balance_diagnostics(self, small_cluster, small_tables):
        table_r, table_s = small_tables
        result = GraceHashJoin().run(small_cluster, table_r, table_s)
        load = result.profile.node_load
        assert load.send_skew >= 1.0
        assert load.max_sent >= load.mean_sent
