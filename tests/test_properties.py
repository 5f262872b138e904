"""Cross-cutting property tests over the whole join stack."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Cluster,
    GraceHashJoin,
    JoinSpec,
    TrackJoin,
)
from repro.cluster import MessageClass

from conftest import assert_same_output, canonical_output, make_tables


@st.composite
def join_instance(draw):
    """A random join: keys for both sides, cluster size, placement seed."""
    num_nodes = draw(st.integers(2, 6))
    keys_r = draw(st.lists(st.integers(0, 40), min_size=0, max_size=150))
    keys_s = draw(st.lists(st.integers(0, 40), min_size=0, max_size=150))
    seed = draw(st.integers(0, 1000))
    return num_nodes, keys_r, keys_s, seed


class TestDeterminism:
    @settings(max_examples=10, deadline=None)
    @given(join_instance())
    def test_repeated_runs_identical(self, instance):
        num_nodes, keys_r, keys_s, seed = instance
        cluster = Cluster(num_nodes)
        table_r, table_s = make_tables(
            cluster, np.array(keys_r, dtype=np.int64), np.array(keys_s, dtype=np.int64),
            seed=seed,
        )
        first = TrackJoin("4TJ").run(cluster, table_r, table_s)
        second = TrackJoin("4TJ").run(cluster, table_r, table_s)
        assert first.network_bytes == second.network_bytes
        assert first.traffic.by_link == second.traffic.by_link
        assert_same_output(first, second)


class TestOutputInvariance:
    @settings(max_examples=12, deadline=None)
    @given(join_instance(), st.integers(0, 5))
    def test_output_independent_of_hash_seed(self, instance, hash_seed):
        """The join result never depends on where scheduling happens."""
        num_nodes, keys_r, keys_s, seed = instance
        cluster = Cluster(num_nodes)
        table_r, table_s = make_tables(
            cluster, np.array(keys_r, dtype=np.int64), np.array(keys_s, dtype=np.int64),
            seed=seed,
        )
        base = TrackJoin("4TJ").run(cluster, table_r, table_s, JoinSpec(hash_seed=0))
        other = TrackJoin("4TJ").run(cluster, table_r, table_s, JoinSpec(hash_seed=hash_seed))
        assert_same_output(base, other)

    @settings(max_examples=12, deadline=None)
    @given(join_instance())
    def test_output_independent_of_placement(self, instance):
        """Re-placing the same rows never changes the join output."""
        num_nodes, keys_r, keys_s, seed = instance
        outputs = []
        for placement_seed in (seed, seed + 7):
            cluster = Cluster(num_nodes)
            table_r, table_s = make_tables(
                cluster,
                np.array(keys_r, dtype=np.int64),
                np.array(keys_s, dtype=np.int64),
                seed=placement_seed,
            )
            outputs.append(
                canonical_output(TrackJoin("3TJ").run(cluster, table_r, table_s))
            )
        assert outputs[0].shape == outputs[1].shape
        assert np.array_equal(outputs[0], outputs[1])


class TestTrafficMonotonicity:
    @settings(max_examples=10, deadline=None)
    @given(join_instance())
    def test_four_phase_payload_never_exceeds_simpler_variants(self, instance):
        num_nodes, keys_r, keys_s, seed = instance
        cluster = Cluster(num_nodes)
        table_r, table_s = make_tables(
            cluster, np.array(keys_r, dtype=np.int64), np.array(keys_s, dtype=np.int64),
            seed=seed,
        )
        spec = JoinSpec()

        def optimized_bytes(result):
            # The 4-phase per-key optimum minimizes payload PLUS location
            # bytes, so only their sum is monotone: a key may pay a few
            # more payload bytes to avoid sending its location list.
            return (
                result.class_bytes(MessageClass.R_TUPLES)
                + result.class_bytes(MessageClass.S_TUPLES)
                + result.class_bytes(MessageClass.KEYS_NODES)
            )

        four = optimized_bytes(TrackJoin("4TJ").run(cluster, table_r, table_s, spec))
        for simpler in (TrackJoin("2TJ-R"), TrackJoin("2TJ-S"), TrackJoin("3TJ")):
            assert (
                four
                <= optimized_bytes(simpler.run(cluster, table_r, table_s, spec)) + 1e-9
            )

    @settings(max_examples=8, deadline=None)
    @given(join_instance())
    def test_wider_payloads_cost_more(self, instance):
        """Traffic is monotone in payload width for every algorithm."""
        num_nodes, keys_r, keys_s, seed = instance
        for algorithm_factory in (GraceHashJoin, partial(TrackJoin, "4TJ")):
            totals = []
            for payload_bits in (32, 256):
                cluster = Cluster(num_nodes)
                table_r, table_s = make_tables(
                    cluster,
                    np.array(keys_r, dtype=np.int64),
                    np.array(keys_s, dtype=np.int64),
                    payload_bits_r=payload_bits,
                    payload_bits_s=payload_bits,
                    seed=seed,
                )
                totals.append(
                    algorithm_factory().run(cluster, table_r, table_s).network_bytes
                )
            assert totals[0] <= totals[1] + 1e-9


class TestLedgerConsistency:
    @settings(max_examples=10, deadline=None)
    @given(join_instance())
    def test_ledger_equals_profile_network_bytes(self, instance):
        """Two independent accountings of the same run must agree."""
        num_nodes, keys_r, keys_s, seed = instance
        cluster = Cluster(num_nodes)
        table_r, table_s = make_tables(
            cluster, np.array(keys_r, dtype=np.int64), np.array(keys_s, dtype=np.int64),
            seed=seed,
        )
        for algorithm in (GraceHashJoin(), TrackJoin("4TJ")):
            result = algorithm.run(cluster, table_r, table_s)
            assert result.profile.total_network_bytes() == pytest.approx(
                result.network_bytes
            )

    @settings(max_examples=10, deadline=None)
    @given(join_instance())
    def test_per_node_sums_match_total(self, instance):
        num_nodes, keys_r, keys_s, seed = instance
        cluster = Cluster(num_nodes)
        table_r, table_s = make_tables(
            cluster, np.array(keys_r, dtype=np.int64), np.array(keys_s, dtype=np.int64),
            seed=seed,
        )
        result = TrackJoin("4TJ").run(cluster, table_r, table_s)
        sent = sum(result.traffic.sent_by_node.values())
        received = sum(result.traffic.received_by_node.values())
        assert sent == pytest.approx(result.network_bytes)
        assert received == pytest.approx(result.network_bytes)
