"""Tests for the Section 3 analytic cost model and optimizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Cluster, GraceHashJoin, JoinSpec, TrackJoin
from repro.costmodel import (
    CorrelationClasses,
    JoinStats,
    broadcast_cost,
    correlated_sample,
    estimate_classes,
    filtered_hash_join_cost,
    filtered_late_materialization_cost,
    filtered_track2_cost,
    hash_join_cost,
    late_materialization_cost,
    track2_cost,
    track3_cost,
    track4_cost,
    track_join_beats_hash_join_width_rule,
    tracking_aware_cost,
)
from repro.core.tracking import run_tracking_phase
from repro.costmodel.optimizer import choose_algorithm, rank_algorithms
from repro.errors import CostModelError
from repro.joins.registry import algorithm
from repro.timing.profile import ExecutionProfile

from conftest import make_tables


def unique_key_stats(
    num_nodes=16, tuples=1_000_000, key_width=4.0, payload_r=16.0, payload_s=56.0
):
    return JoinStats(
        num_nodes=num_nodes,
        tuples_r=tuples,
        tuples_s=tuples,
        distinct_r=tuples,
        distinct_s=tuples,
        key_width=key_width,
        payload_r=payload_r,
        payload_s=payload_s,
    )


class TestStats:
    def test_derived_quantities(self):
        stats = JoinStats(
            num_nodes=4,
            tuples_r=1000,
            tuples_s=4000,
            distinct_r=1000,
            distinct_s=500,
            key_width=4,
            payload_r=8,
            payload_s=8,
        )
        assert stats.nodes_per_key_r == 1.0
        assert stats.nodes_per_key_s == 4.0  # min(N, 8)
        assert stats.tuple_width_r == 12

    def test_swapped(self):
        stats = unique_key_stats(payload_r=10, payload_s=20)
        swapped = stats.swapped()
        assert swapped.payload_r == 20 and swapped.payload_s == 10

    def test_validation(self):
        with pytest.raises(CostModelError):
            JoinStats(0, 1, 1, 1, 1, 4, 4, 4)
        with pytest.raises(CostModelError):
            JoinStats(4, 100, 100, 200, 100, 4, 4, 4)  # distinct > tuples
        with pytest.raises(CostModelError):
            JoinStats(4, 100, 100, 100, 100, 4, 4, 4, selectivity_r=1.5)


class TestFormulas:
    def test_hash_join_cost(self):
        stats = unique_key_stats()
        expected = 1e6 * (4 + 16) + 1e6 * (4 + 56)
        assert hash_join_cost(stats) == pytest.approx(expected)
        discounted = hash_join_cost(stats, include_local_discount=True)
        assert discounted == pytest.approx(expected * 15 / 16)

    def test_broadcast_cost(self):
        stats = unique_key_stats()
        assert broadcast_cost(stats, "R") == pytest.approx(1e6 * 20 * 15)
        assert broadcast_cost(stats, "S") == pytest.approx(1e6 * 60 * 15)
        with pytest.raises(CostModelError):
            broadcast_cost(stats, "Q")

    def test_track2_unique_keys(self):
        """With unique keys, 2TJ-R ~ tracking + locations + R tuples once."""
        stats = unique_key_stats()
        cost = track2_cost(stats, "RS")
        tracking = 2 * 1e6 * 4
        locations = 1e6 * 4
        tuples = 1e6 * 20
        assert cost == pytest.approx(tracking + locations + tuples)

    def test_track2_directions_differ(self):
        stats = unique_key_stats(payload_r=10, payload_s=100)
        assert track2_cost(stats, "RS") < track2_cost(stats, "SR")

    def test_track3_default_picks_cheaper(self):
        stats = unique_key_stats(payload_r=10, payload_s=100)
        assert track3_cost(stats) <= track3_cost(
            stats, CorrelationClasses(rs=0.5, sr=0.5)
        )

    def test_track3_rejects_hashlike_class(self):
        with pytest.raises(CostModelError):
            track3_cost(unique_key_stats(), CorrelationClasses(rs=0.5, sr=0.3, hashlike=0.2))

    def test_correlation_classes_validation(self):
        with pytest.raises(CostModelError):
            CorrelationClasses(rs=0.5, sr=0.6)

    def test_track4_with_hashlike_class(self):
        stats = unique_key_stats()
        mixed = track4_cost(stats, CorrelationClasses(rs=0.4, sr=0.4, hashlike=0.2))
        assert mixed > 0

    def test_width_rule(self):
        assert track_join_beats_hash_join_width_rule(unique_key_stats(payload_s=56))
        assert not track_join_beats_hash_join_width_rule(
            unique_key_stats(payload_r=4.0, payload_s=6.0)
        )

    def test_late_materialization_formulas(self):
        stats = unique_key_stats()
        output = 1e6
        late = late_materialization_cost(stats, output)
        aware = tracking_aware_cost(stats, output)
        assert aware < late  # min(w) + wk < wR + wS here

    def test_filtered_costs_positive_and_ordered(self):
        stats = JoinStats(
            num_nodes=8,
            tuples_r=1e6,
            tuples_s=1e6,
            distinct_r=1e6,
            distinct_s=1e6,
            key_width=4,
            payload_r=16,
            payload_s=56,
            selectivity_r=0.1,
            selectivity_s=0.1,
        )
        hj = filtered_hash_join_cost(stats, filter_width=1.25, error=0.01)
        lm = filtered_late_materialization_cost(stats, 1.25, 0.01, output_tuples=1e5)
        tj = filtered_track2_cost(stats, 1.25, 0.01)
        assert hj > 0 and lm > 0 and tj > 0
        # Track join sends less than the key column alone after filtering.
        assert tj < hj


class TestFormulaVsSimulation:
    """The analytic formulas must track the simulator on uniform data."""

    def test_hash_join_formula_matches_simulation(self):
        cluster = Cluster(8)
        keys = np.arange(20_000, dtype=np.int64)
        table_r, table_s = make_tables(cluster, keys, keys, 128, 448, seed=1)
        spec = JoinSpec()
        measured = GraceHashJoin().run(cluster, table_r, table_s, spec).network_bytes
        stats = JoinStats(
            num_nodes=8,
            tuples_r=20_000,
            tuples_s=20_000,
            distinct_r=20_000,
            distinct_s=20_000,
            key_width=4,
            payload_r=16,
            payload_s=56,
        )
        predicted = hash_join_cost(stats, include_local_discount=True)
        assert measured == pytest.approx(predicted, rel=0.02)

    def test_track2_formula_matches_simulation(self):
        cluster = Cluster(8)
        keys = np.arange(20_000, dtype=np.int64)
        table_r, table_s = make_tables(cluster, keys, keys, 128, 448, seed=2)
        spec = JoinSpec(location_width=1.0)
        measured = TrackJoin("2TJ-R").run(cluster, table_r, table_s, spec).network_bytes
        stats = JoinStats(
            num_nodes=8,
            tuples_r=20_000,
            tuples_s=20_000,
            distinct_r=20_000,
            distinct_s=20_000,
            key_width=4,
            payload_r=16,
            payload_s=56,
            location_width=1.0,
        )
        predicted = track2_cost(stats, "RS")
        # The formula omits the location-width byte and local discounts,
        # so agreement is approximate but must be within 15%.
        assert measured == pytest.approx(predicted, rel=0.15)


class TestOptimizer:
    def test_broadcast_wins_for_tiny_table(self):
        stats = JoinStats(
            num_nodes=16,
            tuples_r=1000,
            tuples_s=10**8,
            distinct_r=1000,
            distinct_s=10**8,
            key_width=4,
            payload_r=16,
            payload_s=16,
        )
        assert choose_algorithm(stats).algorithm == "BJ-R"

    def test_hash_join_wins_for_narrow_payloads(self):
        stats = unique_key_stats(payload_r=2.0, payload_s=2.0)
        choice = choose_algorithm(stats)
        assert choice.algorithm == "HJ"
        assert "narrow" in choice.note

    def test_track_join_wins_for_wide_payloads(self):
        stats = unique_key_stats(payload_r=16.0, payload_s=56.0)
        choice = choose_algorithm(stats)
        assert choice.algorithm.startswith("2TJ")

    def test_ranking_is_sorted(self):
        ranking = rank_algorithms(unique_key_stats())
        costs = [estimate.cost_bytes for estimate in ranking]
        assert costs == sorted(costs)


class TestShardCost:
    def test_no_skew_matches_track4(self):
        """The cost model has no skew term, so the registry estimates
        4TJ-shard (and 4TJ-bal) at plain 4TJ's cost."""
        stats = JoinStats(16, 100_000, 100_000, 10_000, 10_000, 4, 16, 56)
        for name in ("4TJ-bal", "4TJ-shard"):
            assert algorithm(name).cost(stats, None) == track4_cost(stats)


class TestCorrelatedSampling:
    def test_sample_preserves_join_relationships(self):
        cluster = Cluster(4)
        keys = np.arange(50_000, dtype=np.int64)
        table_r, table_s = make_tables(cluster, keys, keys, seed=7)
        from repro.encoding import DictionaryEncoding

        sample = correlated_sample(table_r, table_s, rate=0.05, encoding=DictionaryEncoding())
        # Every sampled key must appear with both its R and S presence.
        tracking = sample.tracking
        per_key_r, per_key_s = tracking.key_sizes()
        assert (per_key_r > 0).all()
        assert (per_key_s > 0).all()

    @pytest.mark.parametrize("hash_seed", [0, 3])
    def test_full_rate_sample_is_the_tracking_table(self, hash_seed):
        """At rate 1 the sample is the tracking phase's table, column
        for column: both come out of the one tracking merge."""
        cluster = Cluster(5)
        rng = np.random.default_rng(hash_seed)
        table_r, table_s = make_tables(
            cluster, rng.integers(0, 300, 900), rng.integers(100, 400, 700), seed=hash_seed
        )
        spec = JoinSpec(hash_seed=hash_seed)
        tracked = run_tracking_phase(cluster, table_r, table_s, spec, ExecutionProfile(5))
        sampled = correlated_sample(table_r, table_s, 1.0, spec.encoding, hash_seed).tracking
        for name in ("keys", "nodes", "count_r", "count_s", "key_starts", "t_nodes"):
            got, want = getattr(sampled, name), getattr(tracked, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert (sampled.width_r, sampled.width_s) == (tracked.width_r, tracked.width_s)

    def test_estimated_cost_close_to_truth(self):
        cluster = Cluster(4)
        rng = np.random.default_rng(5)
        keys_r = rng.integers(0, 30_000, 60_000)
        keys_s = rng.integers(0, 30_000, 60_000)
        table_r, table_s = make_tables(cluster, keys_r, keys_s, seed=8)
        from repro.encoding import DictionaryEncoding

        encoding = DictionaryEncoding()
        sample = correlated_sample(table_r, table_s, rate=0.2, encoding=encoding)
        classes, estimated = estimate_classes(sample)
        full = correlated_sample(table_r, table_s, rate=1.0, encoding=encoding)
        _, exact = estimate_classes(full)
        assert estimated == pytest.approx(exact, rel=0.15)
        assert classes.rs + classes.sr + classes.hashlike == pytest.approx(1.0)

    def test_invalid_rate(self):
        cluster = Cluster(2)
        table_r, table_s = make_tables(cluster, np.arange(10), np.arange(10))
        from repro.encoding import DictionaryEncoding

        with pytest.raises(CostModelError):
            correlated_sample(table_r, table_s, rate=0.0, encoding=DictionaryEncoding())
