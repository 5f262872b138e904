"""Tests for the workload generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro import GraceHashJoin, JoinSpec
from repro.encoding import DictionaryEncoding, FixedByteEncoding, VarByteEncoding
from repro.errors import WorkloadError
from repro.workloads import (
    PATTERN_COLLOCATED,
    PATTERN_PARTIAL,
    PATTERN_SPREAD,
    X_PAPER,
    Y_PAPER,
    both_sides_pattern_workload,
    single_side_pattern_workload,
    unique_keys_workload,
    workload_x,
    workload_y,
    x_query_schemas,
)


class TestUniqueKeys:
    def test_cardinalities_and_scale(self):
        wl = unique_keys_workload(scaled_tuples=10_000)
        assert wl.table_r.total_rows == 10_000
        assert wl.table_s.total_rows == 10_000
        assert wl.scale == pytest.approx(1e9 / 10_000)

    def test_widths(self):
        wl = unique_keys_workload(row_bytes_r=20, row_bytes_s=60, scaled_tuples=100)
        encoding = DictionaryEncoding()
        assert wl.table_r.schema.tuple_width(encoding) == pytest.approx(20)
        assert wl.table_s.schema.tuple_width(encoding) == pytest.approx(60)

    def test_output_is_one_to_one(self):
        wl = unique_keys_workload(scaled_tuples=5_000, num_nodes=4)
        result = GraceHashJoin().run(
            wl.cluster, wl.table_r, wl.table_s, JoinSpec(materialize=False)
        )
        assert result.output_rows == 5_000


class TestPatternWorkloads:
    def test_single_side_row_counts(self):
        wl = single_side_pattern_workload(PATTERN_PARTIAL, scaled_keys=1000)
        assert wl.table_r.total_rows == 1000
        assert wl.table_s.total_rows == 5000
        assert wl.expected_output_rows == 5000

    def test_single_side_invalid_pattern(self):
        with pytest.raises(WorkloadError):
            single_side_pattern_workload((2, 2), scaled_keys=10)

    def test_collocated_pattern_keeps_repeats_together(self):
        wl = single_side_pattern_workload(PATTERN_COLLOCATED, scaled_keys=500)
        for partition in wl.table_s.partitions:
            keys, counts = np.unique(partition.keys, return_counts=True)
            assert (counts == 5).all()

    def test_both_sides_output(self):
        wl = both_sides_pattern_workload(
            PATTERN_SPREAD, inter_collocated=False, scaled_keys=400
        )
        result = GraceHashJoin().run(
            wl.cluster, wl.table_r, wl.table_s, JoinSpec(materialize=False)
        )
        assert result.output_rows == 400 * 25

    def test_inter_collocation_aligns_tables(self):
        wl = both_sides_pattern_workload(
            PATTERN_COLLOCATED, inter_collocated=True, scaled_keys=300
        )
        # Every key's R node set equals its S node set.
        for node in range(wl.num_nodes):
            keys_r = set(wl.table_r.partitions[node].keys.tolist())
            keys_s = set(wl.table_s.partitions[node].keys.tolist())
            assert keys_r == keys_s


class TestWorkloadX:
    def test_schemas_match_table1_bits(self):
        schema_r, schema_s = x_query_schemas(1)
        encoding = DictionaryEncoding()
        assert schema_r.tuple_width(encoding) * 8 == pytest.approx(79)
        assert schema_s.tuple_width(encoding) * 8 == pytest.approx(145)

    @pytest.mark.parametrize("query", [2, 3, 4, 5])
    def test_other_query_widths(self, query):
        schema_r, schema_s = x_query_schemas(query)
        bits_r, bits_s = X_PAPER["query_bits"][query]
        encoding = DictionaryEncoding()
        assert schema_r.tuple_width(encoding) * 8 == pytest.approx(bits_r)
        assert schema_s.tuple_width(encoding) * 8 == pytest.approx(bits_s)

    def test_invalid_query(self):
        with pytest.raises(WorkloadError):
            x_query_schemas(6)

    def test_cardinalities_scale(self):
        wl = workload_x(scale_denominator=2048)
        assert wl.table_r.total_rows == round(X_PAPER["tuples_r"] / 2048)
        assert wl.table_s.total_rows == round(X_PAPER["tuples_s"] / 2048)

    def test_output_close_to_published(self):
        wl = workload_x(scale_denominator=1024, num_nodes=4)
        result = GraceHashJoin().run(
            wl.cluster, wl.table_r, wl.table_s, JoinSpec(materialize=False)
        )
        assert result.output_rows == pytest.approx(
            X_PAPER["output"] / 1024, rel=0.02
        )

    def test_shuffled_removes_locality(self):
        original = workload_x(scale_denominator=2048, num_nodes=4, ordering="original")
        shuffled = workload_x(scale_denominator=2048, num_nodes=4, ordering="shuffled")
        from repro import TrackJoin

        spec = JoinSpec(materialize=False)
        orig = TrackJoin("2TJ-R").run(
            original.cluster, original.table_r, original.table_s, spec
        )
        shuf = TrackJoin("2TJ-R").run(
            shuffled.cluster, shuffled.table_r, shuffled.table_s, spec
        )
        assert orig.network_bytes < shuf.network_bytes

    def test_hash_join_blind_to_ordering(self):
        """HJ traffic must be ~identical for original vs shuffled (Fig 7/8)."""
        spec = JoinSpec(materialize=False)
        results = []
        for ordering in ("original", "shuffled"):
            wl = workload_x(scale_denominator=2048, num_nodes=4, ordering=ordering)
            results.append(
                GraceHashJoin().run(wl.cluster, wl.table_r, wl.table_s, spec).network_bytes
            )
        assert results[0] == pytest.approx(results[1], rel=0.01)

    def test_implementation_widths(self):
        wl = workload_x(scale_denominator=4096, implementation_widths=True, num_nodes=4)
        encoding = DictionaryEncoding()
        assert wl.table_r.schema.tuple_width(encoding) == pytest.approx(11)
        assert wl.table_s.schema.tuple_width(encoding) == pytest.approx(22)

    def test_encoding_width_ordering(self):
        """varbyte > fixed > dictionary for the Table 1 schema (Fig 7)."""
        schema_r, _ = x_query_schemas(1)
        widths = {
            name: schema_r.tuple_width(enc())
            for name, enc in (
                ("fixed", FixedByteEncoding),
                ("varbyte", VarByteEncoding),
                ("dictionary", DictionaryEncoding),
            )
        }
        assert widths["dictionary"] < widths["fixed"] < widths["varbyte"]


class TestWorkloadY:
    def test_cardinalities(self):
        wl = workload_y(scale_denominator=512)
        assert wl.table_r.total_rows == round(Y_PAPER["tuples_r"] / 512)
        assert wl.table_s.total_rows == round(Y_PAPER["tuples_s"] / 512)

    def test_output_amplification(self):
        """Output ~ 5.4x the input cardinality, as published."""
        wl = workload_y(scale_denominator=512, num_nodes=4)
        result = GraceHashJoin().run(
            wl.cluster, wl.table_r, wl.table_s, JoinSpec(materialize=False)
        )
        assert result.output_rows == wl.expected_output_rows
        amplification = result.output_rows / (
            wl.table_r.total_rows + wl.table_s.total_rows
        )
        assert amplification == pytest.approx(5.4, rel=0.06)

    def test_varbyte_tuple_widths(self):
        wl = workload_y(scale_denominator=1024)
        encoding = VarByteEncoding()
        assert wl.table_r.schema.tuple_width(encoding) == pytest.approx(
            Y_PAPER["row_bytes_r"]
        )
        assert wl.table_s.schema.tuple_width(encoding) == pytest.approx(
            Y_PAPER["row_bytes_s"]
        )

    def test_inconsistent_repeats_rejected(self):
        # 1x1 repeats would need more matched keys than R has tuples.
        with pytest.raises(WorkloadError):
            workload_y(repeats_r=1, repeats_s=1)

    def test_invalid_ordering(self):
        with pytest.raises(WorkloadError):
            workload_y(ordering="sorted")


@pytest.mark.parametrize("generator", ["zipf_workload", "hot_key_workload"])
def test_skew_generators_state_their_cardinality(generator):
    """``expected_output_rows`` equals a brute-force pair count."""
    import repro.workloads

    wl = getattr(repro.workloads, generator)(
        num_nodes=4, tuples_per_table=300, distinct_keys=20, skew=1.2, seed=5
    )
    keys_r = wl.table_r.all_keys().tolist()
    keys_s = wl.table_s.all_keys().tolist()
    brute = sum(1 for key_r in keys_r for key_s in keys_s if key_r == key_s)
    assert brute > len(keys_r)  # duplicates on both sides
    assert wl.expected_output_rows == brute


class TestZipfWorkload:
    def test_skew_zero_is_uniform(self):
        from repro.workloads import zipf_workload

        wl = zipf_workload(tuples_per_table=20_000, distinct_keys=2_000, skew=0.0)
        keys = wl.table_r.all_keys()
        counts = np.bincount(keys, minlength=2_000)
        # Uniform draws: the hottest key stays near the mean.
        assert counts.max() < 4 * counts.mean()

    def test_skew_concentrates_frequency(self):
        from repro.workloads import zipf_workload

        flat = zipf_workload(tuples_per_table=20_000, distinct_keys=2_000, skew=0.0)
        skewed = zipf_workload(tuples_per_table=20_000, distinct_keys=2_000, skew=1.2)
        top_flat = np.bincount(flat.table_r.all_keys()).max()
        top_skewed = np.bincount(skewed.table_r.all_keys()).max()
        assert top_skewed > 5 * top_flat

    def test_invalid_parameters(self):
        from repro.workloads import zipf_workload

        with pytest.raises(WorkloadError):
            zipf_workload(skew=-1.0)
        with pytest.raises(WorkloadError):
            zipf_workload(distinct_keys=0)


class TestHotKeyWorkload:
    def test_deterministic_given_seed(self):
        from repro.workloads import hot_key_workload

        first = hot_key_workload(num_nodes=4, tuples_per_table=5_000, seed=3)
        second = hot_key_workload(num_nodes=4, tuples_per_table=5_000, seed=3)
        np.testing.assert_array_equal(
            first.table_s.all_keys(), second.table_s.all_keys()
        )
        np.testing.assert_array_equal(
            first.table_r.all_keys(), second.table_r.all_keys()
        )
        for node in range(4):
            np.testing.assert_array_equal(
                first.table_r.partitions[node].keys,
                second.table_r.partitions[node].keys,
            )

    def test_build_side_has_zipf_head(self):
        from repro.workloads import hot_key_workload

        wl = hot_key_workload(
            num_nodes=4, tuples_per_table=20_000, distinct_keys=2_000, skew=1.2
        )
        counts = np.bincount(wl.table_s.all_keys(), minlength=2_000)
        assert counts.max() > 0.02 * 20_000  # the head crosses hot_threshold
        # Zipf rank order: key 0 is the hottest.
        assert counts.argmax() == 0

    def test_probe_amplification_tracks_hot_keys(self):
        from repro.workloads import hot_key_workload

        wl = hot_key_workload(
            num_nodes=4,
            tuples_per_table=20_000,
            distinct_keys=2_000,
            hot_threshold=0.02,
            probe_factor=3.0,
        )
        counts_s = np.bincount(wl.table_s.all_keys(), minlength=2_000)
        counts_r = np.bincount(wl.table_r.all_keys(), minlength=2_000)
        hot = np.flatnonzero(counts_s > 0.02 * 20_000)
        assert len(hot) >= 1
        background_mean = counts_r.mean()
        for key in hot:
            # Background (~10/key) plus ceil(3/4 of the build count).
            expected = np.ceil(3.0 * counts_s[key] / 4)
            assert counts_r[key] >= expected
            assert counts_r[key] >= 5 * background_mean

    def test_row_widths(self):
        from repro.workloads import hot_key_workload

        wl = hot_key_workload(
            num_nodes=4, tuples_per_table=2_000, row_bytes_r=30, row_bytes_s=60
        )
        encoding = DictionaryEncoding()
        assert wl.table_r.schema.tuple_width(encoding) == pytest.approx(30)
        assert wl.table_s.schema.tuple_width(encoding) == pytest.approx(60)

    def test_invalid_parameters(self):
        from repro.workloads import hot_key_workload

        with pytest.raises(WorkloadError):
            hot_key_workload(skew=-1.0)
        with pytest.raises(WorkloadError):
            hot_key_workload(distinct_keys=0)
        with pytest.raises(WorkloadError):
            hot_key_workload(hot_threshold=0.0)
