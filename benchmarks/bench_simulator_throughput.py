"""Simulator throughput: how fast the library itself runs.

Not a paper reproduction — this measures the Python simulator's own
processing rate (tuples joined per second of wall clock) so users can
size their experiments.  pytest-benchmark measures the joins directly,
with multiple rounds, which is the one place in the suite where its
statistics are the point.
"""

import numpy as np
import pytest

from repro import Cluster, GraceHashJoin, JoinSpec, TrackJoin
from repro.testing import scatter_tables

_TUPLES = 300_000


@pytest.fixture(scope="module")
def tables():
    cluster = Cluster(8)
    rng = np.random.default_rng(0)
    table_r, table_s = scatter_tables(
        cluster,
        rng.integers(0, _TUPLES // 2, _TUPLES),
        rng.integers(0, _TUPLES // 2, _TUPLES),
    )
    return cluster, table_r, table_s


def test_hash_join_throughput(benchmark, tables):
    cluster, table_r, table_s = tables
    spec = JoinSpec(materialize=False)
    result = benchmark.pedantic(
        lambda: GraceHashJoin().run(cluster, table_r, table_s, spec),
        rounds=3,
        iterations=1,
    )
    assert result.output_rows > 0
    benchmark.extra_info["tuples_per_second"] = (
        2 * _TUPLES / benchmark.stats["mean"] if benchmark.stats else None
    )


def test_track_join_throughput(benchmark, tables):
    cluster, table_r, table_s = tables
    spec = JoinSpec(materialize=False)
    result = benchmark.pedantic(
        lambda: TrackJoin("4TJ").run(cluster, table_r, table_s, spec),
        rounds=3,
        iterations=1,
    )
    assert result.output_rows > 0
