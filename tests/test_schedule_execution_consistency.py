"""End-to-end consistency: executed traffic equals scheduled cost.

The schedule generator predicts, per key, exactly how many bytes its
plan moves (tuple transfers + location/migration messages, with sends
to/from the scheduling node free).  The executor moves real tuples
through the simulated network.  If both are correct, the ledger's
non-tracking traffic must equal the summed per-key schedule costs —
byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Cluster, JoinSpec, TrackJoin
from repro.cluster import MessageClass
from repro.core.schedule import generate_schedules
from repro.core.tracking import run_tracking_phase
from repro.timing.profile import ExecutionProfile

from conftest import make_tables


def _scheduled_cost(cluster, table_r, table_s, spec, allow_migration, forced):
    """Total per-key schedule cost predicted for these inputs."""
    cluster.reset()
    profile = ExecutionProfile(cluster.num_nodes)
    tracking = run_tracking_phase(cluster, table_r, table_s, spec, profile, True)
    for _node, _messages in cluster.network.deliver_all():
        pass
    key_width = table_r.schema.key_width(spec.encoding)
    schedules = generate_schedules(
        tracking,
        location_width=key_width + spec.location_width,
        allow_migration=allow_migration,
        forced_direction=forced,
    )
    return float(schedules.cost.sum())


def _executed_non_tracking_bytes(result):
    return (
        result.class_bytes(MessageClass.R_TUPLES)
        + result.class_bytes(MessageClass.S_TUPLES)
        + result.class_bytes(MessageClass.KEYS_NODES)
    )


@pytest.mark.parametrize(
    "algorithm,allow_migration,forced",
    [
        (TrackJoin("2TJ-R"), False, "RS"),
        (TrackJoin("2TJ-S"), False, "SR"),
        (TrackJoin("3TJ"), False, None),
        (TrackJoin("4TJ"), True, None),
    ],
)
def test_executed_traffic_equals_schedule_cost(
    small_cluster, small_tables, algorithm, allow_migration, forced
):
    table_r, table_s = small_tables
    spec = JoinSpec(location_width=1.0)
    predicted = _scheduled_cost(
        small_cluster, table_r, table_s, spec, allow_migration, forced
    )
    result = algorithm.run(small_cluster, table_r, table_s, spec)
    assert _executed_non_tracking_bytes(result) == pytest.approx(predicted)


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.integers(0, 25), min_size=1, max_size=80),
    st.lists(st.integers(0, 25), min_size=1, max_size=80),
    st.integers(2, 5),
    st.integers(0, 50),
)
def test_consistency_on_random_inputs(keys_r, keys_s, num_nodes, seed):
    cluster = Cluster(num_nodes)
    table_r, table_s = make_tables(
        cluster,
        np.array(keys_r, dtype=np.int64),
        np.array(keys_s, dtype=np.int64),
        seed=seed,
    )
    spec = JoinSpec(location_width=1.0)
    predicted = _scheduled_cost(cluster, table_r, table_s, spec, True, None)
    result = TrackJoin("4TJ").run(cluster, table_r, table_s, spec)
    assert _executed_non_tracking_bytes(result) == pytest.approx(predicted)
