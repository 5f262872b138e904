"""Shared fixtures and helpers for the test suite.

The canonicalization helpers are the public ones from
:mod:`repro.testing`; downstream extensions get the same tools.
"""

from __future__ import annotations

import os
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from repro import Cluster, GraceHashJoin, JoinSpec
from repro.cluster.sanitizer import sanitizer_disable, sanitizer_enable
from repro.core.tracking import TrackingTable
from repro.parallel import current, use
from repro.testing import assert_same_output, canonical_output, scatter_tables
from repro.util import count_dtype, node_dtype, segment_boundaries

__all__ = [
    "assert_same_output",
    "canonical_output",
    "exec_scope",
    "make_tables",
    "one_key_hash_join",
    "one_lane",
    "tracking_from_dicts",
    "transient_peak",
]


@pytest.fixture(autouse=True, scope="session")
def _payload_sanitizer():
    """Run the whole tier-1 suite under the aliasing sanitizer.

    Every numpy array staged by a lane-bound send is read-only until the
    phase barrier commits, so a write-after-send aliasing bug anywhere
    in the suite raises at the offending store.  Opt out with
    ``REPRO_SANITIZE=0`` (e.g. to bisect whether a failure is the bug
    itself or the sanitizer surfacing it).
    """
    if os.environ.get("REPRO_SANITIZE", "1") == "0":
        yield
        return
    sanitizer_enable()
    try:
        yield
    finally:
        sanitizer_disable()


def make_tables(
    cluster: Cluster,
    keys_r: np.ndarray,
    keys_s: np.ndarray,
    payload_bits_r: int = 64,
    payload_bits_s: int = 128,
    seed: int = 0,
):
    """Scatter two key arrays uniformly onto a cluster with rid payloads."""
    return scatter_tables(
        cluster,
        keys_r,
        keys_s,
        payload_bits_r=payload_bits_r,
        payload_bits_s=payload_bits_s,
        seed=seed,
    )


def exec_scope(**fields):
    """Bind the config in scope with ``fields`` replaced (``None`` keeps one).

    Clusters built inside the block, and kernels run outside any join,
    take this config."""
    return use(replace(current(), **{k: v for k, v in fields.items() if v is not None}))


@contextmanager
def one_lane(network, profile=None):
    """Run the block as the only task of one network phase.

    The block's sends (and its steps in ``profile``) stage in the
    phase's one lane and commit at the barrier on exit, as a
    ``Cluster.run_phase`` task's would; an exception discards them.
    """
    lanes = network.begin_phase(1, profile)
    try:
        with network.bind_lane(lanes[0]):
            yield
    except BaseException:
        network.abort_phase()
        raise
    network.end_phase()


def one_key_hash_join(workers: int = 1):
    """HJ over 400 R and 400 S tuples of the single key 7 on four nodes:
    every remote tuple travels to that key's one hash node."""
    with exec_scope(workers=workers):
        cluster = Cluster(4)
    table_r, table_s = make_tables(cluster, np.full(400, 7), np.full(400, 7))
    return GraceHashJoin().run(cluster, table_r, table_s, JoinSpec(materialize=False))


def tracking_from_dicts(per_key, t_nodes, widths=(1.0, 1.0)):
    """Build a TrackingTable from per-key (counts_r, counts_s) dicts.

    An entry's bytes are its count times its side's width in ``widths``.
    """
    keys, nodes, count_r, count_s = [], [], [], []
    for key, (counts_r, counts_s) in enumerate(per_key):
        for node in sorted(set(counts_r) | set(counts_s)):
            keys.append(key)
            nodes.append(node)
            count_r.append(counts_r.get(node, 0))
            count_s.append(counts_s.get(node, 0))
    keys = np.array(keys, dtype=np.int64)
    nodes_dtype = node_dtype(max(nodes + list(t_nodes)) + 1)
    counts_dtype = count_dtype(max(count_r + count_s))
    return TrackingTable(
        keys=keys,
        nodes=np.array(nodes, dtype=nodes_dtype),
        count_r=np.array(count_r, dtype=counts_dtype),
        count_s=np.array(count_s, dtype=counts_dtype),
        key_starts=segment_boundaries(keys),
        t_nodes=np.array(t_nodes, dtype=nodes_dtype),
        width_r=widths[0],
        width_s=widths[1],
    )


def transient_peak(operator, workload, spec):
    """``(peak bytes, result)`` of one warmed run traced by tracemalloc.

    An untraced first run builds the partitions' cached key indexes and
    scatter plans, which later runs reuse; tracing only the second run
    counts what a run allocates on top of the resident tables.
    """
    operator.run(workload.cluster, workload.table_r, workload.table_s, spec)
    tracemalloc.start()
    try:
        result = operator.run(workload.cluster, workload.table_r, workload.table_s, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


@pytest.fixture
def small_cluster():
    """A 4-node cluster."""
    return Cluster(4)


@pytest.fixture
def small_tables(small_cluster):
    """Two modest random tables with repeated and partially-matching keys."""
    rng = np.random.default_rng(7)
    keys_r = rng.integers(0, 400, 1500)
    keys_s = rng.integers(200, 600, 2500)
    return make_tables(small_cluster, keys_r, keys_s)
