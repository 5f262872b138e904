"""Unit tests for the :mod:`repro.exchange` communication primitives.

The golden suite (``test_exchange_golden.py``) proves the operators
kept their exact traffic behavior through the refactor; this file
covers the receiver-side contracts directly — above all the requeue
branch of :func:`drain_category`, which keeps mixed-class inboxes
intact when an operator drains only the class it consumes.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro import Cluster
from repro.cluster.network import MessageClass
from repro.core.messages import location_message_bytes
from repro.errors import ValidationError
from repro.exchange import (
    Gather,
    LocationExchange,
    Migrate,
    SelectiveBroadcast,
    drain_category,
    drain_payloads,
    flush,
    replicate_size,
)
from repro.exchange.base import group_by_link
from repro.storage import LocalPartition
from repro.timing.profile import ExecutionProfile

from conftest import exec_scope, one_lane


def _part(*keys):
    keys = np.asarray(keys, dtype=np.int64)
    return LocalPartition(keys=keys, columns={"v": keys * 10})


class TestDrainCategory:
    def test_mixed_inbox_requeues_other_categories(self):
        """Non-matching messages survive a selective drain via requeue."""
        cluster = Cluster(2)
        net = cluster.network
        with one_lane(net):
            net.send(0, 1, MessageClass.R_TUPLES, 8.0, payload=_part(1))
            net.send(0, 1, MessageClass.S_TUPLES, 8.0, payload=_part(2))
            net.send(1, 1, MessageClass.R_TUPLES, 8.0, payload=_part(3))
            net.send(0, 1, MessageClass.FILTER, 4.0, payload=_part(4))

        kept = drain_category(cluster, 1, MessageClass.R_TUPLES)
        assert [p.keys.tolist() for p in kept] == [[1], [3]]

        # The S_TUPLES and FILTER messages went back on the inbox tail,
        # in their original arrival order, and a later drain finds them.
        survivors = net.deliver(1)
        assert [m.category for m in survivors] == [
            MessageClass.S_TUPLES,
            MessageClass.FILTER,
        ]
        assert [p.keys.tolist() for p in (m.payload for m in survivors)] == [[2], [4]]

    def test_sequential_drains_consume_one_class_each(self):
        """The pattern the join phase relies on: drain R, then drain S."""
        cluster = Cluster(2)
        net = cluster.network
        with one_lane(net):
            net.send(0, 0, MessageClass.S_TUPLES, 8.0, payload=_part(7))
            net.send(1, 0, MessageClass.R_TUPLES, 8.0, payload=_part(8))

        assert [p.keys.tolist() for p in drain_category(cluster, 0, MessageClass.R_TUPLES)] == [[8]]
        assert [p.keys.tolist() for p in drain_category(cluster, 0, MessageClass.S_TUPLES)] == [[7]]
        assert net.deliver(0) == []

    def test_requeue_never_double_accounts(self):
        """Messages were accounted at send time; drains change nothing."""
        cluster = Cluster(2)
        net = cluster.network
        with one_lane(net):
            net.send(0, 1, MessageClass.R_TUPLES, 16.0, payload=_part(1))
            net.send(0, 1, MessageClass.S_TUPLES, 24.0, payload=_part(2))
        before = (net.ledger.total_bytes, net.ledger.message_count)

        drain_category(cluster, 1, MessageClass.R_TUPLES)
        drain_category(cluster, 1, MessageClass.R_TUPLES)  # requeued S again

        assert (net.ledger.total_bytes, net.ledger.message_count) == before
        assert [m.category for m in net.deliver(1)] == [MessageClass.S_TUPLES]

    def test_empty_inbox(self):
        cluster = Cluster(2)
        assert drain_category(cluster, 0, MessageClass.R_TUPLES) == []
        assert drain_payloads(cluster, 0) == []


class TestRequeueEdgeCases:
    def test_requeue_empty_sequence_is_noop(self):
        cluster = Cluster(2)
        net = cluster.network
        net.requeue(1, [])
        assert net.pending_messages() == 0
        assert net.deliver(1) == []

    def test_requeue_during_open_phase_skips_staged_lanes(self):
        """Requeued messages rejoin the committed inbox immediately;
        messages staged in an open phase stay invisible until the
        barrier commits them."""
        cluster = Cluster(2)
        net = cluster.network
        with one_lane(net):
            net.send(0, 1, MessageClass.FILTER, 4.0, payload=_part(1))
        drained = net.deliver(1)

        lanes = net.begin_phase(1)
        with net.bind_lane(lanes[0]):
            net.send(0, 1, MessageClass.S_TUPLES, 8.0, payload=_part(2))
        net.requeue(1, drained)
        assert [m.category for m in net.deliver(1)] == [MessageClass.FILTER]
        net.end_phase()
        assert [m.category for m in net.deliver(1)] == [MessageClass.S_TUPLES]

    def test_repeated_selective_drains_preserve_arrival_order(self):
        """Messages that survive several selective drains keep their
        original relative order within the inbox."""
        cluster = Cluster(2)
        net = cluster.network
        with one_lane(net):
            for key in (1, 2, 3):
                net.send(0, 1, MessageClass.S_TUPLES, 8.0, payload=_part(key))
            net.send(0, 1, MessageClass.FILTER, 4.0, payload=_part(9))

        for _ in range(3):  # each drain requeues all four survivors
            assert drain_category(cluster, 1, MessageClass.R_TUPLES) == []
        kept = drain_category(cluster, 1, MessageClass.S_TUPLES)
        assert [p.keys.tolist() for p in kept] == [[1], [2], [3]]
        assert [m.category for m in net.deliver(1)] == [MessageClass.FILTER]

    def test_requeue_under_fault_plan_stays_idempotent(self):
        """With an injector installed, a redelivery after requeue still
        dedups and restores sequence order."""
        from repro.faults import FaultPlan

        cluster = Cluster(2, fault_plan=FaultPlan(seed=0, duplicate=1.0))
        net = cluster.network
        with one_lane(net):
            net.send(0, 1, MessageClass.R_TUPLES, 8.0, payload=_part(1))
            net.send(0, 1, MessageClass.S_TUPLES, 8.0, payload=_part(2))

        kept = drain_category(cluster, 1, MessageClass.R_TUPLES)
        assert [p.keys.tolist() for p in kept] == [[1]]
        survivors = net.deliver(1)
        assert [m.category for m in survivors] == [MessageClass.S_TUPLES]
        assert net.ledger.retransmit_count > 0


class TestGather:
    def test_empty_nodes_get_schema_shaped_partitions(self):
        cluster = Cluster(3)
        with one_lane(cluster.network):
            cluster.network.send(0, 1, MessageClass.R_TUPLES, 8.0, payload=_part(5))
        gathered = Gather(MessageClass.R_TUPLES, empty_names=("v",)).run(cluster)
        assert [p.num_rows for p in gathered] == [0, 1, 0]
        for partition in gathered:
            assert tuple(partition.columns) == ("v",)

    def test_concatenates_arrivals_in_order(self):
        cluster = Cluster(2)
        with one_lane(cluster.network):
            cluster.network.send(0, 0, MessageClass.R_TUPLES, 8.0, payload=_part(1, 2))
            cluster.network.send(1, 0, MessageClass.R_TUPLES, 8.0, payload=_part(3))
        gathered = Gather(MessageClass.R_TUPLES).run(cluster)
        assert gathered[0].keys.tolist() == [1, 2, 3]
        assert gathered[0].columns["v"].tolist() == [10, 20, 30]


class TestAccountingPrimitives:
    def test_send_local_vs_remote(self):
        cluster = Cluster(2)
        profile = ExecutionProfile(cluster.num_nodes)
        with one_lane(cluster.network, profile):
            for dst, rows in ((1, _part(1, 2)), (0, _part(3))):
                cluster.network.send(
                    0, dst, MessageClass.R_TUPLES, rows.num_rows * 8.0,
                    payload=rows, profile=profile,
                    step="Transfer x", local_step="Local copy x",
                )
        assert cluster.network.ledger.total_bytes == 16.0
        assert cluster.network.ledger.local_bytes == 8.0
        by_step = {(s.name, s.kind) for s in profile.steps}
        assert ("Transfer x", "net") in by_step
        assert ("Local copy x", "local") in by_step
        flush(cluster)

    def test_replicate_size_reaches_every_other_node(self):
        cluster = Cluster(4)
        profile = ExecutionProfile(cluster.num_nodes)
        with one_lane(cluster.network, profile):
            replicate_size(
                cluster, profile, MessageClass.FILTER, 1, 32.0, "Broadcast filters"
            )
        ledger = cluster.network.ledger
        assert ledger.total_bytes == 3 * 32.0
        assert all(src == 1 and dst != 1 for (src, dst) in ledger.by_link)
        flush(cluster)
        assert cluster.network.pending_messages() == 0

    @pytest.mark.parametrize("num_nodes,fits", [(1664510, True), (1664511, False)])
    def test_location_exchange_packing_limit(self, num_nodes, fits):
        """(sender, receiver, node) triples pack into int64 while n**3 <= 2**62."""
        sends = []
        network = SimpleNamespace(
            send=lambda src, dst, category, nbytes, **steps: sends.append((src, dst, nbytes))
        )
        cluster = SimpleNamespace(
            num_nodes=num_nodes,
            network=network,
            run_phase=lambda fn, tasks, **phase: [fn(task) for task in range(tasks)],
        )
        profile = SimpleNamespace(add_cpu_at=lambda *args: None)
        last = num_nodes - 1
        args = (np.array([last, 0]), np.array([0, last]), np.array([last, last]))
        exchange = LocationExchange("Transfer keys, nodes", 4.0, 1.0)
        if not fits:
            with pytest.raises(ValidationError, match=r"num_nodes\*\*3 <= 2\*\*62"):
                exchange.run(cluster, profile, *args)
            return
        exchange.run(cluster, profile, *args)
        one_pair = location_message_bytes(1, 1, 4.0, 1.0)
        assert sends == [(0, last, one_pair), (last, 0, one_pair)]


# -- SelectiveBroadcast / Migrate as operators ---------------------------

_WIDTH = 12.0
_MATCH_WIDTH = 5.0


def _selective():
    return SelectiveBroadcast(
        MessageClass.R_TUPLES, _WIDTH, _MATCH_WIDTH, "Transfer", "Local copy", "Translate"
    )


def _migrate():
    return Migrate(MessageClass.S_TUPLES, _WIDTH, "Transfer", "Local copy")


def _holder(node, keys):
    keys = np.asarray(keys, dtype=np.int64)
    return LocalPartition(
        keys=keys,
        columns={
            "rid": 100 * node + np.arange(len(keys)),
            "w": 0.5 * np.arange(len(keys)),
        },
    )


def _random_case(seed, num_nodes):
    """Holders with duplicate keys plus random (holder, dst, key) pairs.

    Keys 12..15 are never held, one holder gets no pairs (when there is
    more than one) and one holder is empty; self-sends and several
    destinations per key occur by chance.
    """
    rng = np.random.default_rng(seed)
    holders = [
        _holder(node, rng.integers(0, 12, rng.integers(0, 30)))
        for node in range(num_nodes)
    ]
    holders[-1] = _holder(num_nodes - 1, [])
    num_pairs = int(rng.integers(1, 80))
    src = rng.integers(0, num_nodes, num_pairs)
    if num_nodes > 1:
        src[src == 1] = 0
    return holders, src, rng.integers(0, num_nodes, num_pairs), rng.integers(0, 16, num_pairs)


def _expected_rows(holders, src, dst, key):
    """Per-pair loop: holder row positions shipped over every (src, dst) link."""
    shipped: dict[tuple[int, int], list[int]] = {}
    for s, d, k in zip(src.tolist(), dst.tolist(), key.tolist()):
        matches = np.flatnonzero(holders[s].keys == k).tolist()
        if matches:
            shipped.setdefault((s, d), []).extend(matches)
    return shipped


def _assert_delivered(cluster, sources, expected):
    """One message per expected link, rows and columns in loop order."""
    seen = set()
    for node in range(cluster.num_nodes):
        inbox = cluster.network.deliver(node)
        assert [m.src for m in inbox] == sorted(m.src for m in inbox)
        for message in inbox:
            link = (message.src, message.dst)
            assert link not in seen and message.dst == node
            seen.add(link)
            rows = expected[link]
            assert message.nbytes == len(rows) * _WIDTH
            source = sources[message.src]
            assert np.array_equal(message.payload.keys, source.keys[rows])
            assert list(message.payload.columns) == list(source.columns)
            for name, values in source.columns.items():
                shipped = message.payload.columns[name]
                assert shipped.dtype == values.dtype
                assert np.array_equal(shipped, values[rows])
    assert seen == set(expected)


@pytest.fixture(params=[None, (2, 2)], ids=["serial", "chunked"])
def kernel_mode(request):
    """Default kernels, then 2 kernel workers over 2-row chunks."""
    if request.param is None:
        yield
    else:
        with exec_scope(workers=request.param[0], chunk_rows=request.param[1]):
            yield


@pytest.mark.usefixtures("kernel_mode")
class TestDirectedExchanges:
    @pytest.mark.parametrize("num_nodes", [1, 3, 8])
    @pytest.mark.parametrize("seed", range(6))
    def test_selective_broadcast_matches_pair_loop(self, num_nodes, seed):
        holders, src, dst, key = _random_case(seed, num_nodes)
        cluster = Cluster(num_nodes)
        profile = ExecutionProfile(num_nodes)
        _selective().run(cluster, profile, holders, *group_by_link(src, dst, key, num_nodes))
        expected = _expected_rows(holders, src, dst, key)
        _assert_delivered(cluster, holders, expected)
        # Translate step: pairs * match width + matched rows * width,
        # booked for every holder with pairs, matched or not.
        translate = np.zeros(num_nodes)
        np.add.at(translate, src, _MATCH_WIDTH)
        for (s, _), rows in expected.items():
            translate[s] += len(rows) * _WIDTH
        assert profile.steps[0].name == "Translate"
        assert np.array_equal(profile.steps[0].per_node_bytes, translate)

    @pytest.mark.parametrize("num_nodes", [1, 3, 8])
    @pytest.mark.parametrize("seed", range(6))
    def test_migrate_matches_pair_loop(self, num_nodes, seed):
        holders, src, dst, key = _random_case(seed, num_nodes)
        # A real schedule issues one instruction per (holder, key).
        _, first = np.unique(src * 16 + key, return_index=True)
        src, dst, key = src[first], dst[first], key[first]
        before = list(holders)
        cluster = Cluster(num_nodes)
        _migrate().run(cluster, ExecutionProfile(num_nodes), holders, key, src, dst)
        expected = _expected_rows(before, src, dst, key)
        _assert_delivered(cluster, before, expected)
        moved = {node: [] for node in range(num_nodes)}
        for (s, _), rows in expected.items():
            moved[s].extend(rows)
        for node, original in enumerate(before):
            if not moved[node]:
                assert holders[node] is original
                continue
            kept = np.setdiff1d(np.arange(original.num_rows), moved[node])
            assert np.array_equal(holders[node].keys, original.keys[kept])
            for name, values in original.columns.items():
                assert np.array_equal(holders[node].columns[name], values[kept])

    # The literal ledgers and profile steps below were recorded from the
    # per-holder split_by implementation this grouping replaced.
    _HOLDER_KEYS = ([5, 7, 5, 9, 2], [7, 7, 3, 8], [], [5, 1])
    _PAIRS = np.array(
        [  # (holder, destination, key); node 3 holds rows but gets no pair
            (0, 1, 5), (1, 0, 7), (0, 2, 7), (0, 0, 9), (1, 2, 4),
            (0, 2, 5), (2, 0, 5), (0, 1, 9), (1, 3, 3), (1, 0, 3),
        ]
    ).T

    @staticmethod
    def _observed(cluster, profile):
        ledger = cluster.network.ledger
        steps = [
            (s.name, s.kind, s.rate_class, s.per_node_bytes.tolist())
            for s in profile.steps
        ]
        messages = [
            (m.src, m.dst, m.nbytes, m.payload.keys.tolist(), m.payload.columns["rid"].tolist())
            for node in range(cluster.num_nodes)
            for m in cluster.network.deliver(node)
        ]
        return (
            dict(ledger.by_class), sorted(ledger.by_link.items()),
            ledger.local_bytes, ledger.message_count, steps, messages,
        )

    def test_selective_broadcast_pinned(self):
        holders = [_holder(n, k) for n, k in enumerate(self._HOLDER_KEYS)]
        src, dst, key = self._PAIRS
        cluster, profile = Cluster(4), ExecutionProfile(4)
        _selective().run(cluster, profile, holders, *group_by_link(src, dst, key, 4))
        assert self._observed(cluster, profile) == (
            {MessageClass.R_TUPLES: 120.0},
            [((0, 1), 36.0), ((0, 2), 36.0), ((1, 0), 36.0), ((1, 3), 12.0)],
            12.0,
            5,
            [
                ("Translate", "cpu", "merge", [109.0, 68.0, 5.0, 0.0]),
                ("Local copy", "local", "copy", [12.0, 0.0, 0.0, 0.0]),
                ("Transfer", "net", "transfer", [72.0, 48.0, 0.0, 0.0]),
            ],
            [
                (0, 0, 12.0, [9], [3]),
                (1, 0, 36.0, [7, 7, 3], [100, 101, 102]),
                (0, 1, 36.0, [5, 5, 9], [0, 2, 3]),
                (0, 2, 36.0, [7, 5, 5], [1, 0, 2]),
                (1, 3, 12.0, [3], [102]),
            ],
        )

    def test_migrate_pinned(self):
        holders = [_holder(n, k) for n, k in enumerate(self._HOLDER_KEYS)]
        # One instruction per (holder, key): drop the second destinations.
        src, dst, key = self._PAIRS[:, [0, 1, 2, 3, 4, 6, 8]]
        cluster, profile = Cluster(4), ExecutionProfile(4)
        untouched = holders[2], holders[3]
        _migrate().run(cluster, profile, holders, key, src, dst)
        assert self._observed(cluster, profile) == (
            {MessageClass.S_TUPLES: 72.0},
            [((0, 1), 24.0), ((0, 2), 12.0), ((1, 0), 24.0), ((1, 3), 12.0)],
            12.0,
            5,
            [
                ("Local copy", "local", "copy", [12.0, 0.0, 0.0, 0.0]),
                ("Transfer", "net", "transfer", [36.0, 36.0, 0.0, 0.0]),
            ],
            [
                (0, 0, 12.0, [9], [3]),
                (1, 0, 24.0, [7, 7], [100, 101]),
                (0, 1, 24.0, [5, 5], [0, 2]),
                (0, 2, 12.0, [7], [1]),
                (1, 3, 12.0, [3], [102]),
            ],
        )
        assert [p.columns["rid"].tolist() for p in holders[:2]] == [[4], [103]]
        # No pairs, or pairs without a local match: the entry is not rebound.
        assert holders[2] is untouched[0] and holders[3] is untouched[1]
