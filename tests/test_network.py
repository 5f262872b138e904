"""Unit tests for the network fabric and traffic ledger."""

from __future__ import annotations

import random

import pytest

from repro.cluster.network import Message, MessageClass, Network, TrafficLedger
from repro.errors import NetworkError
from repro.timing.profile import ExecutionProfile

from conftest import one_lane


def _random_ledger(rng: random.Random, num_nodes: int = 6) -> TrafficLedger:
    """A ledger of random messages with dyadic-rational sizes.

    Eighths of a byte sum exactly in float64, so equality below is
    bit-for-bit, not approximate.
    """
    ledger = TrafficLedger()
    classes = list(MessageClass)
    for _ in range(rng.randrange(1, 40)):
        src = rng.randrange(num_nodes)
        dst = rng.randrange(num_nodes)
        category = rng.choice(classes)
        nbytes = rng.randrange(0, 1 << 16) / 8.0
        ledger.record(Message(src, dst, category, nbytes, None))
    return ledger


def _snapshot(ledger: TrafficLedger):
    """Order-independent, comparable view of every ledger counter."""
    return (
        sorted((category.name, nbytes) for category, nbytes in ledger.by_class.items()),
        sorted(ledger.by_link.items()),
        sorted(ledger.sent_by_node.items()),
        sorted(ledger.received_by_node.items()),
        ledger.local_bytes,
        ledger.message_count,
    )


class TestTrafficLedger:
    def test_remote_message_accounted(self):
        ledger = TrafficLedger()
        ledger.record(Message(0, 1, MessageClass.R_TUPLES, 100.0, None))
        assert ledger.total_bytes == 100.0
        assert ledger.class_bytes(MessageClass.R_TUPLES) == 100.0
        assert ledger.by_link[(0, 1)] == 100.0
        assert ledger.sent_by_node[0] == 100.0
        assert ledger.received_by_node[1] == 100.0
        assert ledger.local_bytes == 0.0

    def test_local_message_not_network_traffic(self):
        ledger = TrafficLedger()
        ledger.record(Message(2, 2, MessageClass.S_TUPLES, 50.0, None))
        assert ledger.total_bytes == 0.0
        assert ledger.local_bytes == 50.0
        assert ledger.message_count == 1

    def test_breakdown_covers_all_classes(self):
        ledger = TrafficLedger()
        ledger.record(Message(0, 1, MessageClass.KEYS_COUNTS, 10.0, None))
        breakdown = ledger.breakdown()
        assert set(breakdown) == {c.value for c in MessageClass}
        assert breakdown["keys_counts"] == 10.0
        assert breakdown["r_tuples"] == 0.0

    def test_merge_commutative(self):
        rng = random.Random(11)
        for _ in range(20):
            a, b = _random_ledger(rng), _random_ledger(rng)
            ab = a.merged_with(b)
            ba = b.merged_with(a)
            assert _snapshot(ab) == _snapshot(ba)

    def test_merge_associative(self):
        rng = random.Random(23)
        for _ in range(20):
            a, b, c = (_random_ledger(rng) for _ in range(3))
            left = a.merged_with(b).merge(c)
            right = a.merged_with(b.merged_with(c))
            assert _snapshot(left) == _snapshot(right)

    def test_merge_identity(self):
        rng = random.Random(5)
        ledger = _random_ledger(rng)
        before = _snapshot(ledger)
        assert _snapshot(ledger.merged_with(TrafficLedger())) == before
        assert _snapshot(TrafficLedger().merge(ledger)) == before

    def test_merge_mutates_in_place_and_returns_self(self):
        a = TrafficLedger()
        b = TrafficLedger()
        b.record(Message(0, 1, MessageClass.S_TUPLES, 4.0, None))
        result = a.merge(b)
        assert result is a
        assert a.total_bytes == 4.0
        # The source ledger is untouched.
        assert b.total_bytes == 4.0 and b.message_count == 1

    def test_merged_with(self):
        a = TrafficLedger()
        b = TrafficLedger()
        a.record(Message(0, 1, MessageClass.R_TUPLES, 10.0, None))
        b.record(Message(1, 0, MessageClass.R_TUPLES, 5.0, None))
        merged = a.merged_with(b)
        assert merged.total_bytes == 15.0
        assert merged.message_count == 2
        # Originals untouched.
        assert a.total_bytes == 10.0


class TestNetwork:
    def test_send_and_deliver(self):
        net = Network(3)
        with one_lane(net):
            net.send(0, 2, MessageClass.R_TUPLES, 42.0, payload="hello")
        assert net.pending_messages() == 1
        messages = net.deliver(2)
        assert len(messages) == 1
        assert messages[0].payload == "hello"
        assert net.pending_messages() == 0

    def test_deliver_all(self):
        net = Network(3)
        with one_lane(net):
            net.send(0, 1, MessageClass.R_TUPLES, 1.0)
            net.send(0, 2, MessageClass.R_TUPLES, 1.0)
        delivered = dict(net.deliver_all())
        assert set(delivered) == {1, 2}

    def test_invalid_node_rejected(self):
        net = Network(2)
        with one_lane(net):
            with pytest.raises(NetworkError):
                net.send(0, 5, MessageClass.R_TUPLES, 1.0)
            with pytest.raises(NetworkError):
                net.send(-1, 0, MessageClass.R_TUPLES, 1.0)
        with pytest.raises(NetworkError):
            net.deliver(3)

    def test_negative_bytes_rejected(self):
        net = Network(2)
        with one_lane(net):
            with pytest.raises(NetworkError):
                net.send(0, 1, MessageClass.R_TUPLES, -1.0)

    def test_non_finite_bytes_rejected(self):
        """Regression: NaN sizes silently poisoned every downstream sum."""
        net = Network(2)
        with one_lane(net):
            for bad in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(NetworkError):
                    net.send(0, 1, MessageClass.R_TUPLES, bad)
        # Nothing was accounted or enqueued by the rejected sends.
        assert net.ledger.message_count == 0
        assert net.pending_messages() == 0

    def test_zero_nodes_rejected(self):
        with pytest.raises(NetworkError):
            Network(0)

    def test_reset_ledger(self):
        net = Network(2)
        with one_lane(net):
            net.send(0, 1, MessageClass.R_TUPLES, 9.0)
        old = net.reset_ledger()
        assert old.total_bytes == 9.0
        assert net.ledger.total_bytes == 0.0

    def test_fractional_bytes(self):
        """Dictionary encodings produce sub-byte widths; they must add up."""
        net = Network(2)
        with one_lane(net):
            for _ in range(8):
                net.send(0, 1, MessageClass.KEYS_COUNTS, 30 / 8)
        assert net.ledger.total_bytes == pytest.approx(30.0)


class TestNetworkPhases:
    def test_lanes_commit_in_task_order(self):
        """Inbox order after the barrier follows lane order, not send order."""
        net = Network(2)
        lanes = net.begin_phase(3)
        # Bind lanes in reverse to prove commit order is lane order.
        for lane_id in (2, 1, 0):
            with net.bind_lane(lanes[lane_id]):
                net.send(0, 1, MessageClass.RIDS, 1.0, payload=lane_id)
        net.end_phase()
        payloads = [msg.payload for msg in net.deliver(1)]
        assert payloads == [0, 1, 2]

    def test_staged_sends_invisible_until_barrier(self):
        net = Network(2)
        lanes = net.begin_phase(1)
        with net.bind_lane(lanes[0]):
            net.send(0, 1, MessageClass.RIDS, 8.0)
        # Staged: counted as pending but not yet delivered or accounted.
        assert net.pending_messages() == 1
        assert net.deliver(1) == []
        assert net.ledger.total_bytes == 0.0
        net.end_phase()
        assert net.ledger.total_bytes == 8.0
        assert len(net.deliver(1)) == 1

    def test_unbound_send_raises_and_records_nothing(self):
        """One send path: a send from a thread with no bound lane raises,
        with or without an open phase, and leaves no trace."""
        net = Network(2)
        profile = ExecutionProfile(2)
        with pytest.raises(NetworkError, match="outside a phase"):
            net.send(0, 1, MessageClass.RIDS, 2.0, profile=profile, step="x")
        net.begin_phase(2, profile)
        with pytest.raises(NetworkError, match="outside a phase"):
            net.send(0, 1, MessageClass.RIDS, 2.0, profile=profile, step="x")
        assert net.pending_messages() == 0
        net.end_phase()
        assert net.ledger.message_count == 0
        assert net.pending_messages() == 0
        assert profile.steps == []

    def test_abort_discards_staged_lanes(self):
        net = Network(2)
        lanes = net.begin_phase(1)
        with net.bind_lane(lanes[0]):
            net.send(0, 1, MessageClass.RIDS, 8.0)
        net.abort_phase()
        assert net.pending_messages() == 0
        assert net.ledger.total_bytes == 0.0

    def test_nested_phase_rejected(self):
        net = Network(2)
        net.begin_phase(1)
        with pytest.raises(NetworkError):
            net.begin_phase(1)
        net.abort_phase()
        with pytest.raises(NetworkError):
            net.end_phase()

    def test_reset_ledger_rejected_while_phase_open(self):
        net = Network(2)
        net.begin_phase(1)
        with pytest.raises(NetworkError):
            net.reset_ledger()
        net.abort_phase()
