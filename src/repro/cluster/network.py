"""Simulated cluster interconnect with exact per-message byte accounting.

The paper measures distributed joins primarily by the *network traffic*
they generate, broken down by message class (Figures 3-11 stack the bars
as "Keys & Counts", "Keys & Nodes", "R Tuples", "S Tuples").  This module
provides the fabric those experiments run on: every transfer between two
simulated nodes goes through :meth:`Network.send`, which stages the
payload for the destination inbox and records its encoded size in a
:class:`TrafficLedger`.

Local sends (``src == dst``) are delivered but accounted separately, the
same way the paper's implementation separates "local copy" from "transfer"
steps (Tables 3 and 4).

One byte record
---------------
A send is written once in each book.  :meth:`Network.send` records it,
when the caller names a step and a profile, in that
:class:`~repro.timing.profile.ExecutionProfile` (sent bytes per source
node, received bytes per destination node, or a local copy); the phase
barrier (:meth:`Network.end_phase`) records it in the ledger (per class
and per link) as it gives the message its sequence number.  Nothing
else accounts a send's bytes.

One send path
-------------
The paper's joins run in barrier-synchronised phases (Section 4.2), and
so does every send here.  A phase (:meth:`Network.begin_phase`, opened
by ``Cluster.run_phase``) gives each task its own :class:`SendLane`:
sends from a thread bound to a lane are staged into the lane's private
message list, and the task's profile steps into the lane's private step
list, instead of touching shared state.  A send from a thread with no
bound lane raises :class:`~repro.errors.NetworkError`.  The phase
barrier (:meth:`Network.end_phase`) commits lanes in task order —
recording staged messages in the ledger, appending them to the
destination inboxes, and merging lane step lists into the profile — so
byte totals, ``by_link`` entries, inbox ordering and profile steps are
bit-identical for every worker count and interleaving.  Staged messages become visible to :meth:`deliver` only
after the barrier, which is exactly the paper's non-pipelined phase
semantics.

Zero-copy payloads
------------------
Payloads are handed to :meth:`send` by reference: operators pass numpy
views (e.g. the slices produced by ``LocalPartition.split_by``) and the
network never copies them.  The copy-on-conflict rule: a sender must not
mutate a payload's underlying buffers after handing it to ``send``; a
sender that intends to reuse or mutate the buffers copies them itself
before the send.  Receivers own what they are handed and must likewise
treat it as immutable (they concatenate into fresh arrays when merging).

Fault injection
---------------
With a :class:`~repro.faults.plan.FaultPlan` installed
(:meth:`Network.set_fault_plan`), the phase barrier additionally runs
every committed message through the plan's
:class:`~repro.faults.injector.FaultInjector`: messages may be dropped
(and retransmitted with backoff on a virtual clock), duplicated,
delayed, or reordered within a link, and :meth:`deliver` becomes
idempotent (sequence-number sort plus duplicate elimination).  Goodput
accounting is untouched — recovery overhead lands in the ledger's
separate retransmit counters — and with no plan installed none of these
code paths run at all.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from ..errors import NetworkError
from ..timing.profile import ExecutionProfile, lane_slot

__all__ = ["MessageClass", "Message", "TrafficLedger", "SendLane", "Network"]


class MessageClass(enum.Enum):
    """Classification of network messages, matching the paper's figures."""

    #: Tracking-phase messages: projected join keys, optionally with
    #: per-node match counts (2TJ sends bare keys; 3TJ/4TJ add counts).
    KEYS_COUNTS = "keys_counts"
    #: Scheduling messages: (key, node) pairs carrying selective-broadcast
    #: destinations or migration targets.
    KEYS_NODES = "keys_nodes"
    #: Tuples of table R (key + R payload).
    R_TUPLES = "r_tuples"
    #: Tuples of table S (key + S payload).
    S_TUPLES = "s_tuples"
    #: Bloom filters broadcast for semi-join reduction (Section 3.3).
    FILTER = "filter"
    #: Record-identifier messages of the tracking-aware hash join (Sec 3.2).
    RIDS = "rids"
    #: Partial aggregates exchanged by distributed group-by operators.
    AGGREGATES = "aggregates"


@dataclass
class Message:
    """A single delivered message.

    Attributes
    ----------
    src, dst:
        Node indices.
    category:
        The :class:`MessageClass` the bytes are accounted under.
    nbytes:
        Encoded wire size.  May be fractional: dictionary encodings are
        accounted at bit granularity (e.g. a 30-bit key is 3.75 bytes),
        exactly as the paper's simulations do.
    payload:
        Arbitrary python/numpy content consumed by the receiving operator.
        Handed over zero-copy; see the module notes for the
        copy-on-conflict rule.
    seq:
        Globally monotonic sequence number, assigned by the network in
        deterministic commit order: at the barrier, in lane order.
        Fault-free inbox order is always ascending in ``seq``, which is
        what lets the fault injector's receivers (:mod:`repro.faults`)
        restore exact fault-free delivery order by sorting and dedup
        duplicates idempotently.  ``-1`` until committed.
    step:
        The profile step the bytes are accounted under: the sender's
        transfer step, or its local-copy step for a message to itself;
        ``None`` when the send records no step.
    """

    src: int
    dst: int
    category: MessageClass
    nbytes: float
    payload: Any
    seq: int = -1
    step: str | None = None


@dataclass
class TrafficLedger:
    """Byte counters aggregated by message class and by (src, dst) link.

    Goodput (first-transmission) bytes live in ``by_class``/``by_link``;
    recovery overhead — retransmissions and wire duplicates injected by
    a :class:`~repro.faults.plan.FaultPlan` — is accounted separately in
    ``retransmit_by_class``, so fault-injected runs keep a goodput
    ledger byte-identical to the fault-free run while the recovery cost
    stays measurable alongside the paper's byte breakdowns.  On the
    fault-free fast path the retransmit counters are provably zero
    (nothing ever records into them).
    """

    by_class: dict[MessageClass, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    by_link: dict[tuple[int, int], float] = field(default_factory=lambda: defaultdict(float))
    local_bytes: float = 0.0
    message_count: int = 0
    retransmit_by_class: dict[MessageClass, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    retransmit_count: int = 0

    def record(self, msg: Message) -> None:
        """Account one message; local messages only bump ``local_bytes``."""
        self.message_count += 1
        if msg.src == msg.dst:
            self.local_bytes += msg.nbytes
            return
        self.by_class[msg.category] += msg.nbytes
        self.by_link[(msg.src, msg.dst)] += msg.nbytes

    def record_retransmit(self, category: MessageClass, nbytes: float) -> None:
        """Account one retransmitted (or duplicated) wire copy.

        Kept apart from :meth:`record`: retransmissions are recovery
        overhead, not goodput, and must never perturb ``total_bytes``
        or the per-class breakdowns the paper's figures compare.
        """
        self.retransmit_by_class[category] += nbytes
        self.retransmit_count += 1

    @property
    def total_bytes(self) -> float:
        """Total bytes that crossed the network (local copies excluded)."""
        return float(sum(self.by_class.values()))

    @property
    def retransmit_bytes(self) -> float:
        """Recovery overhead bytes (retransmissions and duplicates)."""
        return float(sum(self.retransmit_by_class.values()))

    @property
    def sent_by_node(self) -> dict[int, float]:
        """Goodput bytes each sending node sent, summed from ``by_link``."""
        sent: dict[int, float] = defaultdict(float)
        for (src, _dst), nbytes in self.by_link.items():
            sent[src] += nbytes
        return dict(sent)

    @property
    def received_by_node(self) -> dict[int, float]:
        """Goodput bytes each receiving node received, summed from ``by_link``."""
        received: dict[int, float] = defaultdict(float)
        for (_src, dst), nbytes in self.by_link.items():
            received[dst] += nbytes
        return dict(received)

    @property
    def max_received_bytes(self) -> float:
        """Goodput bytes received by the most loaded node.

        The skew metric of Section 5: minimal total traffic can still
        concentrate transfers on one node; this is the concentration.
        """
        return float(max(self.received_by_node.values(), default=0.0))

    @property
    def max_sent_bytes(self) -> float:
        """Goodput bytes sent by the most loaded node."""
        return float(max(self.sent_by_node.values(), default=0.0))

    def class_bytes(self, category: MessageClass) -> float:
        """Bytes accounted under one message class."""
        return float(self.by_class.get(category, 0.0))

    def breakdown(self) -> dict[str, float]:
        """Human-readable byte breakdown keyed by message-class value."""
        return {c.value: float(self.by_class.get(c, 0.0)) for c in MessageClass}

    def merge(self, other: "TrafficLedger") -> "TrafficLedger":
        """Accumulate ``other`` into this ledger in place; returns ``self``.

        Merging is order-insensitive for the dyadic-rational sizes the
        encodings produce (all sums are exact in float64), which is what
        lets the phase barrier combine per-worker ledgers into totals
        identical to a serial run.
        """
        for category, nbytes in other.by_class.items():
            self.by_class[category] += nbytes
        for link, nbytes in other.by_link.items():
            self.by_link[link] += nbytes
        self.local_bytes += other.local_bytes
        self.message_count += other.message_count
        for category, nbytes in other.retransmit_by_class.items():
            self.retransmit_by_class[category] += nbytes
        self.retransmit_count += other.retransmit_count
        return self

    def merged_with(self, other: "TrafficLedger") -> "TrafficLedger":
        """Return a new ledger combining this one and ``other``."""
        return TrafficLedger().merge(self).merge(other)


class SendLane:
    """One phase task's private state while a network phase is open.

    A lane holds the task's staged messages and — when the phase
    commits into a profile — the task's ordered step list, so concurrent
    tasks never contend on shared state; the phase barrier commits
    lanes in task order.
    """

    __slots__ = ("network", "profile", "messages", "steps")

    def __init__(self, network: "Network", profile: ExecutionProfile | None):
        self.network = network
        self.profile = profile
        self.messages: list[Message] = []
        self.steps = ExecutionProfile(profile.num_nodes) if profile is not None else None


class Network:
    """Message fabric connecting ``num_nodes`` simulated nodes.

    The fabric is symmetric and fully connected (every node can send to
    all others, all links have the same performance), mirroring the
    cluster assumptions of Section 2.  Operators send with :meth:`send`
    and drain destination inboxes at phase boundaries with
    :meth:`deliver`, which mimics the barrier-synchronised, non-pipelined
    implementation the paper evaluates in Section 4.2.
    """

    def __init__(self, num_nodes: int):
        if num_nodes <= 0:
            raise NetworkError(f"a cluster needs at least one node, got {num_nodes}")
        self.num_nodes = num_nodes
        self.ledger = TrafficLedger()
        self._inboxes: list[list[Message]] = [[] for _ in range(num_nodes)]
        self._phase_lanes: list[SendLane] | None = None
        #: Active fault injector, or ``None`` for the fault-free fast
        #: path (which stays byte-for-byte the pre-fault code path).
        self.faults = None
        self._next_seq = 0

    def set_fault_plan(self, plan) -> None:
        """Install (or clear, with ``None``) a seeded fault-injection plan.

        A null plan (``plan.is_null()``) installs no injector: the
        fault-free fast path must stay untouched so golden-equivalence
        ledgers remain byte-identical.
        """
        if plan is None or plan.is_null():
            self.faults = None
            return
        from ..faults.injector import FaultInjector

        self.faults = FaultInjector(plan)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise NetworkError(
                f"node index {node} out of range for {self.num_nodes}-node cluster"
            )

    # -- phases and lanes ------------------------------------------------

    def begin_phase(
        self, num_lanes: int, profile: ExecutionProfile | None = None
    ) -> list[SendLane]:
        """Open a phase with ``num_lanes`` staging lanes (one per task).

        While the phase is open, sends from a thread bound to a lane
        (:meth:`bind_lane`) are staged in that lane, and so are the
        thread's recordings into ``profile``.
        """
        if self._phase_lanes is not None:
            raise NetworkError("a network phase is already open (missing barrier?)")
        self._phase_lanes = [SendLane(self, profile) for _ in range(num_lanes)]
        if self.faults is not None:
            self.faults.begin_phase()
        return self._phase_lanes

    @contextmanager
    def bind_lane(self, lane: SendLane):
        """Route this thread's sends and profile steps into ``lane``."""
        previous = getattr(lane_slot, "lane", None)
        lane_slot.lane = lane
        try:
            yield lane
        finally:
            lane_slot.lane = previous

    def _bound_lane(self) -> SendLane | None:
        """This network's lane bound to the calling thread, if any."""
        lane = getattr(lane_slot, "lane", None)
        return lane if lane is not None and lane.network is self else None

    def end_phase(self) -> None:
        """Barrier: commit all lanes in task order and close the phase.

        Staged messages are recorded in the ledger, numbered and
        appended to the destination inboxes, and lane step lists merge
        into the phase's profile, all in lane (= task) order, making the
        committed state independent of execution order.
        """
        lanes = self._phase_lanes
        if lanes is None:
            raise NetworkError("no network phase is open")
        self._phase_lanes = None
        # Under a fault plan every destination's staged batch runs
        # through the injector on this (coordinator) thread in
        # deterministic lane order, so drops, retransmissions,
        # duplicates, and reorders are bit-identical across worker
        # counts; goodput accounting is identical (every staged message
        # is recorded once, before the injector sees it).  A retry
        # budget exhaustion raises FaultExhaustedError with the phase
        # already closed; callers unwind via abort_phase.
        staged: dict[int, list[Message]] = {}
        for lane in lanes:
            for msg in lane.messages:
                self.ledger.record(msg)
                msg.seq = self._next_seq
                self._next_seq += 1
                if self.faults is None:
                    self._inboxes[msg.dst].append(msg)
                else:
                    staged.setdefault(msg.dst, []).append(msg)
        if self.faults is not None:
            for dst in sorted(staged):
                self._inboxes[dst].extend(
                    self.faults.commit_batch(dst, staged[dst], self.ledger)
                )
            self.faults.barrier()
        for lane in lanes:
            if lane.steps is not None:
                lane.profile.merge(lane.steps)

    def abort_phase(self) -> None:
        """Discard all staged lanes (error path; accounting unwinds)."""
        self._phase_lanes = None

    # -- sending ---------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        category: MessageClass,
        nbytes: float,
        payload: Any = None,
        profile: ExecutionProfile | None = None,
        step: str | None = None,
        local_step: str | None = None,
    ) -> None:
        """Stage one message from ``src`` to ``dst`` and account its size.

        The message is staged in the lane bound to the calling thread
        and becomes visible at the phase barrier; with no lane bound
        (no open phase, or a thread outside its tasks) the send raises
        :class:`~repro.errors.NetworkError` and records nothing.  The
        phase barrier records the bytes in the ledger; when ``profile``
        is given, the send records them in the profile step the message
        is attributed to: ``step`` (a NET step) between two nodes,
        ``local_step`` (a LOCAL copy) for a message to itself; a missing
        name records no step.  The payload is handed over zero-copy (see
        the module notes for the copy-on-conflict rule).
        """
        self._check_node(src)
        self._check_node(dst)
        if not math.isfinite(nbytes) or nbytes < 0:
            raise NetworkError(
                f"message size must be finite and non-negative, got {nbytes}"
            )
        lane = self._bound_lane()
        if lane is None:
            raise NetworkError(
                f"send {src}->{dst} outside a phase: every send runs in a "
                "phase task (Cluster.run_phase) and stages in its lane"
            )
        msg = Message(
            src, dst, category, float(nbytes), payload,
            step=step if src != dst else local_step,
        )
        lane.messages.append(msg)
        if profile is not None and msg.step is not None:
            profile.record_send(msg)

    def send_batches(
        self,
        src: int,
        category: MessageClass,
        batches: Sequence[Any],
        width: float,
        profile: ExecutionProfile | None = None,
        step: str | None = None,
        local_step: str | None = None,
    ) -> None:
        """Coalesced per-destination send of one scatter's batch list.

        ``batches`` is indexed by destination (the shape produced by
        ``LocalPartition.split_by``); ``None`` entries are skipped and
        each remaining batch becomes exactly one zero-copy message of
        ``batch.num_rows * width`` bytes, accounted as :meth:`send`
        accounts it.
        """
        for dst, batch in enumerate(batches):
            if batch is not None:
                self.send(
                    src, dst, category, batch.num_rows * width, batch,
                    profile=profile, step=step, local_step=local_step,
                )

    # -- delivery --------------------------------------------------------

    def deliver(self, dst: int) -> list[Message]:
        """Drain and return all messages queued for node ``dst``.

        Called by operators at a barrier: everything sent during the
        preceding phase becomes visible at once.  Messages still staged
        in an open phase's lanes are not included — they appear after
        :meth:`end_phase`.  Concurrent delivery is safe for distinct
        destinations (each inbox belongs to one node's task).

        Under an active fault plan, delivery is idempotent: the drained
        messages are sorted by sequence number (restoring exact
        fault-free arrival order after reorders and requeues) and wire
        duplicates are dropped.
        """
        self._check_node(dst)
        messages, self._inboxes[dst] = self._inboxes[dst], []
        if self.faults is not None and messages:
            messages = self.faults.dedup_and_order(messages)
        return messages

    def deliver_all(self) -> Iterator[tuple[int, list[Message]]]:
        """Drain every inbox, yielding ``(node, messages)`` pairs."""
        for node in range(self.num_nodes):
            messages = self.deliver(node)
            if messages:
                yield node, messages

    def requeue(self, dst: int, messages: Sequence[Message]) -> None:
        """Put selectively-drained messages back on ``dst``'s inbox tail.

        For receivers that :meth:`deliver` a full inbox but consume only
        one message category: undrained messages return through this
        accessor instead of the private inbox list, so the REP003 lint
        rule can hold everything else to the SendLane staging contract.
        Requeued messages were already accounted when first sent.
        """
        self._check_node(dst)
        self._inboxes[dst].extend(messages)

    def clear_inboxes(self) -> int:
        """Discard every undelivered message; returns how many were dropped.

        Recovery hook: after a join aborts mid-phase (e.g. a
        :class:`~repro.errors.FaultExhaustedError` escaped the retry
        budget), committed-but-undrained messages linger in the inboxes.
        ``Cluster.reset`` calls this so the next join — including an
        optimizer's degraded fallback run — starts from a clean fabric.
        """
        dropped = 0
        for inbox in self._inboxes:
            dropped += len(inbox)
            inbox.clear()
        return dropped

    def pending_messages(self) -> int:
        """Number of sent-but-undelivered messages (should be 0 after a join).

        Counts both committed inbox messages and messages staged in an
        open phase's lanes.
        """
        pending = sum(len(inbox) for inbox in self._inboxes)
        if self._phase_lanes is not None:
            pending += sum(len(lane.messages) for lane in self._phase_lanes)
        return pending

    def reset_ledger(self) -> TrafficLedger:
        """Swap in a fresh ledger and return the old one.

        Refuses while a phase is open: the old ledger would be missing
        the staged lanes' bytes.
        """
        if self._phase_lanes is not None:
            raise NetworkError("cannot reset the ledger while a phase is open")
        old, self.ledger = self.ledger, TrafficLedger()
        return old
