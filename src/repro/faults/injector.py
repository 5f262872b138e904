"""The fault injector: applies a :class:`FaultPlan` at phase barriers.

One injector instance attaches to a :class:`~repro.cluster.network.Network`
(via ``Network.set_fault_plan``) and implements the delivery protocol the
exchange layer relies on:

Sequence numbers and idempotent delivery
    Every committed message carries a globally monotonic sequence
    number (assigned by the network in deterministic barrier order).
    Receivers restore fault-free arrival order by sorting on it and
    drop duplicate sequence numbers, so duplication, reordering, and
    retransmission are all invisible to operator logic.

Barrier acks and retransmission
    A dropped or delayed message misses its ack at the phase barrier;
    the sender retransmits with capped exponential backoff charged to a
    *virtual* clock (no wall time anywhere — REP002 stays clean).  Each
    retransmission is accounted in the ledger's separate retransmit
    counters, never in the goodput byte classes, so the goodput ledger
    of a faulty run stays byte-identical to the fault-free run.  Past
    ``max_retries`` the sender raises
    :class:`~repro.errors.FaultExhaustedError` instead of hanging.

Crashes and stragglers
    Crashes are fail-stop at phase entry (:meth:`maybe_crash` raises
    :class:`~repro.errors.NodeCrashError` before the node's phase task
    runs, so no partial side effects exist to roll back); the phase
    supervisor in :func:`repro.parallel.run_phase` restarts the node
    and re-executes its work from the last barrier.  Stragglers charge
    their delay to the virtual clock at the barrier.

Determinism
    All message-level draws happen on the coordinator thread, in
    barrier commit order, from one sequential RNG seeded by the plan;
    crash draws use substreams keyed by ``(seed, phase, node, attempt)``.
    Fault sequences are therefore bit-identical across worker counts.
"""

from __future__ import annotations

import threading

import numpy as np

from ..cluster.network import Message, TrafficLedger
from ..errors import FaultExhaustedError, NodeCrashError
from .plan import FaultPlan, FaultStats

__all__ = ["FaultInjector"]

#: Substream tag separating crash draws from the sequential message RNG.
_CRASH_STREAM = 0xC0A5


class FaultInjector:
    """Applies one :class:`FaultPlan` to a network's message flow."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.stats = FaultStats()
        #: Virtual clock (seconds): backoff and straggler time accumulates
        #: here; nothing in this package ever reads a wall clock.
        self.clock = 0.0
        #: 1-based barrier counter; phase ``p`` is the ``p``-th
        #: ``begin_phase`` since the last :meth:`reset`.
        self.phase = 0
        self._rng = np.random.default_rng(plan.seed)
        self._lock = threading.Lock()
        #: (node, phase) -> entry attempts, for scripted-crash consumption
        #: and the keyed probabilistic crash substream.
        self._crash_attempts: dict[tuple[int, int], int] = {}

    # -- lifecycle -------------------------------------------------------

    def reset(self) -> None:
        """Rewind to the start of a join (called by ``Cluster.reset``).

        Reseeds the sequential RNG and rewinds the phase counter so
        every join on the cluster sees the identical fault sequence;
        cumulative counters (stats, virtual clock) are preserved so a
        chaos run can report recovery cost across joins.
        """
        self.phase = 0
        self._rng = np.random.default_rng(self.plan.seed)
        with self._lock:
            self._crash_attempts.clear()

    def begin_phase(self) -> None:
        """Advance the barrier counter (one call per ``Network.begin_phase``)."""
        self.phase += 1

    def barrier(self) -> None:
        """Apply this phase's straggler events to the virtual clock.

        The barrier waits for the slowest node, so concurrent
        stragglers cost the maximum of their delays, not the sum.
        """
        fired = [
            event for event in self.plan.stragglers if event.phase == self.phase
        ]
        if fired:
            delay = max(event.delay for event in fired)
            # stats is also mutated from task threads (dedup, crashes)
            # under the lock; coordinator-side updates take it too so
            # every access shape shares the guard (REP009).
            with self._lock:
                self.stats.stragglers += len(fired)
                self.clock += delay
                self.stats.virtual_time += delay

    # -- message protocol (coordinator thread only) ----------------------

    def _retransmit(self, msg: Message, retry: int, ledger: TrafficLedger) -> None:
        """Account one retransmission: bytes, retry count, backoff time."""
        backoff = min(self.plan.backoff_cap, self.plan.backoff_base * 2 ** (retry - 1))
        with self._lock:
            self.stats.retries += 1
            self.stats.retransmit_bytes += msg.nbytes
            self.clock += backoff
            self.stats.virtual_time += backoff
        ledger.record_retransmit(msg.category, msg.nbytes)

    def transmit(self, msg: Message, ledger: TrafficLedger) -> list[Message]:
        """Deliver one remote message through the fault model.

        Called by :meth:`commit_batch` only, once per remote message of
        a barrier batch.

        Returns the inbox entries the message produces (the delivered
        copy plus any duplicate or late-arriving copies, all sharing its
        sequence number).  Raises
        :class:`~repro.errors.FaultExhaustedError` when every allowed
        transmission attempt is dropped.
        """
        plan = self.plan
        rates = plan.rates_for(msg.category, msg.src, msg.dst)
        retries = 0
        while rates.drop and self._rng.random() < rates.drop:
            with self._lock:
                self.stats.drops += 1
            if retries >= plan.max_retries:
                raise FaultExhaustedError(
                    f"{msg.category.value} message {msg.src}->{msg.dst} "
                    f"({msg.nbytes:g} bytes) dropped {retries + 1} times; "
                    f"retry budget of {plan.max_retries} exhausted",
                    category=msg.category,
                    link=(msg.src, msg.dst),
                    attempts=retries + 1,
                )
            retries += 1
            self._retransmit(msg, retries, ledger)
        out = [msg]
        if rates.delay and self._rng.random() < rates.delay:
            # The original misses the barrier ack; the sender pays one
            # retransmission, and the delayed original still arrives
            # late as a duplicate the receiver dedups away.
            with self._lock:
                self.stats.delays += 1
            retries += 1
            self._retransmit(msg, retries, ledger)
            out.append(self._copy(msg))
        if rates.duplicate and self._rng.random() < rates.duplicate:
            with self._lock:
                self.stats.duplicates += 1
                self.stats.retransmit_bytes += msg.nbytes
            ledger.record_retransmit(msg.category, msg.nbytes)
            out.append(self._copy(msg))
        return out

    @staticmethod
    def _copy(msg: Message) -> Message:
        """A wire duplicate: same payload reference, same sequence number."""
        return Message(
            src=msg.src,
            dst=msg.dst,
            category=msg.category,
            nbytes=msg.nbytes,
            payload=msg.payload,
            seq=msg.seq,
        )

    def commit_batch(
        self, dst: int, messages: list[Message], ledger: TrafficLedger
    ) -> list[Message]:
        """Run one destination's barrier batch through the fault model.

        Local messages (``src == dst``) bypass the model; remote ones go
        through :meth:`transmit`, then each source link's surviving
        batch may be reordered in place (the receiver's sequence-number
        sort undoes it).
        """
        out: list[Message] = []
        for msg in messages:
            if msg.src == msg.dst:
                out.append(msg)
            else:
                out.extend(self.transmit(msg, ledger))
        by_src: dict[int, list[int]] = {}
        for position, msg in enumerate(out):
            if msg.src != dst:
                by_src.setdefault(msg.src, []).append(position)
        for src in sorted(by_src):
            positions = by_src[src]
            rate = self.plan.reorder_rate_for(src, dst)
            if len(positions) >= 2 and rate and self._rng.random() < rate:
                with self._lock:
                    self.stats.reorders += 1
                permutation = self._rng.permutation(len(positions))
                batch = [out[position] for position in positions]
                for position, source in zip(positions, permutation):
                    out[position] = batch[source]
        return out

    # -- receiver side (any thread) --------------------------------------

    def dedup_and_order(self, messages: list[Message]) -> list[Message]:
        """Idempotent delivery: sort by sequence number, drop duplicates.

        Fault-free inbox order is always ascending in sequence number
        (the barrier assigns numbers in the order it appends), so the
        sort restores the exact fault-free arrival order after
        any mix of reordering, duplication, and retransmission.
        """
        ordered = sorted(messages, key=lambda msg: msg.seq)
        out: list[Message] = []
        seen: set[int] = set()
        dropped = 0
        for msg in ordered:
            if msg.seq in seen:
                dropped += 1
                continue
            seen.add(msg.seq)
            out.append(msg)
        if dropped:
            with self._lock:
                self.stats.deduped += dropped
        return out

    # -- crashes (called from phase tasks on any thread) -----------------

    def maybe_crash(self, node: int) -> None:
        """Raise :class:`NodeCrashError` if ``node`` dies entering this phase.

        Crash decisions are keyed by ``(node, phase, attempt)`` — the
        first ``count`` scripted entries crash, and the probabilistic
        ``crash_rate`` uses a keyed RNG substream — so they never depend
        on thread scheduling or worker count.
        """
        phase = self.phase
        with self._lock:
            attempt = self._crash_attempts.get((node, phase), 0) + 1
            self._crash_attempts[(node, phase)] = attempt
        crash = attempt <= self.plan.crash_count(node, phase)
        if not crash and self.plan.crash_rate:
            substream = np.random.default_rng(
                (self.plan.seed, _CRASH_STREAM, phase, node, attempt)
            )
            crash = substream.random() < self.plan.crash_rate
        if crash:
            with self._lock:
                self.stats.crashes += 1
            raise NodeCrashError(
                f"node {node} crashed entering phase {phase} (attempt {attempt})",
                node=node,
                phase=phase,
            )

    def record_restart(self, node: int) -> None:
        """Count one supervisor-driven node restart."""
        with self._lock:
            self.stats.restarts += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultInjector seed={self.plan.seed} phase={self.phase}>"
