"""Execution profiles: the per-step work a distributed join performs.

The paper's Tables 2-4 report wall-clock seconds per algorithm step on a
real 4-machine cluster.  Our substrate is a simulator, so joins instead
record *work*: for every named step, how many bytes each node processed
(CPU steps) or how many bytes crossed the network (network steps).  A
:class:`~repro.timing.hardware.HardwareModel` then converts work into
seconds with calibrated rates.

Steps are recorded in execution order and keep the paper's step names
("Hash partition R tuples", "Generate schedules and partition by node",
...), so the Table 3/4 benches print rows aligned with the paper.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from ..errors import ValidationError

import numpy as np

__all__ = ["Step", "NodeLoad", "ExecutionProfile", "CPU", "NET", "LOCAL", "lane_slot"]

#: Step kinds.  ``LOCAL`` marks node-local memory copies, which the paper
#: separates from real network transfers ("Local copy tuples").
CPU = "cpu"
NET = "net"
LOCAL = "local"

#: The send lane each thread's phase task runs in, if any: set by
#: :meth:`repro.cluster.network.Network.bind_lane`.  The network stages
#: the thread's sends in it, and a profile records the thread's steps
#: into the lane's step list when the lane commits into that profile.
lane_slot = threading.local()


@dataclass
class Step:
    """One named step of a join execution.

    Attributes
    ----------
    name:
        Human-readable step name (matches the paper's step tables).
    kind:
        ``CPU`` (per-node processing), ``NET`` (network transfer), or
        ``LOCAL`` (node-local copy).
    rate_class:
        Which calibrated hardware rate applies ("partition", "sort",
        "merge", "aggregate", "schedule", "copy", "transfer").
    per_node_bytes:
        Work per node.  CPU time is driven by the most loaded node
        (nodes run in parallel); network time by the total volume.  A
        NET step counts the bytes each node sent.
    per_node_received:
        NET steps only (``None`` otherwise): the bytes each node
        received, from the messages :meth:`ExecutionProfile.record_send`
        records.  A NET step built by hand with ``add_net``/``add_net_at``
        knows only its senders, so this stays zero.
    """

    name: str
    kind: str
    rate_class: str
    per_node_bytes: np.ndarray
    per_node_received: np.ndarray | None = None

    @property
    def total_bytes(self) -> float:
        """Work summed over all nodes."""
        return float(self.per_node_bytes.sum())

    @property
    def max_node_bytes(self) -> float:
        """Work of the most loaded node."""
        return float(self.per_node_bytes.max()) if len(self.per_node_bytes) else 0.0


@dataclass(frozen=True, eq=False)
class NodeLoad:
    """Goodput bytes each node sent and received over one run.

    The skew metric of Section 5: minimal total traffic can still
    concentrate transfers on one node.  Means are over every node of the
    cluster, idle ones included, so a skew of ``N`` on ``N`` nodes says
    one node carried all the traffic.
    """

    sent: np.ndarray
    received: np.ndarray

    @classmethod
    def from_links(cls, by_link: dict[tuple[int, int], float], num_nodes: int) -> "NodeLoad":
        """Sum per-link bytes (``TrafficLedger.by_link``) per sender and receiver."""
        sent = np.zeros(num_nodes)
        received = np.zeros(num_nodes)
        for (src, dst), nbytes in by_link.items():
            sent[src] += nbytes
            received[dst] += nbytes
        return cls(sent, received)

    @property
    def max_sent(self) -> float:
        return float(self.sent.max(initial=0.0))

    @property
    def mean_sent(self) -> float:
        return float(self.sent.mean()) if len(self.sent) else 0.0

    @property
    def send_skew(self) -> float:
        """Most loaded sender over the mean; 1.0 when nothing was sent."""
        return self.max_sent / self.mean_sent if self.mean_sent else 1.0

    @property
    def max_received(self) -> float:
        return float(self.received.max(initial=0.0))

    @property
    def mean_received(self) -> float:
        return float(self.received.mean()) if len(self.received) else 0.0

    @property
    def receive_skew(self) -> float:
        """Most loaded receiver over the mean; 1.0 when nothing was received."""
        return self.max_received / self.mean_received if self.mean_received else 1.0


class ExecutionProfile:
    """Ordered collection of the steps one join execution performed.

    Inside a phase, a task's recordings go to the step list of the send
    lane bound to its thread (see :data:`lane_slot`) when that lane
    commits into this profile; the phase barrier merges the lanes' step
    lists back in task order.  Step lists and per-node sums are
    therefore bit-identical for every worker count and thread
    interleaving.
    """

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.steps: list[Step] = []
        #: ``steps`` by ``(name, kind)``, so recording is a dict lookup.
        self._step_index: dict[tuple[str, str], Step] = {}
        #: Wall-clock phase breakdowns (one dict per executed phase
        #: group): dispatch/kernel/barrier-wait/commit seconds plus
        #: task/stage/worker counts.  Unlike ``steps``, these are real
        #: timings — non-deterministic by nature — so they are excluded
        #: from lane merging, golden comparisons, and :meth:`merge`.
        self.phase_timings: list[dict] = []
        #: Per-node goodput of the run, snapshotted from the traffic
        #: ledger when the join finishes (:meth:`record_network_load`);
        #: ``None`` before that.  Excluded from :meth:`merge`.
        self.node_load: NodeLoad | None = None

    def record_network_load(self, ledger) -> None:
        """Snapshot the ledger's per-node goodput into :attr:`node_load`.

        Called once per join, right before the cluster's ledger is
        detached from the run; keeps the skew metrics available from
        the profile after the ledger moves on.
        """
        self.node_load = NodeLoad.from_links(ledger.by_link, self.num_nodes)

    def merge(self, other: "ExecutionProfile") -> "ExecutionProfile":
        """Accumulate another profile's steps into this one, in step order."""
        for step in other.steps:
            merged = self._accumulate(
                step.name, step.kind, step.rate_class, step.per_node_bytes
            )
            if step.per_node_received is not None:
                merged.per_node_received += step.per_node_received
        return self

    # -- recording -------------------------------------------------------

    def _recorder(self) -> "ExecutionProfile":
        """The step list this thread records into: the bound lane's, when
        the lane commits into this profile, else this profile's own."""
        lane = getattr(lane_slot, "lane", None)
        if lane is not None and lane.profile is self:
            return lane.steps
        return self

    def _accumulate(self, name: str, kind: str, rate_class: str, per_node) -> Step:
        per_node = np.asarray(per_node, dtype=np.float64)
        if per_node.shape != (self.num_nodes,):
            raise ValidationError(
                f"step {name!r}: expected {self.num_nodes} per-node values, "
                f"got shape {per_node.shape}"
            )
        # Merge with an existing step of the same name so loops over nodes
        # can record incrementally.  A new step owns a copy, so later
        # in-place adds never write into a caller's array.
        recorder = self._recorder()
        step = recorder._step_index.get((name, kind))
        if step is None:
            return recorder._new_step(name, kind, rate_class, per_node.copy())
        step.per_node_bytes += per_node
        return step

    def _accumulate_at(
        self, name: str, kind: str, rate_class: str, node: int, nbytes: float
    ) -> Step:
        """Add one node's work to a step without a per-call array."""
        recorder = self._recorder()
        step = recorder._step_index.get((name, kind))
        if step is None:
            step = recorder._new_step(name, kind, rate_class, np.zeros(self.num_nodes))
        step.per_node_bytes[node] += nbytes
        return step

    def _new_step(self, name: str, kind: str, rate_class: str, per_node) -> Step:
        received = np.zeros(self.num_nodes) if kind == NET else None
        step = Step(name, kind, rate_class, per_node, received)
        self.steps.append(step)
        self._step_index[(name, kind)] = step
        return step

    def record_send(self, msg) -> None:
        """Attribute one sent message to its step, ``msg.step``.

        A message between two nodes is a NET step: its bytes count as
        sent by ``msg.src`` and received by ``msg.dst``.  A message to
        itself is a LOCAL copy at its node.
        """
        if msg.src == msg.dst:
            self._accumulate_at(msg.step, LOCAL, "copy", msg.src, msg.nbytes)
            return
        step = self._accumulate_at(msg.step, NET, "transfer", msg.src, msg.nbytes)
        step.per_node_received[msg.dst] += msg.nbytes

    def add_cpu(self, name: str, rate_class: str, per_node_bytes) -> Step:
        """Record per-node CPU work for a named step."""
        return self._accumulate(name, CPU, rate_class, per_node_bytes)

    def add_cpu_at(self, name: str, rate_class: str, node: int, nbytes: float) -> Step:
        """Record CPU work for one node of a named step."""
        return self._accumulate_at(name, CPU, rate_class, node, nbytes)

    def add_net(self, name: str, per_node_sent_bytes) -> Step:
        """Record a network transfer step (bytes sent per node)."""
        return self._accumulate(name, NET, "transfer", per_node_sent_bytes)

    def add_net_at(self, name: str, node: int, nbytes: float) -> Step:
        """Record bytes one node sent during a named transfer step."""
        return self._accumulate_at(name, NET, "transfer", node, nbytes)

    def add_local(self, name: str, node: int, nbytes: float) -> Step:
        """Record a node-local copy (not network traffic)."""
        return self._accumulate_at(name, LOCAL, "copy", node, nbytes)

    def record_phase_timing(self, timing: dict) -> None:
        """Append one phase's wall-clock breakdown.

        Always recorded on the shared profile (never routed through a
        lane): the phase runner calls this once per phase, after the
        barrier, from the coordinating thread.
        """
        self.phase_timings.append(timing)

    def timing_totals(self) -> dict:
        """Summed wall-clock breakdown over all recorded phases."""
        totals = {
            "phases": len(self.phase_timings),
            "dispatch_seconds": 0.0,
            "kernel_seconds": 0.0,
            "barrier_wait_seconds": 0.0,
            "commit_seconds": 0.0,
            "phase_seconds": 0.0,
        }
        for timing in self.phase_timings:
            for field in (
                "dispatch_seconds",
                "kernel_seconds",
                "barrier_wait_seconds",
                "commit_seconds",
                "phase_seconds",
            ):
                totals[field] += timing.get(field, 0.0)
        return totals

    def step_named(self, name: str) -> Step | None:
        """Look up a recorded step by name."""
        for step in self.steps:
            if step.name == name:
                return step
        return None

    def total_network_bytes(self) -> float:
        """Bytes crossing the network over all NET steps."""
        return sum(s.total_bytes for s in self.steps if s.kind == NET)
