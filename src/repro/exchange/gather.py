"""Gather: barrier drains of per-node inboxes.

The receiving half of every exchange: at a phase barrier each node
drains its inbox and keeps the payloads of the message classes it is
consuming.  Three idioms recur across the operators and are all covered
here:

- :func:`drain_category` — keep one class, put everything else back on
  the inbox via :meth:`~repro.cluster.network.Network.requeue` (the
  receiver-side contract of mixed-class inboxes);
- :class:`Gather` — a full drain *phase*: one task per node, each
  concatenating its arrivals (or only their keys) into one partition;
- :func:`absorb_received` — consolidation drains (post-migration): the
  arrivals of each class are appended to an existing per-node fragment
  list in place;
- :func:`flush` — discard accounting-only messages (payload ``None``)
  left by size-only exchanges.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..storage.table import LocalPartition
from ..timing.profile import ExecutionProfile

__all__ = ["drain_category", "drain_payloads", "Gather", "absorb_received", "flush"]


def drain_category(cluster: Cluster, dst: int, category: MessageClass) -> list:
    """Drain node ``dst``'s inbox, keeping payloads of one category.

    Messages of other categories survive the drain: they go back on the
    inbox tail through :meth:`Network.requeue` (they were accounted when
    first sent, so requeueing never double-counts).
    """
    kept = []
    requeue = []
    for msg in cluster.network.deliver(dst):
        if msg.category == category:
            kept.append(msg.payload)
        else:
            requeue.append(msg)
    if requeue:
        cluster.network.requeue(dst, requeue)
    return kept


def drain_payloads(cluster: Cluster, dst: int) -> list:
    """Drain node ``dst``'s inbox unconditionally, returning all payloads."""
    return [msg.payload for msg in cluster.network.deliver(dst)]


@dataclass
class Gather:
    """Concatenate each node's arrivals of one message class.

    Parameters
    ----------
    category:
        Message class to keep; ``None`` drains every arrival (used by
        exchanges whose inbox is known to be homogeneous).
    empty_names:
        Payload column names of the zero-row partition produced for
        nodes that received nothing.
    keys_only:
        Concatenate the arrivals' keys alone, leaving every payload
        column where it arrived (a join that only counts probes keys).
    """

    category: MessageClass | None
    empty_names: tuple[str, ...] = ()
    keys_only: bool = False

    def drain_node(self, cluster: Cluster, node: int) -> list[LocalPartition]:
        """One node's arrivals (payload list), category-filtered."""
        if self.category is None:
            return drain_payloads(cluster, node)
        return drain_category(cluster, node, self.category)

    def run(
        self,
        cluster: Cluster,
        profile: ExecutionProfile | None = None,
    ) -> list[LocalPartition]:
        """Drain every node behind a phase barrier; one partition per node."""

        def gather_node(node: int) -> LocalPartition:
            parts = self.drain_node(cluster, node)
            return (
                LocalPartition.concat(parts, self.keys_only)
                if parts
                else LocalPartition.empty(self.empty_names)
            )

        return cluster.run_phase(gather_node, profile=profile)


def absorb_received(
    cluster: Cluster, targets: dict[MessageClass, list[LocalPartition]]
) -> None:
    """Barrier drain appending arrivals to existing per-node fragments.

    ``targets`` maps each expected message class to a per-node partition
    list; arrivals of that class at node ``i`` are concatenated onto
    ``targets[cls][i]`` in place.  This is the consolidation barrier of
    the migration exchange: moved tuples join the destination's local
    fragment before the selective broadcast runs against it.
    """

    def absorb(node: int) -> None:
        extra: dict[MessageClass, list[LocalPartition]] = {
            category: [] for category in targets
        }
        for msg in cluster.network.deliver(node):
            if msg.category in extra:
                extra[msg.category].append(msg.payload)
        for category, fragments in targets.items():
            if extra[category]:
                fragments[node] = LocalPartition.concat(
                    [fragments[node]] + extra[category]
                )

    cluster.run_phase(absorb)


def flush(cluster: Cluster) -> None:
    """Drain and discard all pending messages (accounting-only exchanges)."""
    for _node, _messages in cluster.network.deliver_all():
        pass
