"""LocationExchange: (key, node) instruction streams of the scheduler.

Scheduling nodes steer both migrations and selective broadcasts with
streams of (key, node) pairs — "move this key's tuples there" / "send
this key's tuples there".  The pairs are accounted per (sender,
receiver) link at their wire size (:func:`location_message_bytes`,
including the Section 2.4 grouped-by-node and delta-key encodings), and
pairs addressed to the scheduling node itself are free — the paper's
``i != self`` exclusion.  Each scheduling node sends its pairs from its
own phase task.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..errors import ValidationError
from ..timing.profile import ExecutionProfile

__all__ = ["LocationExchange"]


@dataclass
class LocationExchange:
    """Account per-link (key, node) location messages.

    Parameters
    ----------
    step:
        Net step name of remote sends; self-sends fall under the shared
        ``Local copy keys, nodes`` step.
    key_width:
        Wire bytes per key.
    location_width:
        ``M`` of the paper: bytes of one node identifier.
    group_by_node:
        Section 2.4 optimization: amortize each node id over the keys
        sharing it instead of repeating it per pair.
    """

    step: str
    key_width: float
    location_width: float
    group_by_node: bool = False

    def run(
        self,
        cluster: Cluster,
        profile: ExecutionProfile,
        senders: np.ndarray,
        receivers: np.ndarray,
        node_values: np.ndarray,
    ) -> None:
        """Send one sized message per active (sender, receiver) link.

        One phase, one task per scheduling node: each task sends its
        node's links in receiver order, so the barrier commits them in
        (sender, receiver) order.  ``senders``/``receivers``/
        ``node_values`` are parallel pair arrays: the scheduling node,
        the holder it instructs, and the node id the pair carries.  Per link the message size depends on
        the pair count and (for grouped encodings) the distinct node
        values, so both are reduced here in one vectorized pass.
        """
        # Deferred: repro.core's package init pulls in the track join
        # operators, which import this package — a top-level import here
        # would close that cycle during interpreter start-up.
        from ..core.messages import location_message_bytes

        n = cluster.num_nodes
        if n * n * n > (1 << 62):
            raise ValidationError(
                "location messages pack (sender, receiver, node) triples into "
                f"int64, which needs num_nodes**3 <= 2**62 (at most 1664510 "
                f"nodes); got {n} nodes"
            )
        if len(senders) == 0:
            return
        # int64 in place: the node ids may arrive in a narrower dtype.
        composite = np.array(senders, dtype=np.int64)
        composite *= n
        composite += receivers
        composite *= n
        composite += node_values
        if n * n * n <= (1 << 20):
            # The (sender, receiver, value) triple domain is tiny: count
            # every triple with one bincount pass and read link totals
            # and per-link distinct values straight off the table — no
            # sort.
            triple_counts = np.bincount(composite, minlength=n * n * n).reshape(n * n, n)
            link_counts = triple_counts.sum(axis=1)
            link_distinct = np.count_nonzero(triple_counts, axis=1)
            links = np.flatnonzero(link_counts)
            counts = link_counts[links]
            distinct_counts = link_distinct[links]
            group_src = links // n
            group_dst = links % n
        else:
            # Grouped distinct counting in one pass: sort the packed
            # (sender, receiver, value) triple, find link-group
            # boundaries, and count value changes per group — no
            # per-group np.unique.
            order = np.argsort(composite, kind="stable")
            c_sorted = composite[order]
            link = c_sorted // n
            change = np.empty(len(order), dtype=bool)
            change[0] = True
            np.not_equal(link[1:], link[:-1], out=change[1:])
            starts = np.flatnonzero(change)
            counts = np.diff(np.append(starts, len(order)))
            value_change = np.empty(len(order), dtype=bool)
            value_change[0] = True
            np.not_equal(c_sorted[1:], c_sorted[:-1], out=value_change[1:])
            # Per-group change totals via one cumsum pass (reduceat walks
            # element-by-element; there are only ~n^2 groups).
            cumulative = np.cumsum(value_change)
            ends = np.append(starts[1:], len(order))
            distinct_counts = cumulative[ends - 1] - cumulative[starts] + 1
            group_src = link[starts] // n
            group_dst = link[starts] % n
        # Links are in (sender, receiver) order: each scheduling node's
        # links are one run, sent from that node's phase task.
        first = np.flatnonzero(np.diff(group_src, prepend=-1))
        task_senders = group_src[first].tolist()
        bounds = np.append(first, len(group_src)).tolist()
        link_dst = group_dst.tolist()
        link_count = counts.tolist()
        link_distinct = distinct_counts.tolist()

        def send_links(task: int) -> None:
            src = task_senders[task]
            for link in range(bounds[task], bounds[task + 1]):
                dst = link_dst[link]
                nbytes = location_message_bytes(
                    link_count[link],
                    link_distinct[link],
                    self.key_width,
                    self.location_width,
                    group_by_node=self.group_by_node,
                )
                cluster.network.send(
                    src, dst, MessageClass.KEYS_NODES, nbytes,
                    profile=profile, step=self.step,
                    local_step="Local copy keys, nodes",
                )
                # Receivers merge the incoming pair lists before acting
                # on them.
                profile.add_cpu_at("Merge rec. keys, nodes", "merge", dst, nbytes)

        cluster.run_phase(
            send_links, tasks=len(task_senders), profile=profile,
            task_nodes=task_senders,
        )
