"""Broadcast: replicate one stream to every other node.

Full replication is the cheapest plan when one input is tiny (the
``BJ-R``/``BJ-S`` baselines) and the transport of per-node summary
structures (Section 3.3's Bloom filters).  Two shapes:

- :class:`Broadcast` — every node ships its local fragment to all other
  nodes, so afterwards each node can assemble the full table;
- :func:`replicate_size` — an accounting-only broadcast of a
  fixed-size blob (e.g. a filter) from one node to all others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..storage.table import LocalPartition
from ..timing.profile import ExecutionProfile

__all__ = ["Broadcast", "replicate_size"]


@dataclass
class Broadcast:
    """Ship every node's fragment to all other nodes.

    Parameters
    ----------
    category:
        Message class the replicated bytes are accounted under.
    width:
        Wire bytes per tuple.
    step:
        Step-name stem; scanning is ``Scan local {step}`` and sends are
        ``Transfer {step}`` / ``Local copy {step}``.
    """

    category: MessageClass
    width: float
    step: str

    def scatter(
        self,
        cluster: Cluster,
        profile: ExecutionProfile,
        partitions: Sequence[LocalPartition],
    ) -> None:
        """One phase: each node sends its whole fragment to every peer."""
        transfer_step = f"Transfer {self.step}"

        def scatter_node(src: int) -> None:
            fragment = partitions[src]
            profile.add_cpu_at(
                f"Scan local {self.step}",
                "partition",
                src,
                fragment.num_rows * self.width,
            )
            for dst in range(cluster.num_nodes):
                if dst == src:
                    continue
                cluster.network.send(
                    src, dst, self.category, fragment.num_rows * self.width,
                    payload=fragment, profile=profile, step=transfer_step,
                )

        cluster.run_phase(scatter_node, profile=profile)


def replicate_size(
    cluster: Cluster,
    profile: ExecutionProfile,
    category: MessageClass,
    src: int,
    nbytes: float,
    transfer_step: str,
) -> None:
    """Broadcast an accounting-only blob of ``nbytes`` from one node.

    The messages carry no payload (the receiver-side structure is
    reconstructed from shared state in the simulation); self-sends are
    skipped entirely, matching the paper's ``i != self`` exclusion.
    """
    for dst in range(cluster.num_nodes):
        if dst == src:
            continue
        cluster.network.send(src, dst, category, nbytes, profile=profile, step=transfer_step)
