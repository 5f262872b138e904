"""SelectiveBroadcast: location-directed sends — the heart of track join.

Where a plain broadcast replicates everything everywhere, the selective
broadcast of Section 2.2 ships each holder's matching tuples only to the
nodes the schedule says have matches: the scheduling nodes deliver
(key, destination) location pairs, each holder joins them against its
local fragment, and the matched tuples scatter directly to their
per-pair destinations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..storage.table import LocalPartition
from ..timing.profile import ExecutionProfile
from .base import matched_batches

__all__ = ["SelectiveBroadcast"]


@dataclass
class SelectiveBroadcast:
    """Send each holder's matching tuples to per-(key, destination) targets.

    Parameters
    ----------
    category:
        Message class of the tuple transfers.
    width:
        Wire bytes per shipped tuple.
    match_width:
        Bytes of one location pair (key + node id) — the per-pair term
        of the translate step's CPU accounting.
    transfer_step / copy_step:
        Profile attribution of remote sends and self-sends.
    translate_step:
        CPU step covering the pair → tuple translation and the
        partition-by-destination scatter.
    """

    category: MessageClass
    width: float
    match_width: float
    transfer_step: str
    copy_step: str
    translate_step: str

    def run(
        self,
        cluster: Cluster,
        profile: ExecutionProfile,
        sources: Sequence[LocalPartition],
        link_keys: np.ndarray,
        edges: np.ndarray,
    ) -> None:
        """One phase: each source node translates its pairs and sends.

        The location pairs (holder node, destination node, key whose
        tuples move) arrive grouped by (holder, destination) link, as
        :func:`~repro.exchange.base.group_by_link` returns them: every
        link's pairs keep their global order, and the caller may drop
        the ungrouped pairs before the sends.
        """

        def broadcast_holder(src: int) -> None:
            num_pairs = int(edges[src, -1] - edges[src, 0])
            if num_pairs == 0:
                return
            local_rows, batches = matched_batches(sources[src], link_keys, edges[src])
            profile.add_cpu_at(
                self.translate_step,
                "merge",
                src,
                num_pairs * self.match_width + len(local_rows) * self.width,
            )
            if batches is not None:
                cluster.network.send_batches(
                    src, self.category, batches, self.width,
                    profile=profile, step=self.transfer_step, local_step=self.copy_step,
                )

        cluster.run_phase(broadcast_holder, profile=profile)
