"""Shared machinery of the exchange operators.

Every distributed operator in the library moves data through the same
handful of communication patterns — hash scatter, replication, directed
(location-driven) sends, consolidation, and barrier drains.  The classes
in :mod:`repro.exchange` package those patterns as first-class
*exchange operators*; this module holds what they share:

- :func:`group_by_link` / :func:`matched_batches` — the directed
  exchanges' translation of (holder, destination, key) instruction
  pairs into per-destination batches of each holder's matching tuples.

All sends go through :meth:`Network.send`, which writes each send's bytes
once: to the ledger and to the profile, as a network-transfer step or,
for a node sending to itself, a "Local copy ..." step (the paper
separates the two in Tables 3-4).  Every send runs in a cluster phase
task: it is staged in the task's
:class:`~repro.cluster.network.SendLane` and committed deterministically
at the barrier, and a send outside a phase raises.
"""

from __future__ import annotations

import numpy as np

from ..joins.local import join_indices
from ..storage.table import LocalPartition
from ..util import group_bounded

__all__ = [
    "group_by_link",
    "matched_batches",
]


def group_by_link(
    holders: np.ndarray, dests: np.ndarray, keys: np.ndarray, num_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Group instruction pairs by ``link = holder * num_nodes + destination``.

    Returns the pair keys in link order (stable: a link's pairs keep
    their input order) and a ``(num_nodes, num_nodes + 1)`` offsets
    table: holder ``h``'s pairs are the contiguous run
    ``edges[h, 0] : edges[h, -1]``, already in destination order, with
    destination ``d``'s pairs at ``edges[h, d] : edges[h, d + 1]`` — the
    row :func:`matched_batches` cuts at.  Links are in range because
    both ids are nodes of the cluster; they are built in the narrowest
    unsigned dtype that holds ``num_nodes**2 - 1``, which may be wider
    than the node ids'.
    """
    links = np.asarray(holders).astype(np.min_scalar_type(num_nodes * num_nodes - 1))
    links *= num_nodes
    np.add(links, dests, out=links, casting="unsafe")
    order, bounds = group_bounded(links, num_nodes * num_nodes)
    del links
    edges = bounds[np.add.outer(np.arange(num_nodes) * num_nodes, np.arange(num_nodes + 1))]
    return keys[order], edges


def matched_batches(
    local: LocalPartition, link_keys: np.ndarray, edges: np.ndarray
) -> tuple[np.ndarray, list[LocalPartition | None] | None]:
    """One holder's matching rows and their per-destination batch list.

    ``edges`` is the holder's row of :func:`group_by_link`'s offsets
    table.  The holder's pairs are in destination order and
    ``join_indices`` emits ascending pair positions, so the matched rows
    leave the probe already grouped by destination: one gather, then one
    view per destination, each batch in pair order.  The batch list is
    ``None`` when nothing matches.
    """
    pair_pos, rows = join_indices(
        link_keys[edges[0] : edges[-1]], local.keys, right_partition=local
    )
    if len(rows) == 0:
        return rows, None
    return rows, local.take(rows).cut(np.searchsorted(pair_pos, edges - edges[0]))
