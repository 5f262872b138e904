"""Shared machinery of the exchange operators.

Every distributed operator in the library moves data through the same
handful of communication patterns — hash scatter, replication, directed
(location-driven) sends, consolidation, and barrier drains.  The classes
in :mod:`repro.exchange` package those patterns as first-class
*exchange operators*; this module holds what they share:

- :func:`account_transfer` — the uniform profile attribution of one
  send: local sends are "Local copy ..." steps, remote sends are
  network-transfer steps (the paper separates the two in Tables 3-4);
- :func:`send_rows` — ship one tuple batch with wire-size accounting
  (``rows × width``) under a :class:`~repro.cluster.network.MessageClass`;
- :func:`send_split` — the per-destination batch list produced by
  ``LocalPartition.split_by``/``hash_split`` sent as one message per
  destination, with the accounting for each;
- :func:`group_by_link` / :func:`matched_batches` — the directed
  exchanges' translation of (holder, destination, key) instruction
  pairs into per-destination batches of each holder's matching tuples.

All sends go through :meth:`Network.send`, so inside an open cluster
phase they are staged in the calling task's
:class:`~repro.cluster.network.SendLane` and committed deterministically
at the barrier — exchange operators never bypass the staging contract.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..joins.local import join_indices
from ..storage.table import LocalPartition
from ..timing.profile import ExecutionProfile
from ..util import group_bounded

__all__ = [
    "account_transfer",
    "send_rows",
    "send_split",
    "group_by_link",
    "matched_batches",
]


def account_transfer(
    profile: ExecutionProfile,
    src: int,
    dst: int,
    nbytes: float,
    transfer_step: str,
    local_step: str,
) -> None:
    """Attribute one send to the profile: local copy or network transfer."""
    if src == dst:
        profile.add_local(local_step, src, nbytes)
    else:
        profile.add_net_at(transfer_step, src, nbytes)


def send_rows(
    cluster: Cluster,
    profile: ExecutionProfile,
    category: MessageClass,
    src: int,
    dst: int,
    rows: LocalPartition,
    width: float,
    transfer_step: str,
    local_step: str,
) -> float:
    """Ship one batch of tuples; returns the accounted wire size."""
    nbytes = rows.num_rows * width
    cluster.network.send(src, dst, category, nbytes, payload=rows)
    account_transfer(profile, src, dst, nbytes, transfer_step, local_step)
    return nbytes


def send_split(
    cluster: Cluster,
    profile: ExecutionProfile,
    category: MessageClass,
    src: int,
    batches: Sequence[LocalPartition | None],
    width: float,
    transfer_step: str,
    local_step: str,
    payload_of: Callable[[LocalPartition], Any] | None = None,
) -> list[tuple[int, float]]:
    """Send one scatter's per-destination batch list, accounting each.

    ``batches`` is indexed by destination node (the shape produced by
    ``LocalPartition.split_by``); ``None`` entries are skipped.  With
    ``payload_of`` the wire payload is derived from each batch (e.g. the
    MapReduce engine tags batches with their channel name); otherwise
    batches travel zero-copy through
    :meth:`~repro.cluster.network.Network.send_batches`.

    Returns ``(dst, nbytes)`` per message, in destination order.
    """
    if payload_of is None:
        sent = cluster.network.send_batches(src, category, batches, width)
        for dst, nbytes in sent:
            account_transfer(profile, src, dst, nbytes, transfer_step, local_step)
        return sent
    sent = []
    for dst, batch in enumerate(batches):
        if batch is None:
            continue
        nbytes = batch.num_rows * width
        cluster.network.send(src, dst, category, nbytes, payload=payload_of(batch))
        account_transfer(profile, src, dst, nbytes, transfer_step, local_step)
        sent.append((dst, nbytes))
    return sent


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
