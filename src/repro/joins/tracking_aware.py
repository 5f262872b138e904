"""Rid-based hash joins: late materialization and the tracking-aware variant.

Section 3.2 compares track join against hash joins that defer payload
access by carrying record identifiers (rids):

* :class:`LateMaterializationHashJoin` — keys are hashed with implicit
  rids, the join happens at the hash nodes, and payloads are fetched at
  output cardinality (cost ``(tR+tS)*wk + tRS*(wR+wS+log tR+log tS)``).

* :class:`TrackingAwareHashJoin` — the rid's node component is used as
  free tracking information: the joined result migrates to the location
  of the wider-payload tuple and only the narrower payload crosses the
  network (cost ``(tR+tS)*wk + tRS*(min(wR,wS)+wk+log tR+log tS)``).

The paper proves 2-phase track join subsumes the tracking-aware variant
(it deduplicates keys during tracking and resends keys, which compress
better than rids); these operators exist so that claim is measurable.
"""

from __future__ import annotations

import math

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass
from ..exchange.gather import drain_payloads, flush
from ..exchange.shuffle import KeyShuffle
from ..storage.table import DistributedTable, LocalPartition
from ..timing.profile import ExecutionProfile
from .base import DistributedJoin, JoinSpec
from .local import join_indices

__all__ = ["LateMaterializationHashJoin", "TrackingAwareHashJoin", "rid_width"]


def rid_width(total_rows: int) -> float:
    """Bytes of a local record identifier addressing ``total_rows``."""
    return math.ceil(math.log2(max(2, total_rows)) / 8)


def _scatter_keys(
    cluster: Cluster,
    table: DistributedTable,
    spec: JoinSpec,
    profile: ExecutionProfile,
    side: str,
) -> list[LocalPartition]:
    """Hash-scatter (key, implicit rid) streams; returns per-node arrivals.

    The returned partitions carry ``node``/``pos`` columns identifying
    each tuple's origin, but only the key column is accounted on the
    wire — rids are implicit in message origin and order.
    """
    key_width = table.schema.key_width(spec.encoding)
    shuffle = KeyShuffle(key_width, f"{side} keys", hash_seed=spec.hash_seed)
    return shuffle.run(cluster, profile, table.partitions)


def _rid_pairs(
    cluster: Cluster,
    recv_r: list[LocalPartition],
    recv_s: list[LocalPartition],
    profile: ExecutionProfile,
    key_width: float,
) -> list[LocalPartition]:
    """Join the scattered key streams at every hash node into rid pairs."""

    def pair_node(node: int) -> LocalPartition:
        r_part, s_part = recv_r[node], recv_s[node]
        idx_r, idx_s = join_indices(r_part.keys, s_part.keys)
        profile.add_cpu_at(
            "Join keys into rid pairs",
            "merge",
            node,
            (r_part.num_rows + s_part.num_rows + len(idx_r)) * key_width,
        )
        return LocalPartition(
            keys=r_part.keys[idx_r],
            columns={
                "r_node": r_part.columns["node"][idx_r],
                "r_pos": r_part.columns["pos"][idx_r],
                "s_node": s_part.columns["node"][idx_s],
                "s_pos": s_part.columns["pos"][idx_s],
            },
        )

    return cluster.run_phase(pair_node, profile=profile)


class LateMaterializationHashJoin(DistributedJoin):
    """Hash join on keys + rids, fetching payloads at output cardinality."""

    name = "LMHJ"

    def _execute(
        self,
        cluster: Cluster,
        table_r: DistributedTable,
        table_s: DistributedTable,
        spec: JoinSpec,
        profile: ExecutionProfile,
    ) -> list[LocalPartition]:
        recv_r = _scatter_keys(cluster, table_r, spec, profile, "R")
        recv_s = _scatter_keys(cluster, table_s, spec, profile, "S")
        key_width = table_r.schema.key_width(spec.encoding)
        pairs = _rid_pairs(cluster, recv_r, recv_s, profile, key_width)

        rid_r = rid_width(table_r.total_rows)
        rid_s = rid_width(table_s.total_rows)

        def fetch_node(node: int) -> LocalPartition:
            pair = pairs[node]
            columns: dict[str, np.ndarray] = {}
            for side, table, rid_bytes, category in (
                ("r", table_r, rid_r, MessageClass.R_TUPLES),
                ("s", table_s, rid_s, MessageClass.S_TUPLES),
            ):
                payload_width = table.schema.payload_width(spec.encoding)
                origin = pair.columns[f"{side}_node"]
                pos = pair.columns[f"{side}_pos"]
                fetched = {
                    name: np.empty(pair.num_rows, dtype=values.dtype)
                    for name, values in table.partitions[0].columns.items()
                }
                for src in np.unique(origin):
                    sel = np.flatnonzero(origin == src)
                    # Fetch request: one rid per output tuple.
                    cluster.network.send(
                        node, int(src), MessageClass.RIDS, len(sel) * rid_bytes,
                        profile=profile, step=f"Fetch {side.upper()} payloads",
                    )
                    # Response: the payload columns, in request order.
                    cluster.network.send(
                        int(src), node, category, len(sel) * payload_width,
                        profile=profile, step=f"Return {side.upper()} payloads",
                    )
                    rows = table.partitions[int(src)].take(pos[sel])
                    for name, values in rows.columns.items():
                        fetched[name][sel] = values
                for name, values in fetched.items():
                    columns[f"{side}.{name}"] = values
            return LocalPartition(keys=pair.keys, columns=columns)

        output = cluster.run_phase(fetch_node, profile=profile)
        # Request/response messages carry no payloads; drain them at the
        # phase barrier (the serial loop drained per node as it went).
        flush(cluster)
        return output


class TrackingAwareHashJoin(DistributedJoin):
    """Rid-based hash join exploiting the rid's implicit location (Sec 3.2).

    The result migrates to the wider-payload tuple's node; only the
    narrower payload (plus the key and rids) crosses the network.
    """

    name = "TAHJ"

    def _execute(
        self,
        cluster: Cluster,
        table_r: DistributedTable,
        table_s: DistributedTable,
        spec: JoinSpec,
        profile: ExecutionProfile,
    ) -> list[LocalPartition]:
        recv_r = _scatter_keys(cluster, table_r, spec, profile, "R")
        recv_s = _scatter_keys(cluster, table_s, spec, profile, "S")
        key_width = table_r.schema.key_width(spec.encoding)
        pairs = _rid_pairs(cluster, recv_r, recv_s, profile, key_width)

        wide_is_r = table_r.schema.payload_width(spec.encoding) >= table_s.schema.payload_width(
            spec.encoding
        )
        wide, narrow = ("r", "s") if wide_is_r else ("s", "r")
        wide_table = table_r if wide_is_r else table_s
        narrow_table = table_s if wide_is_r else table_r
        rid_wide = rid_width(wide_table.total_rows)
        rid_narrow = rid_width(narrow_table.total_rows)
        narrow_width = key_width + narrow_table.schema.payload_width(spec.encoding)
        narrow_category = (
            MessageClass.S_TUPLES if wide_is_r else MessageClass.R_TUPLES
        )

        # Per (narrow rid, wide node) send-once bookkeeping, and per wide
        # node the set of wide rids participating in the join.
        def schedule_t_node(t_node: int):
            pair = pairs[t_node]
            if pair.num_rows == 0:
                return [], []
            n_node = pair.columns[f"{narrow}_node"]
            n_pos = pair.columns[f"{narrow}_pos"]
            w_node = pair.columns[f"{wide}_node"]
            w_pos = pair.columns[f"{wide}_pos"]
            # Dedup (narrow tuple, destination) so each narrow tuple
            # crosses once per wide node; the rejoin by key restores the
            # full output at the destination.
            combo = np.stack([n_node, n_pos, w_node], axis=1)
            unique_send = np.unique(combo, axis=0)
            profile.add_cpu_at(
                "Deduplicate rid pairs", "aggregate", t_node, pair.num_rows * 16.0
            )
            jobs: list[tuple[int, int, np.ndarray, np.ndarray]] = []
            wides: list[tuple[int, np.ndarray]] = []
            for src in np.unique(unique_send[:, 0]):
                sel = unique_send[unique_send[:, 0] == src]
                # Instruction to the narrow node: (local rid, destination).
                cluster.network.send(
                    t_node, int(src), MessageClass.RIDS,
                    len(sel) * (rid_narrow + spec.location_width),
                    profile=profile, step="Send narrow rids",
                )
                jobs.append((int(src), t_node, sel[:, 1], sel[:, 2]))
            combo_w = np.stack([w_node, w_pos], axis=1)
            unique_wide = np.unique(combo_w, axis=0)
            for dst in np.unique(unique_wide[:, 0]):
                sel = unique_wide[unique_wide[:, 0] == dst]
                # The wide node learns which of its rids participate.
                cluster.network.send(
                    t_node, int(dst), MessageClass.RIDS, len(sel) * rid_wide,
                    profile=profile, step="Send wide rids",
                )
                wides.append((int(dst), sel[:, 1]))
            return jobs, wides

        scheduled = cluster.run_phase(schedule_t_node, profile=profile)
        send_jobs: dict[int, list[tuple[int, np.ndarray, np.ndarray]]] = {}
        wide_rows: dict[int, list[np.ndarray]] = {}
        for jobs, wides in scheduled:
            for src, t_node, positions, destinations in jobs:
                send_jobs.setdefault(src, []).append((t_node, positions, destinations))
            for dst, positions in wides:
                wide_rows.setdefault(dst, []).append(positions)
        flush(cluster)

        # Narrow nodes ship (key + narrow payload) to each destination,
        # one task per narrow node, each job's batches in destination
        # order.
        job_sources = list(send_jobs.items())

        def ship_jobs(index: int) -> None:
            src, jobs = job_sources[index]
            partition = narrow_table.partitions[src]
            for _t_node, positions, destinations in jobs:
                cluster.network.send_batches(
                    src, narrow_category,
                    partition.split_by(destinations, cluster.num_nodes, rows=positions),
                    narrow_width, profile=profile,
                    step="Transfer narrow tuples", local_step="Local copy narrow tuples",
                )

        cluster.run_phase(
            ship_jobs,
            tasks=len(job_sources),
            profile=profile,
            task_nodes=[src for src, _ in job_sources],
        )

        # Rejoin at the wide nodes: selected local tuples vs arrivals.
        empty_names = tuple("r." + n for n in table_r.payload_names) + tuple(
            "s." + n for n in table_s.payload_names
        )

        def rejoin_node(node: int) -> LocalPartition:
            received = drain_payloads(cluster, node)
            if not received or node not in wide_rows:
                return LocalPartition.empty(empty_names)
            narrow_part = LocalPartition.concat(received)
            positions = np.unique(np.concatenate(wide_rows[node]))
            wide_part = wide_table.partitions[node].take(positions)
            idx_w, idx_n = join_indices(wide_part.keys, narrow_part.keys)
            profile.add_cpu_at(
                "Rejoin at wide node",
                "merge",
                node,
                (wide_part.num_rows + narrow_part.num_rows + len(idx_w)) * narrow_width,
            )
            columns: dict[str, np.ndarray] = {}
            for name, values in wide_part.columns.items():
                columns[f"{wide}.{name}"] = values[idx_w]
            for name, values in narrow_part.columns.items():
                columns[f"{narrow}.{name}"] = values[idx_n]
            return LocalPartition(keys=wide_part.keys[idx_w], columns=columns)

        return cluster.run_phase(rejoin_node, profile=profile)
