"""Balance-aware schedules for 4-phase track join (Section 5 future work).

Section 5 observes that minimizing *total* traffic can concentrate
transfers on a few nodes when locality is skewed: "If some nodes exhibit
more locality than others, we need to take into account the balancing of
transfers among nodes and not only aim for minimal network traffic."

:func:`balanced_schedules` (the ``4TJ-bal`` variant of
:class:`~repro.core.track_join.TrackJoin`) implements that extension as
a thin policy over the shared scheduling core: candidate evaluation —
both directions' costs, migration masks, and default destinations for
every key — comes from the same vectorized
:func:`~repro.core.schedule.both_direction_plans` plain 4TJ uses.  The
policy then re-picks, against a running estimate of per-node *received*
bytes:

* the **direction**, when the two directions cost exactly the same —
  the one whose surviving destinations are less loaded wins;
* the **consolidation destination**, for every key that migrates — any
  surviving holder is cost-equivalent (Theorem 1), so the least-loaded
  one (:func:`~repro.core.destinations.least_loaded`) wins.

Keys whose choices depend on the load estimate are visited in a fixed
pseudo-random order so early keys do not systematically favour
low-numbered nodes; everything else — the candidate evaluation and the
load contributions of the cost-determined keys — is vectorized.

Tuple bytes equal plain 4TJ's; with grouped location messages the
instruction bytes may differ slightly, since they depend on which
destinations were picked.  The peak
(:attr:`~repro.cluster.network.TrafficLedger.max_received_bytes`) is
not guaranteed to drop: the load estimate is greedy, and on the
exchange golden input the busiest node receives *more* than under 4TJ
(10,813 B against 10,713 B).  docs/algorithms.md lists measured ratios.
"""

from __future__ import annotations

import numpy as np

from .destinations import least_loaded
from .schedule import ScheduleSet, both_direction_plans, empty_schedule_set
from .tracking import TrackingTable

__all__ = ["balanced_schedules"]


def balanced_schedules(
    tracking: TrackingTable, location_width: float, num_nodes: int
) -> ScheduleSet:
    """4-phase schedules with load-balanced direction and destination picks."""
    num_entries = tracking.num_entries
    if num_entries == 0:
        return empty_schedule_set(tracking)
    starts, seg = tracking.key_starts, tracking.seg
    num_keys = tracking.num_keys
    nodes = tracking.nodes
    size_r, size_s = tracking.size_r(), tracking.size_s()

    (cost_rs, mig_rs, dest_rs), (cost_sr, mig_sr, dest_sr) = both_direction_plans(
        tracking, location_width, allow_migration=True
    )

    # Per-direction load ingredients, all vectorized.  Once a
    # direction is chosen, a key's received bytes are fixed except
    # for *where* the migrating target tuples consolidate: every
    # surviving target holder receives the broadcast side's remote
    # bytes, and one survivor (the policy's choice) additionally
    # receives the migrated target bytes.
    has_r, has_s = size_r > 0, size_s > 0
    r_all, s_all = tracking.key_sizes()
    surv_rs = has_s & ~mig_rs  # RS: S is the (migrating) target side
    surv_sr = has_r & ~mig_sr
    recv_rs = np.where(surv_rs, r_all[seg] - size_r, 0.0)
    recv_sr = np.where(surv_sr, s_all[seg] - size_s, 0.0)
    migbytes_rs = np.add.reduceat(np.where(mig_rs, size_s, 0.0), starts)
    migbytes_sr = np.add.reduceat(np.where(mig_sr, size_r, 0.0), starts)

    # Keys needing a sequential, load-dependent choice: equal costs
    # (direction by load) or a migrating chosen plan (destination by
    # load).  Everything else is fully determined.
    tie = cost_rs == cost_sr
    rs_cheaper = cost_rs < cost_sr
    chosen_migrates = np.where(
        tie, (dest_rs >= 0) | (dest_sr >= 0),
        np.where(rs_cheaper, dest_rs >= 0, dest_sr >= 0),
    )
    choice = tie | chosen_migrates

    direction_rs = rs_cheaper.copy()
    migrate = np.zeros(num_entries, dtype=bool)
    dest_node = np.full(num_keys, -1, dtype=nodes.dtype)
    received_load = np.zeros(num_nodes)

    # Bulk keys (cost-determined, no migration): fold their fixed
    # broadcast receives into the load estimate up front.
    bulk_entry = ~choice[seg]
    entry_recv = np.where(direction_rs[seg], recv_rs, recv_sr)
    bulk_rows = np.flatnonzero(bulk_entry & (entry_recv > 0))
    np.add.at(received_load, nodes[bulk_rows], entry_recv[bulk_rows])

    rng = np.random.default_rng(0)
    order = rng.permutation(np.flatnonzero(choice))
    key_ends = np.append(starts[1:], num_entries)
    for key in order:
        entries = slice(starts[key], key_ends[key])
        ns = nodes[entries]
        if tie[key]:
            # Equal costs: direction whose busiest surviving
            # destination is less loaded (ties prefer R -> S).
            cand_rs = ns[surv_rs[entries]]
            cand_sr = ns[surv_sr[entries]]
            load_rs = received_load[cand_rs].max() if len(cand_rs) else 0.0
            load_sr = received_load[cand_sr].max() if len(cand_sr) else 0.0
            rs = bool(load_rs <= load_sr)
        else:
            rs = bool(rs_cheaper[key])
        direction_rs[key] = rs
        surv = surv_rs if rs else surv_sr
        survivors = ns[surv[entries]]
        if (dest_rs if rs else dest_sr)[key] >= 0 and len(survivors):
            # Load-aware destination: any surviving holder is cost
            # equivalent (Theorem 1), so pick the least loaded.
            destination = least_loaded(survivors, received_load)
            dest_node[key] = destination
            migrate[entries] = (mig_rs if rs else mig_sr)[entries]
            received_load[destination] += (
                migbytes_rs[key] if rs else migbytes_sr[key]
            )
        # Broadcast load: every surviving target receives the
        # broadcast side's remote bytes.
        received_load[survivors] += (recv_rs if rs else recv_sr)[entries][
            surv[entries]
        ]

    cost = np.where(direction_rs, cost_rs, cost_sr)
    return ScheduleSet(
        tracking=tracking,
        direction_rs=direction_rs,
        cost=cost,
        migrate=migrate,
        dest_node=dest_node,
    )
