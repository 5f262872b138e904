"""Chaos harness: every registered join under seeded fault plans.

The headline invariant of the fault subsystem is checked here, end to
end: for every operator in :data:`repro.joins.registry.ALGORITHMS`,
every seed, and every worker count, a run under a mixed fault plan
(drops, duplicates, reorders, delays, a scripted crash, a straggler)
must produce output *row-identical* to the fault-free run, and its
goodput traffic ledger must be *byte-identical* — all recovery overhead
lands in the separate retransmit counters.

:func:`run_chaos` executes one such matrix and returns a JSON-friendly
summary (also consumed by ``python -m repro chaos``); any invariant
violation or budget exhaustion is reported as a failure entry rather
than an exception, so one bad cell never hides the rest of the matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.network import TrafficLedger
from ..errors import FaultError
from ..joins.base import JoinResult, JoinSpec
from ..joins.registry import algorithm_names, create
from ..parallel.config import ExecConfig
from ..testing import canonical_output, scatter_tables
from .plan import CrashEvent, FaultPlan, StragglerEvent

__all__ = ["default_plan", "run_chaos"]

#: Default seed matrix of the ``make test-chaos`` / CI job.
DEFAULT_SEEDS = (0, 1, 2)


def default_plan(seed: int, num_nodes: int) -> FaultPlan:
    """The standard mixed chaos plan for one seed.

    Moderate message-fault rates plus one scripted crash (the node and
    phase rotate with the seed) and one early straggler; the budgets are
    sized so a correct recovery path always survives the plan — any
    :class:`~repro.errors.FaultExhaustedError` under this plan is a bug.
    """
    return FaultPlan(
        seed=seed,
        drop=0.10,
        duplicate=0.08,
        reorder=0.25,
        delay=0.05,
        crashes=(CrashEvent(node=seed % num_nodes, phase=1 + seed % 2),),
        stragglers=(StragglerEvent(node=(seed + 1) % num_nodes, phase=1, delay=0.5),),
        max_retries=16,
        max_node_restarts=2,
    )


def _workload(seed: int, rows_r: int, rows_s: int) -> tuple[np.ndarray, np.ndarray]:
    """A small skewed workload with repeated keys on both sides."""
    rng = np.random.default_rng(seed)
    universe = max(16, rows_r // 2)
    keys_r = rng.integers(0, universe, size=rows_r)
    keys_s = rng.integers(0, universe, size=rows_s)
    return keys_r, keys_s


def _goodput_fingerprint(ledger: TrafficLedger):
    """Everything the goodput-identity invariant compares, hashably."""
    return (
        float(ledger.total_bytes),
        float(ledger.local_bytes),
        int(ledger.message_count),
        tuple(sorted((k.value, v) for k, v in ledger.by_class.items() if v)),
        tuple(sorted((link, v) for link, v in ledger.by_link.items() if v)),
    )


def _run_baselines(
    names: Sequence[str],
    num_nodes: int,
    keys_r: np.ndarray,
    keys_s: np.ndarray,
    spec: JoinSpec,
) -> dict[str, tuple[np.ndarray, tuple]]:
    """Fault-free serial reference runs, one per algorithm."""
    cluster = Cluster(num_nodes, config=ExecConfig())
    table_r, table_s = scatter_tables(cluster, keys_r, keys_s)
    baselines: dict[str, tuple[np.ndarray, tuple]] = {}
    for name in names:
        result: JoinResult = create(name).run(cluster, table_r, table_s, spec)
        baselines[name] = (
            canonical_output(result),
            _goodput_fingerprint(result.traffic),
        )
    return baselines


def run_chaos(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    num_nodes: int = 4,
    worker_counts: Sequence[int] = (1,),
    algorithms: Sequence[str] | None = None,
    rows_r: int = 240,
    rows_s: int = 360,
    workload_seed: int = 7,
) -> dict:
    """Run the chaos matrix and return its JSON-friendly summary.

    For every ``(seed, workers, algorithm)`` cell the fault-injected run
    is compared against the fault-free baseline: output rows must be
    identical and the goodput ledger byte-identical.  Violations, and
    any :class:`~repro.errors.FaultError` escaping a run, are collected
    under ``"failures"``; ``"ok"`` is True when the list is empty.
    """
    names = list(algorithms) if algorithms is not None else list(algorithm_names())
    keys_r, keys_s = _workload(workload_seed, rows_r, rows_s)
    spec = JoinSpec()
    baselines = _run_baselines(names, num_nodes, keys_r, keys_s, spec)

    runs = 0
    failures: list[dict] = []
    retransmit_bytes = 0.0
    faults: dict[str, float] = {}
    for seed in seeds:
        plan = default_plan(seed, num_nodes)
        for workers in worker_counts:
            config = ExecConfig(workers=workers)
            with Cluster(num_nodes, config=config, fault_plan=plan) as cluster:
                table_r, table_s = scatter_tables(cluster, keys_r, keys_s)
                for name in names:
                    cell = {"seed": int(seed), "workers": int(workers), "algorithm": name}
                    runs += 1
                    try:
                        result = create(name).run(cluster, table_r, table_s, spec)
                    except FaultError as error:
                        failures.append(
                            dict(cell, reason=f"{type(error).__name__}: {error}")
                        )
                        cluster.reset()
                        continue
                    retransmit_bytes += result.traffic.retransmit_bytes
                    baseline_output, baseline_goodput = baselines[name]
                    if not np.array_equal(canonical_output(result), baseline_output):
                        failures.append(
                            dict(cell, reason="output differs from fault-free run")
                        )
                    if _goodput_fingerprint(result.traffic) != baseline_goodput:
                        failures.append(
                            dict(cell, reason="goodput ledger differs from fault-free run")
                        )
                # The injector's stats survive per-join resets; fold this
                # cluster's cumulative counters into the matrix totals.
                for key, value in cluster.network.faults.stats.as_dict().items():
                    faults[key] = faults.get(key, 0) + value

    return {
        "seeds": [int(seed) for seed in seeds],
        "num_nodes": int(num_nodes),
        "worker_counts": [int(w) for w in worker_counts],
        "algorithms": names,
        "runs": runs,
        "failures": failures,
        "faults": faults,
        "retransmit_bytes": retransmit_bytes,
        "ok": not failures,
    }

