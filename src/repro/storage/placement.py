"""Tuple placement policies.

The degree of pre-existing locality is the main experimental knob of the
paper's synthetic evaluation (Figures 4-6 sweep placement patterns like
``5,0,0,...`` and ``1,1,1,1,1,0,0,...``; Figures 8 and 11 shuffle the
real workloads to destroy locality).  These helpers produce per-row node
assignments for :meth:`DistributedTable.from_assignment`.
"""

from __future__ import annotations

import numpy as np

from ..errors import PlacementError
from ..util import hash_partition

__all__ = [
    "round_robin",
    "random_uniform",
    "by_key_hash",
    "pattern_nodes",
    "shuffled",
]


def round_robin(num_rows: int, num_nodes: int) -> np.ndarray:
    """Deal rows to nodes in rotation: row ``i`` goes to ``i mod N``."""
    return (np.arange(num_rows, dtype=np.int64) % num_nodes).astype(np.int64)


def random_uniform(num_rows: int, num_nodes: int, seed: int = 0) -> np.ndarray:
    """Place every row on an independently uniform random node."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, num_nodes, size=num_rows, dtype=np.int64)


def by_key_hash(keys: np.ndarray, num_nodes: int, seed: int = 0) -> np.ndarray:
    """Place rows on their key's hash node (perfect hash-join locality)."""
    return hash_partition(np.asarray(keys, dtype=np.int64), num_nodes, seed)


def shuffled(assignment: np.ndarray, num_nodes: int, seed: int = 0) -> np.ndarray:
    """Destroy locality: replace an assignment with fresh uniform nodes.

    This reproduces the paper's "shuffled tuple ordering" runs, where the
    input is redistributed randomly before the join.
    """
    return random_uniform(len(assignment), num_nodes, seed=seed)


def pattern_nodes(
    num_keys: int,
    pattern: tuple[int, ...],
    num_nodes: int,
    seed: int = 0,
    node_pool: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node assignments for repeated keys following a placement pattern.

    The pattern lists how a key's repeats split across nodes: ``(5,)``
    collocates all five repeats on one node, ``(2, 2, 1)`` spreads them
    over three nodes, ``(1, 1, 1, 1, 1)`` puts every repeat on its own
    node (Figure 4's captions).  The nodes hosting each key's groups are
    drawn uniformly without replacement, independently per key.

    Parameters
    ----------
    node_pool:
        Optional ``(num_keys, >= len(pattern))`` matrix of node choices
        per key.  Passing the pool returned by a previous call places a
        second table's groups on the *same* nodes, producing the
        inter-table collocation of Figure 6.

    Returns
    -------
    (key_index, node, node_pool)
        ``key_index`` and ``node`` have length ``num_keys *
        sum(pattern)``: the distinct key index of each generated row and
        the node it lands on.  ``node_pool`` is the per-key node choice
        matrix, reusable for collocating another table.
    """
    groups = len(pattern)
    if groups > num_nodes:
        raise PlacementError(
            f"pattern {pattern} needs {groups} nodes, cluster has {num_nodes}"
        )
    if any(g <= 0 for g in pattern):
        raise PlacementError(f"pattern entries must be positive: {pattern}")
    if node_pool is None:
        rng = np.random.default_rng(seed)
        # Draw distinct nodes per key via argpartition of random draws.
        scores = rng.random((num_keys, num_nodes))
        node_pool = np.argpartition(scores, groups - 1, axis=1)[:, :groups]
    elif node_pool.shape[0] != num_keys or node_pool.shape[1] < groups:
        raise PlacementError(
            f"node pool shape {node_pool.shape} cannot host {num_keys} keys "
            f"x {groups} groups"
        )
    chosen = node_pool[:, :groups]
    repeats = np.array(pattern, dtype=np.int64)
    node = np.repeat(chosen.reshape(-1), np.tile(repeats, num_keys))
    key_index = np.repeat(np.arange(num_keys, dtype=np.int64), int(repeats.sum()))
    return key_index, node.astype(np.int64), node_pool
