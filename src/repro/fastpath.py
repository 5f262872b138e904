"""Scatter-path selection: the fused fast path vs. the reference loop path.

Every operator that scatters tuples to destination nodes (track join
broadcasts and migrations, Grace hash repartitioning, rid scatters,
MapReduce shuffles) can run in one of two modes:

``fused`` (default)
    The vectorized fast path: partitions build a cached sorted-key
    index once, scatters run as one bounded-dtype stable argsort plus a
    single gather sliced per destination, and grouped reductions replace
    per-group Python loops.

``loop``
    The reference path: per-destination boolean ``take()`` copies, a
    fresh ``np.argsort``/``np.unique`` per call, and no caching.  No
    runtime path selects it: it is a test-only reference, kept verbatim
    so the equivalence suite can assert the fast path is byte-identical.

Both modes produce the same output multiset, the same per-link byte
ledger, and the same execution profile; only wall-clock differs.
"""

from __future__ import annotations

from contextlib import contextmanager
from .errors import ValidationError

__all__ = ["LOOP", "FUSED", "scatter_mode", "set_scatter_mode", "use_scatter_mode", "fused_enabled"]

LOOP = "loop"
FUSED = "fused"

_mode = FUSED


def scatter_mode() -> str:
    """The currently active scatter mode (``"fused"`` or ``"loop"``)."""
    return _mode


def fused_enabled() -> bool:
    """True when the fused fast path is active."""
    return _mode == FUSED


def set_scatter_mode(mode: str) -> str:
    """Select the scatter mode; returns the previous mode."""
    global _mode
    if mode not in (LOOP, FUSED):
        raise ValidationError(f"scatter mode must be {LOOP!r} or {FUSED!r}, got {mode!r}")
    previous = _mode
    _mode = mode
    return previous


@contextmanager
def use_scatter_mode(mode: str):
    """Context manager scoping a scatter-mode change."""
    previous = set_scatter_mode(mode)
    try:
        yield
    finally:
        set_scatter_mode(previous)
