"""Wall-clock access point for engine instrumentation.

Phase-timing instrumentation (dispatch / kernel / commit / barrier-wait
breakdowns in :class:`~repro.timing.profile.ExecutionProfile`) needs a
monotonic clock, but reading wall time from arbitrary engine modules is
exactly the nondeterminism the REP002 lint rule exists to catch.  The
one sanctioned clock lives here, inside the ``repro/timing`` subtree
the rule exempts: engine code imports :func:`wall_clock` instead of
``time.perf_counter`` directly, which keeps the lint gate meaningful —
a new raw clock read anywhere else still fails ``python -m repro lint``.

Timing read through this clock must never influence computed results,
ledgers, or profiles' deterministic step lists; it may only be recorded
into explicitly non-deterministic fields
(:attr:`ExecutionProfile.phase_timings`).
"""

from __future__ import annotations

import time

__all__ = ["wall_clock"]

#: Monotonic wall-clock seconds (float); the only sanctioned clock read
#: for engine instrumentation.
wall_clock = time.perf_counter
