"""Exception hierarchy for the track join reproduction library.

Every error raised by this package derives from :class:`ReproError` so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(ReproError):
    """A schema definition is invalid or inconsistent with the data."""


class PlacementError(ReproError):
    """A tuple placement request cannot be satisfied."""


class NetworkError(ReproError):
    """A message was sent to an invalid node or with invalid accounting."""


class JoinConfigError(ReproError):
    """A distributed join was configured with incompatible inputs."""


class ScheduleError(ReproError):
    """Per-key schedule generation received malformed tracking input."""


class CostModelError(ReproError):
    """The analytic cost model was queried with inconsistent statistics."""


class WorkloadError(ReproError):
    """A workload generator was asked for an unsatisfiable configuration,
    or a run's output contradicts the cardinality its workload states."""


class ParallelError(ReproError):
    """The parallel execution engine was misconfigured or misused."""


class ValidationError(ReproError, ValueError):
    """An argument or configuration value is out of its legal domain.

    Derives from :class:`ValueError` as well as :class:`ReproError` so
    callers that guard with ``except ValueError`` keep working while the
    whole library stays catchable under one hierarchy (the REP004 lint
    rule bans raising bare builtins from library code).
    """


class UnknownKeyError(ReproError, KeyError):
    """A registry or lookup was asked for an id it does not contain.

    Derives from :class:`KeyError` for backwards compatibility with
    callers that catch the builtin.  Note the :class:`KeyError` quirk:
    ``str(exc)`` is the ``repr`` of the message; use ``exc.args[0]`` for
    the human-readable text.
    """


class AnalysisError(ReproError):
    """The static-analysis engine was given an unreadable or invalid input."""


class RaceError(AnalysisError):
    """The runtime race sanitizer observed an unsynchronized conflict.

    Raised deterministically at the *second* access of a cross-thread
    write/write or read/write pair on a registered shared object when
    the two accesses hold no lock in common.  ``key`` names the shared
    object, ``kind`` the conflicting access pair (``"write/write"`` or
    ``"read/write"``), and ``threads`` the two thread names involved.
    """

    def __init__(
        self,
        message: str,
        *,
        key: str | None = None,
        kind: str | None = None,
        threads: tuple[str, str] | None = None,
    ):
        super().__init__(message)
        self.key = key
        self.kind = kind
        self.threads = threads


class ServeError(ReproError):
    """Base class of the concurrent query-service subsystem."""


class AdmissionError(ServeError):
    """A query was rejected at admission (queue full or service closed).

    Carries the admission state so callers can implement backpressure:
    ``queued`` is how many queries were waiting and ``limit`` the
    service's configured queue bound (``None`` for a closed service).
    """

    def __init__(
        self,
        message: str,
        *,
        queued: int | None = None,
        limit: int | None = None,
    ):
        super().__init__(message)
        self.queued = queued
        self.limit = limit


class QueryTimeoutError(ServeError):
    """A query missed its deadline while queued or between operators.

    ``elapsed`` is the wall-clock seconds since admission and
    ``timeout`` the budget the request declared; ``where`` says whether
    the deadline expired in the admission queue (``"queued"``) or at an
    operator boundary mid-run (``"running"``).
    """

    def __init__(
        self,
        message: str,
        *,
        elapsed: float | None = None,
        timeout: float | None = None,
        where: str = "running",
    ):
        super().__init__(message)
        self.elapsed = elapsed
        self.timeout = timeout
        self.where = where


class FaultError(ReproError):
    """Base class of the fault-injection and recovery subsystem."""


class NodeCrashError(FaultError):
    """An injected node crash (fail-stop at phase entry).

    Raised inside a phase task by the fault injector; the phase
    supervisor in :func:`repro.parallel.run_phase` catches it and
    re-executes the crashed node's work from the last barrier, so this
    error normally never reaches user code.
    """

    def __init__(self, message: str, *, node: int | None = None, phase: int | None = None):
        super().__init__(message)
        self.node = node
        self.phase = phase


class FaultExhaustedError(FaultError):
    """A fault survived the full retry/restart budget.

    Carries enough context for graceful degradation: ``category`` is the
    :class:`~repro.cluster.network.MessageClass` whose retransmits were
    exhausted (``None`` for crash-restart exhaustion), ``link`` the
    ``(src, dst)`` pair, ``node`` the unrecoverable node, and
    ``attempts`` how many deliveries or restarts were tried.
    """

    def __init__(
        self,
        message: str,
        *,
        category=None,
        link: tuple[int, int] | None = None,
        node: int | None = None,
        attempts: int | None = None,
    ):
        super().__init__(message)
        self.category = category
        self.link = link
        self.node = node
        self.attempts = attempts
