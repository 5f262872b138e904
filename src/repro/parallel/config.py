"""One immutable execution configuration per cluster.

:class:`ExecConfig` holds every engine setting:

``workers``
    Phase workers (inline at 1, a thread pool above) and the width of
    the chunked kernels those phases run.
``chunk_rows``
    Rows per kernel chunk.  It changes how kernels decompose their
    input, never a result.

A :class:`~repro.cluster.cluster.Cluster` fixes its config when it is
built: the ``config`` argument, else the config bound on the building
thread by :func:`use`, else the process default, which
:meth:`ExecConfig.from_env` resolves once from ``REPRO_WORKERS`` and
``REPRO_KERNEL_CHUNK_ROWS``.  A join binds its cluster's config on the
calling thread and every phase task binds it on the thread that runs
the task, so each kernel reads (:func:`current`) the config of the
cluster it works for, and no query's settings reach another's.
"""

from __future__ import annotations

import os
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cache
from typing import Iterator, Mapping

from ..errors import ValidationError

__all__ = ["ExecConfig", "check_count", "current", "use"]

#: The environment variable of each field.
ENV_VARS = {
    "workers": "REPRO_WORKERS",
    "chunk_rows": "REPRO_KERNEL_CHUNK_ROWS",
}


def check_count(value, what: str) -> int:
    """``value`` as an integer >= 1, else :class:`ValidationError`.

    Integer-valued floats (a CLI parser artifact) are accepted.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise ValidationError(f"{what} must be an integer, got {value!r}")
        value = int(value)
    if value < 1:
        raise ValidationError(f"{what} must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class ExecConfig:
    """Phase workers (= kernel width) and kernel chunk rows."""

    workers: int = 1
    #: Large enough that per-chunk numpy calls amortize dispatch, small
    #: enough that typical bench partitions split into several chunks per
    #: worker for load balancing.
    chunk_rows: int = 1 << 16

    def __post_init__(self):
        for field in fields(self):
            value = check_count(getattr(self, field.name), field.name)
            object.__setattr__(self, field.name, value)

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> ExecConfig:
        """The config ``environ`` (default: the process environment) sets.

        A malformed or non-positive value never aborts the process: that
        field keeps its default, with a :class:`RuntimeWarning`.
        """
        environ = os.environ if environ is None else environ
        values = {}
        for field in fields(cls):
            name = ENV_VARS[field.name]
            raw = environ.get(name, "").strip()
            if not raw:
                continue
            try:
                value = int(raw)
            except ValueError:
                problem = f"{name}={raw!r} is not an integer"
            else:
                if value >= 1:
                    values[field.name] = value
                    continue
                problem = f"{name} must be >= 1, got {value}"
            warnings.warn(
                f"{problem}; using the default of {field.default}",
                RuntimeWarning,
                stacklevel=2,
            )
        return cls(**values)


@cache
def _process_default() -> ExecConfig:
    return ExecConfig.from_env()


_scope = threading.local()


def current() -> ExecConfig:
    """The config bound on this thread, else the process default."""
    return getattr(_scope, "config", None) or _process_default()


@contextmanager
def use(config: ExecConfig) -> Iterator[ExecConfig]:
    """Bind ``config`` on this thread for the ``with`` block."""
    if not isinstance(config, ExecConfig):
        raise ValidationError(f"expected an ExecConfig, got {config!r}")
    previous = getattr(_scope, "config", None)
    _scope.config = config
    try:
        yield config
    finally:
        _scope.config = previous
