"""Parallel execution engine: one config, worker pools, phase barriers, kernel chunks."""

from .chunks import kernel_chunk_rows, kernel_workers
from .config import ExecConfig, current, use
from .executor import (
    PhaseExecutor,
    SerialExecutor,
    ThreadExecutor,
    resolve_executor,
    run_phase,
)

__all__ = [
    "ExecConfig",
    "current",
    "use",
    "PhaseExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "resolve_executor",
    "run_phase",
    "kernel_workers",
    "kernel_chunk_rows",
]
