"""Parallel execution engine: worker pools, phase barriers, kernel chunks."""

from .chunks import (
    kernel_chunk_rows,
    kernel_config,
    kernel_workers,
    set_kernel_chunk_rows,
    set_kernel_workers,
)
from .executor import (
    PhaseExecutor,
    SerialExecutor,
    ThreadExecutor,
    default_workers,
    resolve_executor,
    run_fused_phases,
    run_phase,
    set_default_workers,
)

__all__ = [
    "PhaseExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "default_workers",
    "set_default_workers",
    "resolve_executor",
    "run_phase",
    "run_fused_phases",
    "kernel_workers",
    "set_kernel_workers",
    "kernel_chunk_rows",
    "set_kernel_chunk_rows",
    "kernel_config",
]
