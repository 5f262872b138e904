"""Timing substrate: execution profiles and calibrated hardware models."""

from .hardware import (
    HardwareModel,
    StepTiming,
    paper_cluster_2014,
    scaled_network,
)
from .profile import CPU, LOCAL, NET, ExecutionProfile, NodeLoad, Step

__all__ = [
    "ExecutionProfile",
    "NodeLoad",
    "Step",
    "HardwareModel",
    "StepTiming",
    "paper_cluster_2014",
    "scaled_network",
    "CPU",
    "NET",
    "LOCAL",
]
