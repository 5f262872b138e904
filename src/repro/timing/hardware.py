"""Hardware models: converting recorded work into seconds.

The paper's implementation platform (Section 4.2) is four machines with
2x 4-core Xeon X5550 CPUs on 1 Gbit Ethernet.  The authors report that
the platform is "severely network bound": each Ethernet edge moves 0.093
GB/s when used exclusively, but during all-to-all exchange the measured
effective rate is lower.  Back-solving from their own step timings
(Table 3: 6.35 GB of remote R tuples in 29.46 s; 13.05 GB of S tuples in
57.2 s; workload Y transfers agree) gives an aggregate effective
exchange bandwidth of ~0.22 GB/s for the 4-node cluster, i.e. ~55 MB/s
of sustained egress per node.  CPU step rates are likewise calibrated
from Tables 3-4 (partitioning ~6 GB/s/node, sorting ~1.8 GB/s/node,
merging ~4.5 GB/s/node, ...).

The model is deliberately linear: ``time = work / rate`` with CPU steps
bounded by the most loaded node and network steps by total volume.
That is exactly the regime the paper argues for ("any network traffic
reduction directly translates to faster execution") and lets the Table
2-4 benches reproduce the published *shape* — which algorithm wins and
by roughly what factor — without the authors' testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ..errors import UnknownKeyError

from .profile import CPU, LOCAL, NET, ExecutionProfile, Step

__all__ = ["HardwareModel", "StepTiming", "paper_cluster_2014", "scaled_network"]

_GB = 1e9


@dataclass
class StepTiming:
    """Seconds attributed to one step of a profile."""

    name: str
    kind: str
    seconds: float


@dataclass
class HardwareModel:
    """Linear work-to-time model for one cluster configuration.

    Parameters
    ----------
    num_nodes:
        Cluster size; used to sanity-check profiles.
    net_aggregate_bandwidth:
        Effective cluster-wide exchange bandwidth in bytes/second.
    cpu_rates:
        Bytes/second/node for each CPU rate class.
    """

    num_nodes: int
    net_aggregate_bandwidth: float
    cpu_rates: dict[str, float] = field(default_factory=dict)

    def rate_for(self, rate_class: str) -> float:
        """CPU rate (bytes/s/node) for a rate class."""
        if rate_class not in self.cpu_rates:
            raise UnknownKeyError(
                f"hardware model has no rate for {rate_class!r}; "
                f"known classes: {sorted(self.cpu_rates)}"
            )
        return self.cpu_rates[rate_class]

    def step_seconds(self, step: Step) -> float:
        """Seconds one step takes under this model."""
        if step.kind == NET:
            return step.total_bytes / self.net_aggregate_bandwidth
        rate = self.rate_for(step.rate_class)
        return step.max_node_bytes / rate

    def step_timings(self, profile: ExecutionProfile) -> list[StepTiming]:
        """Per-step timings in execution order."""
        return [
            StepTiming(step.name, step.kind, self.step_seconds(step))
            for step in profile.steps
        ]

    def cpu_seconds(self, profile: ExecutionProfile) -> float:
        """Total CPU time (CPU + local-copy steps), as Table 2 reports it."""
        return sum(
            self.step_seconds(s) for s in profile.steps if s.kind in (CPU, LOCAL)
        )

    def network_seconds(self, profile: ExecutionProfile) -> float:
        """Total network transfer time, as Table 2 reports it."""
        return sum(self.step_seconds(s) for s in profile.steps if s.kind == NET)

    def total_seconds(self, profile: ExecutionProfile, overlap: bool = False) -> float:
        """End-to-end time of one execution.

        The paper's implementation is de-pipelined, so the default is
        CPU + network.  ``overlap=True`` models the Section 5 pipelined
        execution bound where CPU work hides behind transfers (and vice
        versa): ``max(cpu, network)``.  Real pipelines land between the
        two; both bounds are useful for projections.
        """
        cpu = self.cpu_seconds(profile)
        net = self.network_seconds(profile)
        return max(cpu, net) if overlap else cpu + net


def paper_cluster_2014(num_nodes: int = 4) -> HardwareModel:
    """The paper's 4-node 1 GbE cluster, calibrated from Tables 3-4.

    Rate classes:

    - ``partition``: hash/radix partitioning of tuples into send buffers.
    - ``sort``: MSB radix sort of tuples (the paper's local join is a
      sort-merge join).
    - ``merge``: merge-join of two sorted runs, input+output bytes.
    - ``aggregate``: duplicate elimination / count aggregation of sorted
      keys.
    - ``schedule``: per-key schedule generation over tracked metadata.
    - ``copy``: node-local memory copies.
    """
    per_node_egress = 0.055 * _GB
    return HardwareModel(
        num_nodes=num_nodes,
        net_aggregate_bandwidth=per_node_egress * num_nodes,
        cpu_rates={
            "partition": 8.0 * _GB,
            "sort": 2.6 * _GB,
            "merge": 18.0 * _GB,
            "aggregate": 6.8 * _GB,
            "schedule": 1.4 * _GB,
            "copy": 12.4 * _GB,  # RAM-to-RAM copy bandwidth given in Sec 4.2
        },
    )


def scaled_network(base: HardwareModel, factor: float) -> HardwareModel:
    """A copy of ``base`` with the network ``factor``x faster.

    Section 4.2 projects track join onto a 10x faster network by scaling
    only the network time; this helper reproduces that projection.
    """
    return HardwareModel(
        num_nodes=base.num_nodes,
        net_aggregate_bandwidth=base.net_aggregate_bandwidth * factor,
        cpu_rates=dict(base.cpu_rates),
    )
