"""Distributed join interface: configuration, results, shared machinery.

Every algorithm (broadcast, Grace hash, tracking-aware hash, and the
three track join variants) implements :class:`DistributedJoin` and
returns a :class:`JoinResult` carrying the materialized output, the
byte-exact traffic ledger, and the execution profile used by the timing
model.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from ..cluster.cluster import Cluster
from ..cluster.network import MessageClass, TrafficLedger
from ..encoding.base import Encoding
from ..encoding.dictionary import DictionaryEncoding
from ..errors import JoinConfigError
from ..parallel.config import use
from ..storage.table import DistributedTable, LocalPartition
from ..timing.profile import ExecutionProfile
from .local import JoinCount

__all__ = ["JoinSpec", "JoinResult", "DistributedJoin"]


@dataclass(frozen=True)
class JoinSpec:
    """Tunable parameters shared by all distributed joins.

    Parameters
    ----------
    encoding:
        Wire encoding used for every column (Figures 7-8 sweep this).
    location_width:
        ``M`` of the paper: bytes of a node identifier inside location
        and migration messages.  1 byte suffices for up to 256 nodes.
    count_width_r / count_width_s:
        Bytes of the per-node match counters carried by 3/4-phase
        tracking messages (the paper uses 1 byte for workload X, 2 for
        Y; counts that overflow are aggregated at the destination).
    hash_seed:
        Seed of the key-hash that places scheduling/hash-join work.
    materialize:
        When False, joins compute output cardinality but skip building
        output payload arrays (large-scale traffic runs): the final
        local joins count their matches instead of pairing them, and
        read only the keys of the tuples they received (no payload
        column is concatenated), so :attr:`JoinResult.output` is
        ``None``, ``output_rows`` is exact, and memory stays
        proportional to the inputs however large the output.  Traffic
        and profile accounting do not depend on it.
    group_locations:
        Section 2.4 optimization: batch location messages by node so
        the node id is amortized over many keys instead of repeated
        per key.
    delta_keys:
        Section 2.4 optimization: account tracking key streams at their
        sorted-delta-varint size instead of the plain key width.
    """

    encoding: Encoding = field(default_factory=DictionaryEncoding)
    location_width: float = 1.0
    count_width_r: float = 1.0
    count_width_s: float = 1.0
    hash_seed: int = 0
    materialize: bool = True
    group_locations: bool = False
    delta_keys: bool = False


@dataclass
class JoinResult:
    """Outcome of one distributed join execution."""

    algorithm: str
    output_rows: int
    output: list[LocalPartition] | None
    traffic: TrafficLedger
    profile: ExecutionProfile

    @property
    def network_bytes(self) -> float:
        """Total bytes that crossed the network."""
        return self.traffic.total_bytes

    def class_bytes(self, category: MessageClass) -> float:
        """Bytes of one message class (for stacked-bar reproductions)."""
        return self.traffic.class_bytes(category)

    def breakdown(self) -> dict[str, float]:
        """Traffic by message class, keyed by class value."""
        return self.traffic.breakdown()

    def gathered_output(self) -> LocalPartition:
        """All output rows as one partition (verification aid)."""
        if self.output is None:
            raise JoinConfigError(
                f"{self.algorithm} ran with materialize=False; no output rows kept"
            )
        return LocalPartition.concat(self.output)


class DistributedJoin(abc.ABC):
    """Base class of all distributed equi-join operators."""

    #: Short identifier used in reports ("HJ", "2TJ-R", "4TJ", ...).
    name: str = "abstract"

    def run(
        self,
        cluster: Cluster,
        table_r: DistributedTable,
        table_s: DistributedTable,
        spec: JoinSpec | None = None,
    ) -> JoinResult:
        """Execute the join on ``cluster`` and return its result.

        The cluster's scratch state and traffic ledger are reset first,
        so the returned ledger contains exactly this join's traffic.  The
        join runs with the cluster's
        :class:`~repro.parallel.config.ExecConfig` bound on this thread.
        """
        spec = spec or JoinSpec()
        cluster.check_table(table_r)
        cluster.check_table(table_s)
        cluster.reset()
        profile = ExecutionProfile(cluster.num_nodes)
        with use(cluster.config):
            output = self._execute(cluster, table_r, table_s, spec, profile)
        if cluster.network.pending_messages():
            raise JoinConfigError(
                f"{self.name}: {cluster.network.pending_messages()} messages "
                "left undelivered after the join"
            )
        output_rows = sum(p.num_rows for p in output)
        profile.record_network_load(cluster.network.ledger)
        return JoinResult(
            algorithm=self.name,
            output_rows=output_rows,
            output=output if spec.materialize else None,
            traffic=cluster.network.reset_ledger(),
            profile=profile,
        )

    @abc.abstractmethod
    def _execute(
        self,
        cluster: Cluster,
        table_r: DistributedTable,
        table_s: DistributedTable,
        spec: JoinSpec,
        profile: ExecutionProfile,
    ) -> list[LocalPartition] | list[JoinCount]:
        """Algorithm body; returns one output per node.

        Each entry is the node's output partition, or — when
        ``spec.materialize`` is False — anything exposing the exact
        ``num_rows`` of that partition without its rows, normally the
        :class:`~repro.joins.local.JoinCount` that
        ``local_join(..., materialize=False)`` returns.  :meth:`run`
        reads nothing but ``num_rows`` in that case.

        Communication happens through the exchange operators
        (:mod:`repro.exchange`), which carry the send-lane staging, byte
        accounting, and profile attribution shared by every algorithm.
        """
