"""Sharded cluster: partitioned shards, 2PC, analyzer-driven routing.

The cluster subsystem scales the single-node maintenance stack out
horizontally without changing it: every shard runs an ordinary
:class:`~repro.engine.database.Database` +
:class:`~repro.core.maintainer.ViewMaintainer` pair over its key-range
slice of the partitioned relations (plus replica copies of the rest),
and a coordinator splits each client transaction, two-phase-commits the
per-shard pieces, and merges the resulting view deltas into one ordered
cluster changefeed.  What a delta *never needs to reach a shard at all*
is decided statically, by quantifying the paper's Theorem 4.1 over each
shard's declared key-range constraints
(:mod:`repro.analysis.routing`) — partition metadata becomes
machine-checked irrelevance proofs, and the proofs become skipped
network sends.

Modules
-------
* :mod:`~repro.cluster.topology` — key-range partitions as conditions.
* :mod:`~repro.cluster.routing` — the static skip table.
* :mod:`~repro.cluster.shard` — one shard's 2PC state machine.
* :mod:`~repro.cluster.links` — the transport surface and its synchronous link.
* :mod:`~repro.cluster.coordinator` — routing, 2PC, changefeed merge.
* :mod:`~repro.cluster.frontend` — the wire-protocol cluster server.

The deterministic sharded fault simulation is a topology of the one
simulator (:mod:`repro.simulation.sharded`); nothing here imports it.
"""

from repro.cluster.coordinator import ClusterCoordinator, build_cluster
from repro.cluster.frontend import ClusterServer
from repro.cluster.links import DirectLink, ShardLink
from repro.cluster.routing import (
    RoutingTable,
    build_routing_table,
    validate_shardable,
)
from repro.cluster.shard import ShardNode
from repro.cluster.topology import (
    HOME_SHARD,
    ClusterTopology,
    PartitionSpec,
    even_boundaries,
)

__all__ = [
    "HOME_SHARD",
    "ClusterCoordinator",
    "ClusterServer",
    "ClusterTopology",
    "DirectLink",
    "PartitionSpec",
    "RoutingTable",
    "ShardLink",
    "ShardNode",
    "build_cluster",
    "build_routing_table",
    "even_boundaries",
    "validate_shardable",
]
