"""Deterministic simulation of the whole stack under injected faults.

A FoundationDB-style test harness: one seed determines everything —
the workload (random transactions over paper-class SPJ views, DDL,
checkpoints), the fault schedule (crashes, torn tail writes, lost
fsyncs, bit-flip corruption, network delay/reorder/drop/duplicate,
partitions, slow consumers), and the virtual time everything runs in.
After every quiescent point a full-recompute oracle re-evaluates each
view definition from the base relations and asserts byte-for-byte
agreement (multiplicity counters included) with the differentially
maintained copy, the crash-recovered copy, every follower's copy, and
each client's changefeed-built mirror.  A divergence reports the seed
and a minimized event trace that reproduces it.

Layers
------
:mod:`~repro.simulation.clock`
    :class:`SimClock` — virtual time, advanced only by the scheduler.
:mod:`~repro.simulation.faults`
    :class:`FaultyWalIO` — the storage fault model behind the WAL's
    :class:`~repro.replication.wal.WalIO` seam, plus bit-flip
    corruption of segments.
:mod:`~repro.simulation.network`
    :class:`SimChannel` (delay/reorder/drop/duplicate/partition),
    :class:`SimShardLink` (a coordinator-to-shard link),
    :class:`ReplicaLink` (record shipping to a follower) and
    :class:`SimClient` (a server session over an injectable transport,
    maintaining a changefeed mirror).
:mod:`~repro.simulation.workload`
    :class:`SimulationConfig`, schedule generation (pure data from the
    seed) and the single-node :class:`Episode` machine.
:mod:`~repro.simulation.sharded`
    The sharded topology (``SimulationConfig(shards=N)``): a cluster
    of shards behind lossy links, crash-rebuilt mid-protocol, checked
    at the end against a single-node replay of its committed
    transactions.
:mod:`~repro.simulation.oracle`
    The full-recompute and cross-copy agreement checks.
:mod:`~repro.simulation.runner`
    Batches of episodes of either topology, trace minimization, the
    report; the CLI's engine.

Entry points: ``python -m repro.cli simulate --seed N`` or
:func:`repro.simulation.runner.run_simulation`.
"""

from repro.simulation.clock import SimClock
from repro.simulation.faults import FaultyWalIO
from repro.simulation.runner import (
    SimulationConfig,
    SimulationReport,
    run_episode,
    run_simulation,
)

__all__ = [
    "SimClock",
    "FaultyWalIO",
    "SimulationConfig",
    "SimulationReport",
    "run_episode",
    "run_simulation",
]
