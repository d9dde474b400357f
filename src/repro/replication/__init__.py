"""Durability and replication: the committed delta stream made portable.

The package turns the engine's commit stream into infrastructure (see
``docs/durability.md``):

* :mod:`~repro.replication.wal` — the on-disk write-ahead delta log:
  checksummed JSONL records in rotating segments, with torn-tail
  truncation;
* :mod:`~repro.replication.checkpoints` — base snapshots (plus view
  contents) anchored to a WAL position;
* :mod:`~repro.replication.durability` — the leader-side commit hook
  and checkpoint/prune operation;
* :mod:`~repro.replication.recovery` — crash recovery that re-derives
  every view differentially from snapshot + WAL tail;
* :mod:`~repro.replication.follower` — changefeed consumers maintaining
  their own independently-defined views from shipped deltas alone.
"""

from repro.replication.checkpoints import (
    Checkpoint,
    checkpoint_path,
    latest_checkpoint_path,
    write_checkpoint,
)
from repro.replication.durability import DurabilityManager
from repro.replication.follower import Follower
from repro.replication.recovery import Recovery, recover
from repro.replication.wal import (
    DEFAULT_SEGMENT_BYTES,
    TailDamage,
    WalCorruptionError,
    WalReader,
    WalRecord,
    WalWriter,
)

__all__ = [
    "Checkpoint",
    "checkpoint_path",
    "latest_checkpoint_path",
    "write_checkpoint",
    "DurabilityManager",
    "Follower",
    "Recovery",
    "recover",
    "DEFAULT_SEGMENT_BYTES",
    "TailDamage",
    "WalCorruptionError",
    "WalReader",
    "WalRecord",
    "WalWriter",
]
