"""Wiring the WAL into a live database's commit pipeline.

:class:`DurabilityManager` is the leader-side component: a commit hook
that serializes every committed transaction's net-effect deltas into
the write-ahead log, plus the checkpoint operation that snapshots the
base relations (and, given a maintainer, every view's stored contents)
and prunes fully-covered log segments.

The intended lifecycle::

    db = Database()
    db.create_relation(...)                  # schema is checkpoint state,
    durability = DurabilityManager(db, dir)  # not WAL state — so attach
    maintainer = ViewMaintainer(db)          # and checkpoint before the
    maintainer.define_view(...)              # first transaction:
    durability.checkpoint(maintainer)
    ...transactions...                       # appended to the WAL
    durability.checkpoint(maintainer)        # any time; prunes old segments

After a crash, :class:`repro.replication.recovery.Recovery` rebuilds
the database from the newest checkpoint plus the WAL tail; attaching a
fresh ``DurabilityManager`` to the recovered database resumes appending
after the last intact record.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.algebra.relation import Delta
from repro.engine.database import Database
from repro.engine.persistence import deltas_to_document
from repro.replication.checkpoints import write_checkpoint
from repro.replication.wal import DEFAULT_SEGMENT_BYTES, WalIO, WalWriter

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.maintainer import ViewMaintainer


class DurabilityManager:
    """Owns the WAL writer and checkpoints for one database.

    Constructing the manager opens (or creates) the log in
    ``directory`` — recovering a torn tail if the previous process
    crashed mid-append — and registers a commit hook on ``database``.
    ``segment_bytes``, ``sync`` and ``io`` are passed through to
    :class:`~repro.replication.wal.WalWriter`.
    """

    def __init__(
        self,
        database: Database,
        directory: str,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        sync: str = "commit",
        io: WalIO | None = None,
    ) -> None:
        self.database = database
        self.directory = directory
        self._writer = WalWriter(
            directory, segment_bytes=segment_bytes, sync=sync, io=io
        )
        self._attached = False
        database.add_commit_hook(self._on_commit)
        self._attached = True

    # ------------------------------------------------------------------
    # Commit-side
    # ------------------------------------------------------------------
    def _on_commit(self, txn_id: int, deltas: Mapping[str, Delta]) -> None:
        if not deltas:
            return
        self._writer.append(txn_id, deltas_to_document(deltas))

    @property
    def position(self) -> int:
        """WAL sequence of the last appended record."""
        return self._writer.last_sequence

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(
        self,
        maintainer: "ViewMaintainer | None" = None,
        refresh_deferred: bool = True,
        prune: bool = True,
    ) -> str:
        """Snapshot the current state; returns the checkpoint's path.

        With a ``maintainer``, every view's stored contents ride along
        so recovery re-adopts them without recomputation; deferred views
        are refreshed first by default, making the checkpoint a
        consistent cut for *all* views (their backlogs re-accumulate
        from the WAL tail on replay).  ``prune`` deletes log segments
        wholly covered by the new checkpoint.
        """
        if maintainer is not None and refresh_deferred:
            from repro.core.maintainer import MaintenancePolicy

            for name in maintainer.view_names():
                if maintainer.policy(name) is MaintenancePolicy.DEFERRED:
                    maintainer.refresh(name)
        # A checkpoint claims "state as of WAL sequence N"; make the log
        # durable through N first so the claim never outlives the
        # records backing it (matters only under sync="close"/"never").
        self._writer.sync_now()
        path = write_checkpoint(
            self.directory,
            self.database,
            self._writer.last_sequence,
            maintainer,
        )
        if prune:
            self._writer.prune_through(self._writer.last_sequence)
        return path

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def sync_now(self) -> None:
        """Force an fsync of the active segment (see WalWriter.sync_now)."""
        self._writer.sync_now()

    def close(self) -> None:
        """Detach from the commit stream and close the log cleanly."""
        if self._attached:
            self.database.remove_commit_hook(self._on_commit)
            self._attached = False
        self._writer.close()

    def __enter__(self) -> "DurabilityManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<DurabilityManager {self.directory!r} "
            f"position={self._writer.last_sequence}>"
        )
