"""Crash recovery: newest checkpoint + WAL tail → the pre-crash state.

The protocol has three steps, and their order is what makes recovered
views *differentially* maintained rather than recomputed:

1. **Boot** — load the newest checkpoint; its base relations and
   catalog become a fresh :class:`~repro.engine.database.Database` and
   its transaction counter is restored
   (:func:`~repro.replication.checkpoints.boot_from_checkpoint`).
2. **Restore views** — the caller re-supplies each view's defining
   expression (definitions are code, not data); contents persisted in
   the checkpoint are re-adopted byte-for-byte via
   :meth:`ViewMaintainer.restore_view`, so no view is evaluated from
   scratch.
3. **Replay** — the WAL records after the checkpoint sequence are
   folded, in order, into *one* transaction's net effect and committed
   once through the normal commit pipeline.  Committed net effects
   compose (Section 3): a row inserted by one record and deleted by a
   later one is not represented at all, exactly as inside a single
   transaction.  So the maintainer's filter + differential machinery
   brings every view (and every index) up to date in one pass whose
   cost, and whose memory, is proportional to the *net* tail rather
   than to the record count, and deferred views take the tail as one
   pending backlog.

What counts as a commit changes; positions do not.  Per-commit
measures see the replayed tail as one commit: a view's
``transactions_seen`` and a deferred view's ``commits_since_refresh``
grow by one.  Positions stay WAL positions: the folded commit takes the
last record's sequence, so afterwards ``Database.last_sequence()`` is
that record's sequence (also when the tail nets to nothing), every view
the net effect reaches has it as its ``last_refresh_sequence``, and the
transaction counter is past every replayed id.  Records are decoded and
checked before anything is committed, so a corrupt log
(:class:`~repro.replication.wal.WalCorruptionError`) leaves the database
at its checkpoint state; so does a tail that breaks the checkpoint's
catalog — a key dropped after the checkpoint and then violated — which
is a :class:`~repro.errors.ReplicationError` naming the key and the
checkpoint.

Replay is deterministic: records hold *net effects*, whose composition
is insensitive to the vagaries of the original operation order, and the
WAL's checksums plus sequence continuity guarantee the replayed stream
is exactly the committed prefix.  A torn tail — the record being
appended when the process died — is left out, which is correct because
an incomplete append means the commit never finished; a writer opened
from :attr:`Recovery.scan` cuts it off without reading the log again.

A recovery session is used once: views are restored, then the tail is
replayed, and the checkpoint's documents are let go of as soon as they
are no longer needed — the base-relation document once the database is
built, the view documents when replay starts.
"""

from __future__ import annotations

import contextlib
from typing import Callable

from repro.algebra.expressions import Expression
from repro.core.maintainer import MaintenancePolicy, ViewMaintainer
from repro.core.views import MaterializedView
from repro.engine.database import Database
from repro.engine.log import LogRecord
from repro.engine.persistence import PersistenceError, deltas_from_document
from repro.engine.transactions import Transaction
from repro.errors import ReplicationError, ReproError, ViewQuarantinedError
from repro.instrumentation import charge
from repro.replication.checkpoints import Checkpoint, boot_from_checkpoint
from repro.replication.wal import TailDamage, WalReader, WalRecord


def decode_wal_record(database: Database, record: WalRecord) -> LogRecord:
    """Decode one shipped record against a database's schema catalog."""
    try:
        deltas = deltas_from_document(database.schema_catalog(), record.deltas_doc)
    except PersistenceError as exc:
        raise ReplicationError(
            f"cannot decode WAL record {record.sequence}: {exc}"
        ) from exc
    return LogRecord(record.txn_id, deltas)


class Recovery:
    """One recovery session over a durability directory.

    >>> # rec = Recovery("/var/lib/repro")        # boot from checkpoint
    >>> # maintainer = ViewMaintainer(rec.database)
    >>> # rec.restore_view(maintainer, "v", expr) # adopt stored contents
    >>> # rec.replay()                            # differential catch-up
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        checkpoint, database = boot_from_checkpoint(directory)
        #: WAL sequence the snapshot is current as of.
        self.checkpoint_sequence = checkpoint.wal_sequence
        #: The recovered database (snapshot state until :meth:`replay`).
        self.database = database
        # The view documents, until replay starts (None afterwards).
        self._checkpoint: Checkpoint | None = checkpoint
        self._view_names = checkpoint.view_names()
        #: Torn-tail report from the last replay (None when clean).
        self.tail_damage: TailDamage | None = None
        #: The replay's finished WAL scan, for a writer to open from.
        self.scan: WalReader | None = None
        #: WAL sequence the database is current as of after replay.
        self.last_sequence = self.checkpoint_sequence

    def checkpointed_views(self) -> tuple[str, ...]:
        """View names whose contents the checkpoint persisted."""
        return self._view_names

    def _unreplayed(self, step: str) -> Checkpoint:
        """The checkpoint's view documents; a :class:`ReplicationError`
        once :meth:`replay` has started."""
        if self._checkpoint is None:
            raise ReplicationError(
                f"{step} after replay(): a recovery restores its views, "
                "then replays the WAL tail once"
            )
        return self._checkpoint

    def restore_view(
        self,
        maintainer: ViewMaintainer,
        name: str,
        expression: Expression,
        policy: MaintenancePolicy | None = None,
    ) -> MaterializedView:
        """Re-register one view, adopting checkpointed contents if present.

        ``maintainer`` must observe :attr:`database`.  ``policy``
        defaults to the policy recorded in the checkpoint (falling back
        to IMMEDIATE for views the checkpoint never saw).  Call before
        :meth:`replay` so the view catches up differentially.
        """
        checkpoint = self._unreplayed("restore_view")
        if maintainer.database is not self.database:
            raise ReplicationError(
                "restore_view needs a maintainer attached to the recovered "
                "database (Recovery.database)"
            )
        if policy is None:
            recorded = checkpoint.view_policy(name)
            policy = (
                MaintenancePolicy(recorded)
                if recorded is not None
                else MaintenancePolicy.IMMEDIATE
            )
        contents = checkpoint.view_contents(name)
        if contents is None:
            return maintainer.define_view(name, expression, policy=policy)
        return maintainer.restore_view(name, expression, contents, policy=policy)

    def replay(self) -> int:
        """Commit the WAL tail as one transaction; returns the number of
        WAL records it folded.

        Call once, after all views are restored and before any new
        transaction touches :attr:`database`.  Each record's deletions,
        then its insertions, are netted into the one transaction (see
        the module docstring for what that means for per-commit
        measures and positions).
        """
        self._unreplayed("replay")
        self._checkpoint = None  # every view is restored
        database = self.database
        reader = WalReader(self.directory)
        # Its id is the newest record's, set once that record is known.
        tail = Transaction(database, 0)
        last: WalRecord | None = None
        newest_txn_id = 0
        records = 0
        for record in reader.records(after=self.checkpoint_sequence):
            for name, delta in decode_wal_record(database, record).deltas.items():
                tail._net(name, delta.deleted, False, encoded=True)
                tail._net(name, delta.inserted, True, encoded=True)
            last = record
            newest_txn_id = max(newest_txn_id, record.txn_id)
            records += 1
        self.tail_damage = reader.tail_damage
        self.scan = reader
        if last is None:
            return 0
        tail.txn_id = last.txn_id
        try:  # before the position moves, so a failure leaves the checkpoint
            database._check_constraints(tail, tail.net_deltas())
        except ReproError as exc:
            raise ReplicationError(
                f"the WAL tail after checkpoint {self.checkpoint_sequence} "
                f"breaks that checkpoint's catalog (a catalog change is "
                f"durable only from the next checkpoint): {exc}"
            ) from exc
        charge("log_replay_transactions", records)
        database.advance_sequence(last.sequence)  # the commit takes it
        with contextlib.suppress(ViewQuarantinedError):  # committed; see stats
            tail.commit()
        database.advance_sequence(last.sequence + 1)  # an empty net too
        database.advance_txn_counter(newest_txn_id + 1)
        self.last_sequence = last.sequence
        return records

    def __repr__(self) -> str:
        return (
            f"<Recovery {self.directory!r} checkpoint_seq="
            f"{self.checkpoint_sequence} last_seq={self.last_sequence}>"
        )


def recover(
    directory: str,
    setup: "Callable[[Recovery, ViewMaintainer], None] | None" = None,
    verify: bool = False,
) -> tuple[Recovery, ViewMaintainer]:
    """One-call recovery: boot, restore views, replay the tail.

    ``setup(recovery, maintainer)`` runs between boot and replay — the
    place to :meth:`Recovery.restore_view` every view definition.
    ``verify`` runs the full-recompute oracle over every restored view
    after replay (:meth:`ViewMaintainer.verify_all`), turning a stale
    checkpoint or a divergent replay into an immediate
    :class:`~repro.errors.MaintenanceError` instead of a silently wrong
    view.  Returns the finished recovery session and its maintainer.
    """
    recovery = Recovery(directory)
    maintainer = ViewMaintainer(recovery.database)
    if setup is not None:
        setup(recovery, maintainer)
    recovery.replay()
    if verify:
        maintainer.quiesce()
        maintainer.verify_all()
    return recovery, maintainer
