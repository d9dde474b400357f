"""The update log.

Section 5 assumes that when the view-update mechanism runs, "the set of
tuples actually inserted into or deleted from each base relation" is
available.  :class:`UpdateLog` is the component that makes this true
beyond the immediate commit: it records the net-effect deltas of every
committed transaction, in commit order, so that

* deferred (snapshot) maintenance can compose the deltas accumulated
  since a view's last refresh (see :mod:`repro.engine.snapshots`),
* tests can replay history against a fresh database and verify that the
  net-effect representation is faithful, and
* tooling can inspect what happened.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from repro.algebra.relation import Delta
from repro.instrumentation import charge

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.database import Database


class LogRecord:
    """One committed transaction: its id and per-relation net deltas."""

    __slots__ = ("txn_id", "deltas", "sequence")

    def __init__(self, txn_id: int, sequence: int, deltas: Mapping[str, Delta]) -> None:
        self.txn_id = txn_id
        self.sequence = sequence
        self.deltas = dict(deltas)

    def touched_relations(self) -> tuple[str, ...]:
        """Relations this transaction had a net effect on."""
        return tuple(sorted(self.deltas))

    def __repr__(self) -> str:
        return f"<LogRecord seq={self.sequence} txn={self.txn_id} {self.touched_relations()}>"


class UpdateLog:
    """An append-only, in-memory log of committed transactions."""

    def __init__(self) -> None:
        self._records: list[LogRecord] = []
        self._next_sequence = 1

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, txn_id: int, deltas: Mapping[str, Delta]) -> LogRecord:
        """Record a committed transaction; returns the new record."""
        record = LogRecord(txn_id, self._next_sequence, deltas)
        self._next_sequence += 1
        self._records.append(record)
        return record

    def advance_sequence(self, next_sequence: int) -> None:
        """Ensure future records get sequences ``>= next_sequence``.

        Recovery and followers call this before replaying a WAL tail so
        the in-memory log assigns each replayed commit *the same
        sequence the WAL gave it* — afterwards ``last_sequence()`` (and
        every view's ``last_refresh_sequence``) is a WAL position,
        which is what changefeed subscribers resume from.
        """
        self._next_sequence = max(self._next_sequence, next_sequence)

    def truncate_before(self, sequence: int) -> int:
        """Drop records with ``sequence <`` the given value.

        Returns the number of records dropped.  Called after all
        deferred consumers have caught up past ``sequence``.
        """
        kept = [r for r in self._records if r.sequence >= sequence]
        dropped = len(self._records) - len(kept)
        self._records = kept
        return dropped

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def records_since(self, sequence: int) -> Iterator[LogRecord]:
        """Records with ``sequence >`` the given value, in order."""
        for record in self._records:
            if record.sequence > sequence:
                yield record

    def last_sequence(self) -> int:
        """The log's position: the sequence of the newest record ever
        appended or skipped to (0 for a fresh log).

        A property of the sequence counter, not of the retained
        records, so it survives :meth:`truncate_before` and is already
        the WAL position after :meth:`advance_sequence` with no record
        replayed yet (a recovery whose WAL tail is empty).
        """
        return self._next_sequence - 1

    def composed_delta(self, relation_name: str, since_sequence: int = 0) -> Delta | None:
        """Net delta for one relation across all records after a point.

        Composition cancels insert/delete pairs across transactions,
        mirroring within-transaction net-effect cancellation.  Returns
        ``None`` when no record touched the relation.
        """
        combined: Delta | None = None
        for record in self.records_since(since_sequence):
            delta = record.deltas.get(relation_name)
            if delta is None:
                continue
            combined = delta if combined is None else combined.compose(delta)
        return combined

    def replay(self, database: "Database") -> None:
        """Re-apply every logged delta against ``database`` in order.

        Used by tests to check that the log is a faithful record: a
        fresh copy of the initial state replayed through the log must
        equal the live database.
        """
        replay_records(database, self._records)

    def __repr__(self) -> str:
        return f"<UpdateLog {len(self._records)} records>"


def replay_records(
    database: "Database",
    records: Iterable[LogRecord],
    preserve_txn_ids: bool = False,
) -> int:
    """Re-commit a sequence of log records against ``database``.

    Each record becomes one transaction through the normal commit
    pipeline, so every commit hook — view maintainers above all — sees
    the replayed deltas exactly as it saw the originals; views are
    re-derived differentially, never recomputed.  A record's tuples are
    already encoded (they crossed the row boundary when first written,
    or in ``delta_from_document``), so they enter the transaction's
    netting as they are.  Replay is
    deterministic because each record holds a *net effect*: deletions
    are applied before insertions per relation, and net-effect
    cancellation cannot re-trigger (inserts are absent from, deletes
    present in, the pre-state by the Section 3 invariant).

    ``preserve_txn_ids`` re-commits each record under its original
    transaction id (crash recovery); the default assigns fresh ids
    (replay-as-oracle in tests).  Returns the number of transactions
    committed.
    """
    replayed = 0
    for record in records:
        txn_id = record.txn_id if preserve_txn_ids else None
        with database.transact(txn_id) as txn:
            for name, delta in record.deltas.items():
                txn._net(name, delta.deleted, False, encoded=True)
                txn._net(name, delta.inserted, True, encoded=True)
        replayed += 1
        charge("log_replay_transactions")
    return replayed
