"""Log records and their replay.

Section 5 assumes that when the view-update mechanism runs, "the set of
tuples actually inserted into or deleted from each base relation" is
available: that is the committed transaction's net effect, which the
commit pipeline hands to every commit hook.  The database keeps no
history of it — only its position, :meth:`Database.last_sequence` — and
the write-ahead log (:mod:`repro.replication.wal`) is the one history.
A :class:`LogRecord` is one decoded entry of that history, and
:func:`replay_records` re-commits a stream of them, one commit per
record — the path of followers, which report a position per record, and
of the test oracles.  Crash recovery folds its tail into one commit
instead (:mod:`repro.replication.recovery`).
"""

from __future__ import annotations

from contextlib import suppress
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from repro.algebra.relation import Delta
from repro.errors import ViewQuarantinedError
from repro.instrumentation import charge

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.database import Database


class LogRecord(NamedTuple):
    """One committed transaction: its id and per-relation net deltas."""

    txn_id: int
    deltas: Mapping[str, Delta]


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
        # A commit that quarantined views stands (the views say so).
        with suppress(ViewQuarantinedError), database.transact(txn_id) as txn:
            for name, delta in record.deltas.items():
                txn._net(name, delta.deleted, False, encoded=True)
                txn._net(name, delta.inserted, True, encoded=True)
        replayed += 1
        charge("log_replay_transactions")
    return replayed
