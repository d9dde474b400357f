"""Storage and transaction engine.

Everything the paper assumes of its host database system, built from
scratch: named base relations, transactions with the net-effect
semantics of Section 3 (``τ(r) = r ∪ i_r − d_r`` with ``r``, ``i_r``
and ``d_r`` mutually disjoint), an update log, the DDL facade over the
hash indexes each relation carries (:class:`HashIndex` itself lives
beside :class:`~repro.algebra.relation.Relation`), and the
deferred-refresh (snapshot) machinery that the paper's conclusions
point to via [AL80].
"""

from repro.algebra.relation import HashIndex
from repro.engine.database import Database
from repro.engine.transactions import Transaction
from repro.engine.log import UpdateLog, LogRecord
from repro.engine.snapshots import SnapshotQueue

__all__ = [
    "Database",
    "Transaction",
    "UpdateLog",
    "LogRecord",
    "HashIndex",
    "SnapshotQueue",
]
