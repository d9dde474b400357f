"""Storage and transaction engine.

Everything the paper assumes of its host database system, built from
scratch: named base relations, transactions with the net-effect
semantics of Section 3 (``τ(r) = r ∪ i_r − d_r`` with ``r``, ``i_r``
and ``d_r`` mutually disjoint), the commit position, log-record replay,
and the DDL facade over the hash indexes each relation carries
(:class:`HashIndex` itself lives beside
:class:`~repro.algebra.relation.Relation`).  The deferred refresh the
paper's conclusions point to via [AL80] is a maintenance policy
(:class:`~repro.core.maintainer.MaintenancePolicy`), not an engine part.
"""

from repro.algebra.relation import HashIndex
from repro.engine.database import Database
from repro.engine.transactions import Transaction
from repro.engine.log import LogRecord

__all__ = [
    "Database",
    "Transaction",
    "LogRecord",
    "HashIndex",
]
