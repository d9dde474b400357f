"""The paper's tag algebra (Section 5.3).

To handle transactions that both insert and delete, the paper tags every
tuple flowing through a differential evaluation as ``insert``,
``delete`` or ``old`` and redefines the join to combine tags.  Two
tables in the paper define the semantics.  The generated row kernels
(:mod:`repro.core.codegen`) bind :class:`Tag` and combine tags as the
tables say; the tables themselves, as data, are the per-tuple
reference's (``tests/reference.py``), exercised by experiment **E6**.

Join tag combination (the 9-row table of Section 5.3)::

    r1      r2      r1 ⋈ r2
    ------  ------  -------
    insert  insert  insert
    insert  delete  ignore
    insert  old     insert
    delete  insert  ignore
    delete  delete  delete
    delete  old     delete
    old     insert  insert
    old     delete  delete
    old     old     old

Select / project tag propagation (the unary table)::

    r       σ(r) or π(r)
    ------  ------------
    insert  insert
    delete  delete
    old     old

The meaning of ``old`` here is precise: a tuple tagged ``old`` is one
present *both before and after* the transaction (``r − d_r``).  With
that reading the table is exactly the algebraic expansion of
``(r − d_r ∪ i_r) ⋈ (s − d_s ∪ i_s)``: combinations producing tuples
present only in the new state are inserts, those present only in the old
state are deletes, ``insert ⋈ delete`` pairs exist in *neither* state
and are ignored ("do not emerge from the join", as the paper puts it).
"""

from __future__ import annotations

import enum


class Tag(enum.Enum):
    """Provenance tag attached to tuples during differential evaluation."""

    OLD = "old"
    INSERT = "insert"
    DELETE = "delete"
    #: Result marker only — never attached to a stored tuple.
    IGNORE = "ignore"

    def __repr__(self) -> str:
        return f"Tag.{self.name}"
