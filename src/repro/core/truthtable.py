"""The binary truth table of Section 5.3.

To differentially update a join view ``V = R₁ ⋈ R₂ ⋈ … ⋈ R_p`` the
paper associates a binary variable ``B_i`` with each relation: value 0
selects the *old* tuples of ``r_i`` and value 1 selects the tuples the
transaction changed.  Expanding the join of ``(old ∪ changed)`` over
union yields one subexpression per row of the truth table; the all-old
row is the current view and is skipped, and — crucially — "in practice
it is not necessary to build a table with 2^p rows.  Instead, by
knowing which relations have been modified, we can build only those
rows of the table representing the necessary subexpressions", which
with ``k`` modified relations costs O(2^k) regardless of ``p``.

This module enumerates exactly those rows.  A row is a tuple of
:class:`DeltaRowChoice` values, one per occurrence (``OLD`` everywhere
except the changed positions, which range over ``OLD``/``DELTA``).

Maintenance evaluates fewer: the planner (:mod:`repro.core.planner`)
telescopes the same delta to one term per changed occurrence — k
instead of 2^k − 1 — each written as a row with one ``DELTA`` cell.  The
table is kept for what prints it (the paper walkthrough, benchmark E5)
and for the test reference, which holds the terms to it.
"""

from __future__ import annotations

import enum
from itertools import product
from typing import Iterator, Sequence

from repro.errors import MaintenanceError
from repro.instrumentation import charge


class DeltaRowChoice(enum.Enum):
    """One truth-table cell: which tuples of the operand a row uses."""

    #: B_i = 0 — tuples present both before and after the transaction.
    #: In a telescoped term, an untagged operand: stored left of the
    #: term's delta, pre-commit right of it.
    OLD = 0
    #: B_i = 1 — the transaction's net-change tuples (tagged inserts
    #: and deletes).
    DELTA = 1

    def __repr__(self) -> str:
        return f"DeltaRowChoice.{self.name}"


Rows = tuple[DeltaRowChoice, ...]


def delta_rows(
    num_operands: int, changed_positions: Sequence[int]
) -> list[Rows]:
    """The truth-table rows that need evaluating, as a list.

    ``changed_positions`` are the operand indices the transaction
    modified.  Every combination of OLD/DELTA over those positions
    except all-OLD (the current view), with unchanged positions pinned
    to OLD — ``2^k − 1`` rows, none when nothing changed.
    :func:`enumerate_delta_rows` yields them, charging each row.
    """
    changed = sorted(set(changed_positions))
    for position in changed:
        if not 0 <= position < num_operands:
            raise MaintenanceError(
                f"changed position {position} out of range for "
                f"{num_operands} operands"
            )
    rows: list[Rows] = []
    for bits in product((DeltaRowChoice.OLD, DeltaRowChoice.DELTA),
                        repeat=len(changed)):
        if all(b is DeltaRowChoice.OLD for b in bits):
            continue  # the current materialization of the view
        row = [DeltaRowChoice.OLD] * num_operands
        for position, bit in zip(changed, bits):
            row[position] = bit
        rows.append(tuple(row))
    return rows


def enumerate_delta_rows(
    num_operands: int, changed_positions: Sequence[int]
) -> Iterator[Rows]:
    """Yield the rows of :func:`delta_rows`, charging ``truth_table_rows``.

    The paper's p = 3 example: with insertions to r₁ and r₂ only,
    "to bring the view up to date we need to compute only the joins
    represented by rows 3, 5, and 7":

    >>> rows = list(enumerate_delta_rows(3, [0, 1]))
    >>> [tuple(c.value for c in row) for row in rows]
    [(0, 1, 0), (1, 0, 0), (1, 1, 0)]
    """
    for row in delta_rows(num_operands, changed_positions):
        charge("truth_table_rows")
        yield row


def render_row(row: Rows, operand_names: Sequence[str]) -> str:
    """Format a row like the paper's table, e.g. ``i_r1 ⋈ r2 ⋈ r3``.

    DELTA cells render as ``i_<name>`` following the paper's insert-only
    exposition; in the general tagged setting a DELTA cell carries both
    inserts and deletes.
    """
    if len(row) != len(operand_names):
        raise MaintenanceError(
            f"row width {len(row)} does not match {len(operand_names)} names"
        )
    parts = [
        name if choice is DeltaRowChoice.OLD else f"i_{name}"
        for choice, name in zip(row, operand_names)
    ]
    return " ⋈ ".join(parts)


def full_truth_table(num_operands: int) -> list[Rows]:
    """All ``2^p`` rows including the all-old row, for display only.

    This reproduces the paper's illustrative p = 3 table verbatim
    (benchmark E5 prints it).
    """
    rows = []
    for bits in product((DeltaRowChoice.OLD, DeltaRowChoice.DELTA),
                        repeat=num_operands):
        rows.append(tuple(bits))
    return rows
