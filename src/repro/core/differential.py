"""The operands of Section 5's truth-table rows, built on first use.

A DELTA operand carries a transaction's inserts and deletes tagged
``insert``/``delete``; an OLD operand the tuples present **both before
and after** the transaction, tagged ``old`` (``r − d_r``, equivalently
the post-state minus the inserts — see :mod:`repro.algebra.tags` for
why this reading makes the paper's tag table exact).  The generated row
kernels (:mod:`repro.core.codegen`) read both straight from a delta's
count maps and the live relations; the per-tuple forms are built by the
reference evaluator the tests keep (``tests/reference.py``).

:class:`LazyOperandEntry` is held in this module for
``macrobench/tracer.py``, which wraps ``LazyOperandEntry.__getitem__``
by this name, until the tracer stops naming it (ROADMAP item 2).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.truthtable import DeltaRowChoice


class LazyOperandEntry:
    """One occurrence's operands by truth-table choice, each built on
    first access by ``build(choice)`` and kept.

    Materializing an OLD operand scans the whole relation; when a probe
    is answered from a persistent index — or when a truth-table row
    never consults the operand at all (the OLD choice of a changed
    relation with k = 1, say) — that scan is pure waste.  Construction
    is therefore deferred until the evaluator actually asks.
    """

    __slots__ = ("_build", "_cache")

    def __init__(self, build: Callable[[DeltaRowChoice], Any]) -> None:
        self._build = build
        self._cache: dict[DeltaRowChoice, Any] = {}

    def __getitem__(self, choice: DeltaRowChoice) -> Any:
        cached = self._cache.get(choice)
        if cached is None:
            cached = self._cache[choice] = self._build(choice)
        return cached
