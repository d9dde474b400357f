"""The operands of Section 5's delta terms, built on first use.

A term reads each occurrence in one state: the delta, its inserts and
deletes tagged ``insert``/``delete``; the operand as stored after the
commit; or as it stood before it (the stored rows less the inserts,
plus the deletes).  The generated row kernels (:mod:`repro.core.codegen`)
read all three straight from a delta's count maps and the live
relations; the per-tuple forms are built by the reference evaluator the
tests keep (``tests/reference.py``), which also builds the paper's OLD
(``r − d_r``) for its truth table.

:class:`LazyOperandEntry` is held in this module for
``macrobench/tracer.py``, which wraps ``LazyOperandEntry.__getitem__``
by this name, until the tracer stops naming it (ROADMAP item 2).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable


class LazyOperandEntry:
    """One occurrence's operands by state, each built on first access
    by ``build(state)`` and kept.

    Materializing a stored or pre-commit operand scans the whole
    relation; when a probe is answered from a persistent index — or
    when no term consults the operand in that state at all — that scan
    is pure waste.  Construction is therefore deferred until the
    evaluator actually asks.
    """

    __slots__ = ("_build", "_cache")

    def __init__(self, build: Callable[[Any], Any]) -> None:
        self._build = build
        self._cache: dict[Hashable, Any] = {}

    def __getitem__(self, state: Hashable) -> Any:
        cached = self._cache.get(state)
        if cached is None:
            cached = self._cache[state] = self._build(state)
        return cached
