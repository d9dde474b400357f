"""Cross-checking differential maintenance against full re-evaluation.

The master invariant of the whole system (DESIGN.md §6): after any
sequence of transactions, a differentially-maintained view must equal —
tuple for tuple *and count for count* — the complete re-evaluation of
its defining expression over the current base relations.  This module
performs that comparison and reports differences precisely, and backs
both the maintainer's ``auto_verify`` mode and the property tests.
"""

from __future__ import annotations

from typing import Mapping

from repro.algebra.evaluate import evaluate
from repro.algebra.relation import Relation
from repro.core.views import MaterializedView
from repro.errors import MaintenanceError


class ConsistencyReport:
    """The differences between a maintained view and the ground truth."""

    __slots__ = (
        "view_name",
        "missing",
        "unexpected",
        "count_mismatches",
        "stale_indexes",
    )

    def __init__(
        self,
        view_name: str,
        missing: dict,
        unexpected: dict,
        count_mismatches: dict,
    ) -> None:
        self.view_name = view_name
        #: tuples the recomputation has but the view lacks: values -> count
        self.missing = missing
        #: tuples the view has but the recomputation lacks: values -> count
        self.unexpected = unexpected
        #: tuples present in both with differing counts: values -> (view, truth)
        self.count_mismatches = count_mismatches
        #: view indexes that differ from a rebuild from the contents:
        #: indexed attributes -> first (lowest) key whose bucket differs
        self.stale_indexes: dict[tuple[str, ...], tuple[int, ...]] = {}

    def is_consistent(self) -> bool:
        """True when the view matches the ground truth exactly and
        every index it carries matches its contents."""
        return not (
            self.missing
            or self.unexpected
            or self.count_mismatches
            or self.stale_indexes
        )

    def summary(self) -> str:
        """A one-line human-readable verdict."""
        if self.is_consistent():
            return f"view {self.view_name!r}: consistent"
        stale = "".join(
            f", index on ({', '.join(attrs)}) stale at key {key}"
            for attrs, key in self.stale_indexes.items()
        )
        return (
            f"view {self.view_name!r}: {len(self.missing)} missing, "
            f"{len(self.unexpected)} unexpected, "
            f"{len(self.count_mismatches)} count mismatches{stale}"
        )

    def __repr__(self) -> str:
        return f"<ConsistencyReport {self.summary()}>"


def compare_relations(
    view_name: str, maintained: Relation, truth: Relation
) -> ConsistencyReport:
    """Diff two counted relations tuple by tuple."""
    maintained_counts = maintained.counts()
    truth_counts = truth.counts()
    missing = {
        values: count
        for values, count in truth_counts.items()
        if values not in maintained_counts
    }
    unexpected = {
        values: count
        for values, count in maintained_counts.items()
        if values not in truth_counts
    }
    mismatches = {
        values: (maintained_counts[values], truth_counts[values])
        for values in maintained_counts.keys() & truth_counts.keys()
        if maintained_counts[values] != truth_counts[values]
    }
    return ConsistencyReport(view_name, missing, unexpected, mismatches)


def check_view_consistency(
    view: MaterializedView,
    instances: Mapping[str, Relation],
    raise_on_mismatch: bool = True,
) -> ConsistencyReport:
    """Recompute ``view`` from scratch and compare with its contents.

    Each hash index the view carries is audited as well, against a
    rebuild from the contents.  With ``raise_on_mismatch`` (the default)
    an inconsistency raises :class:`~repro.errors.MaintenanceError`
    carrying the report's summary; otherwise the report is returned for
    inspection either way.
    """
    truth = evaluate(view.definition.expression, instances)
    report = compare_relations(view.definition.name, view.contents, truth)
    for attrs, index in view.contents.indexes.items():
        stale_key = index._stale_key(view.contents)
        if stale_key is not None:
            report.stale_indexes[attrs] = stale_key
    if raise_on_mismatch and not report.is_consistent():
        raise MaintenanceError(report.summary())
    return report
