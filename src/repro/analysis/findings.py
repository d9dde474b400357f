"""Typed findings with a closed code vocabulary.

Mirrors the network protocol's error-code discipline
(:mod:`repro.server.protocol`): every finding carries a snake_case
``code`` drawn from a **closed** vocabulary with a fixed severity, so
reports are machine-checkable (CI greps a code, not prose) and the
prose can improve without breaking consumers.

Severities
----------
* ``ERROR`` — the definition is broken in every database state (today:
  a provably unsatisfiable condition).  Strict registration and the
  ``analyze`` CLI verb's exit code key off this level.
* ``WARN`` — the definition works but carries provable waste or a
  likely mistake (dead disjuncts, redundant atoms, duplicate views,
  OLD operands joined with no equality links).
* ``INFO`` — an observation or an optimization the system already
  applies (tightenable bounds, static irrelevance, subsumption,
  truth-table rows that can never fire).
"""

from __future__ import annotations

import enum
from typing import Mapping


class Severity(enum.Enum):
    """How serious one finding is (ordered: ERROR < WARN < INFO)."""

    ERROR = "error"
    WARN = "warn"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Sort rank — most severe first."""
        return _SEVERITY_RANK[self]


_SEVERITY_RANK = {Severity.ERROR: 0, Severity.WARN: 1, Severity.INFO: 2}


# ----------------------------------------------------------------------
# The closed code vocabulary (one constant per distinct finding class)
# ----------------------------------------------------------------------

#: Check (a): the view condition is unsatisfiable — the view is empty
#: in every database state.
F_UNSATISFIABLE_CONDITION = "unsatisfiable_condition"
#: Check (b): one disjunct of the DNF condition is unsatisfiable while
#: the condition overall is not — the disjunct contributes nothing.
F_DEAD_DISJUNCT = "dead_disjunct"
#: Check (b): an atom is implied by the rest of its conjunct — it can
#: be dropped without changing the view.
F_REDUNDANT_ATOM = "redundant_atom"
#: Check (c): a single-variable screen is looser than the bound the
#: rest of its disjunct already entails — it can be tightened.
F_LOOSE_BOUND = "loose_bound"
#: Check (d): under its declared constraint, no legal update to the
#: relation can affect the view; the compiled plan drops its screening.
F_STATIC_IRRELEVANCE = "statically_irrelevant_relation"
#: Check (e): two views have provably identical contents.
F_DUPLICATE_VIEW = "duplicate_view"
#: Check (e): one view's rows are derivable from another's (condition
#: implication plus a column subset).
F_SUBSUMED_VIEW = "subsumed_view"
#: Check (f): an OLD operand is joined with no equality links — every
#: maintenance step scans it in full (no index binding possible).
F_UNBOUND_OLD_OPERAND = "unbound_old_operand"
#: Check (f): delta terms (one per occurrence; Section 5.3's truth-table
#: rows, telescoped) that can never fire because they require a delta
#: from a statically irrelevant relation.
F_DEAD_TRUTH_ROWS = "dead_truth_table_rows"
#: Check (g): the view is self-maintainable — maintainable from its own
#: counted contents plus the delta, with no base-relation access — so a
#: base-free host (follower or shard) could carry it without base
#: copies (see :mod:`repro.scheduler.selfmaint`).
F_SELF_MAINTAINABLE = "self_maintainable_view"
#: Check (h): an arithmetic aggregate (SUM/AVG) is computed over an
#: attribute whose domain is a label space — the encoded codes carry no
#: arithmetic meaning, so the view would be nonsense in every state.
F_UNSUPPORTED_AGGREGATE = "unsupported_aggregate"
#: Check (i): the chase over declared keys derived a *view key* — a
#: minimal set of output columns on which no two materialized rows can
#: agree; the finding carries the FD proof chain.
F_VIEW_KEY = "view_key"
#: Check (i): when the view key's closure covers the whole flattened
#: product, every view row provably has multiplicity ≤ 1, so codegen
#: pins the §5.2 counters to one (counter-free finishes).
F_COUNTER_FREE = "counter_free"
#: Check (i): the view is self-maintainable and would be hosted
#: base-free, but some base relation it reads declares no key — shipped
#: deltas of keyless relations rely on upstream validation for
#: duplicate inserts and absent deletes.
F_DUPLICATE_SENSITIVE = "duplicate_sensitive"

#: Every valid code, mapped to its fixed severity.  Adding a code here
#: is an API change; the vocabulary is otherwise closed.
CODE_SEVERITIES: Mapping[str, Severity] = {
    F_UNSATISFIABLE_CONDITION: Severity.ERROR,
    F_DEAD_DISJUNCT: Severity.WARN,
    F_REDUNDANT_ATOM: Severity.WARN,
    F_LOOSE_BOUND: Severity.INFO,
    F_STATIC_IRRELEVANCE: Severity.INFO,
    F_DUPLICATE_VIEW: Severity.WARN,
    F_SUBSUMED_VIEW: Severity.INFO,
    F_UNBOUND_OLD_OPERAND: Severity.WARN,
    F_DEAD_TRUTH_ROWS: Severity.INFO,
    F_SELF_MAINTAINABLE: Severity.INFO,
    F_UNSUPPORTED_AGGREGATE: Severity.ERROR,
    F_VIEW_KEY: Severity.INFO,
    F_COUNTER_FREE: Severity.INFO,
    F_DUPLICATE_SENSITIVE: Severity.WARN,
}


class Finding:
    """One analyzer verdict about one view (or view pair).

    Attributes
    ----------
    code:
        A constant from the closed vocabulary above.
    severity:
        Derived from the code — never chosen per call site.
    view:
        The analyzed view's name.
    subject:
        What inside the view the finding is about — a relation name,
        ``disjunct N``, an atom's text, or a second view's name for
        cross-view findings.
    message:
        Human-readable explanation, deterministic for a given input.
    """

    __slots__ = ("code", "severity", "view", "subject", "message")

    def __init__(self, code: str, view: str, subject: str, message: str) -> None:
        try:
            self.severity = CODE_SEVERITIES[code]
        except KeyError:
            raise ValueError(
                f"{code!r} is not in the closed finding vocabulary"
            ) from None
        self.code = code
        self.view = view
        self.subject = subject
        self.message = message

    def sort_key(self) -> tuple[str, int, str, str, str]:
        """Deterministic report order: by view, then severity, then code."""
        return (self.view, self.severity.rank, self.code, self.subject, self.message)

    def as_dict(self) -> dict[str, str]:
        """JSON-ready form (string values only, stable keys)."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "view": self.view,
            "subject": self.subject,
            "message": self.message,
        }

    def format(self) -> str:
        """One report line."""
        return (
            f"[{self.severity.value}] {self.view}: {self.code} "
            f"({self.subject}): {self.message}"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Finding):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __hash__(self) -> int:
        return hash((self.code, self.view, self.subject, self.message))

    def __repr__(self) -> str:
        return f"<Finding {self.format()}>"
