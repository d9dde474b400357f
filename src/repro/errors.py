"""Exception hierarchy for the ``repro`` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` and
friends raised by misuse of the Python API itself) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A relation schema is malformed or two schemas are incompatible.

    Raised, for example, when a tuple's arity does not match its schema,
    when a projection names an attribute the schema lacks, or when two
    relations joined by a cross product share attribute names (the paper
    assumes disjoint schemes, ``R_i ∩ R_j = ∅``).
    """


class DomainError(ReproError):
    """A value lies outside the domain declared for its attribute."""


class ConditionError(ReproError):
    """A selection condition is not in the supported class.

    Section 4 of the paper restricts conditions to conjunctions (and
    disjunctions of conjunctions) of atomic formulae ``x op y``,
    ``x op c`` and ``x op y + c`` with ``op ∈ {=, <, >, <=, >=}``.
    The operator ``!=`` is explicitly excluded because it breaks the
    polynomial satisfiability test of Rosenkrantz and Hunt.
    """


class ExpressionError(ReproError):
    """A relational-algebra expression is malformed.

    Examples: selecting on attributes not produced by the operand,
    joining relations whose schemas are not disjoint on non-join
    attributes when the operation requires it, or supplying a view
    definition outside the SPJ class.
    """


class TransactionError(ReproError):
    """A transaction was used incorrectly.

    Raised for commits of already-committed transactions, operations on
    aborted transactions, or updates that reference unknown relations.
    """


class UnknownRelationError(TransactionError):
    """A statement referenced a base relation the database does not hold."""


class ConstraintError(ReproError):
    """A relation constraint is malformed or cannot be declared.

    Raised when a constraint references attributes outside its
    relation's schema, targets an unknown relation, or would be
    violated by rows the relation already holds.
    """


class ConstraintViolationError(TransactionError):
    """A transaction tried to insert tuples violating a declared constraint.

    Enforcement happens before the commit mutates any state, so the
    transaction's effects are discarded in full.
    """


class KeyViolationError(TransactionError):
    """A transaction's net effect would violate a declared key or
    foreign key.

    Either two post-state rows would agree on a declared candidate key,
    or a referencing row would be left without a referenced-key partner.
    Enforcement happens before the commit mutates any state, so the
    transaction's effects are discarded in full.
    """


class UnknownViewError(ReproError):
    """A maintenance request referenced a view that was never registered."""


class ViewDefinitionError(ExpressionError):
    """A view definition cannot be maintained by this library.

    The differential algorithm of Section 5 supports exactly the class of
    SPJ expressions; definitions containing other operators are rejected
    at registration time with this error.
    """


class MaintenanceError(ReproError):
    """Differential maintenance failed or was invoked inconsistently."""


class IntegrityViolation(MaintenanceError):
    """A commit would make an assertion's error predicate true: the
    commit is undone ([HS78]'s integrity assertions)."""

    def __init__(self, assertion_name: str, witnesses: list) -> None:
        self.assertion_name = assertion_name
        #: The error-predicate rows the commit would have created.
        self.witnesses = witnesses
        preview = ", ".join(map(str, witnesses[:3]))
        if len(witnesses) > 3:
            preview += ", …"
        super().__init__(
            f"assertion {assertion_name!r} violated; "
            f"error-predicate witnesses: {preview}"
        )


class ViewQuarantinedError(MaintenanceError):
    """A commit stands, but ``views`` raised in their maintenance (or
    read one that did): they keep their pre-commit contents until
    ``refresh`` rebuilds them.  ``record`` says why."""

    def __init__(self, views: tuple[str, ...], record: dict) -> None:
        self.views, self.record = views, record
        super().__init__(
            f"transaction {record['txn']} committed at sequence "
            f"{record['seq']}, but views {list(views)} are quarantined: "
            f"{record['view']!r} raised {record['error']}: {record['message']}"
        )


class AnalysisError(ReproError):
    """The static view analyzer was invoked inconsistently.

    Raised for malformed analysis requests (unknown views, conditions
    outside the tractable class surfacing mid-analysis); *findings* are
    not errors — they are data on the report.
    """


class StrictAnalysisError(MaintenanceError):
    """Strict registration rejected a view over ERROR-level findings.

    Carries the offending :class:`repro.analysis.findings.Finding`
    objects on :attr:`findings` so callers can render or log them.
    """

    def __init__(self, view_name: str, findings: tuple) -> None:
        self.view_name = view_name
        self.findings = tuple(findings)
        details = "; ".join(f.message for f in self.findings)
        super().__init__(
            f"strict analysis rejected view {view_name!r}: {details}"
        )


class ClusterError(ReproError):
    """The sharded-cluster subsystem was misconfigured or failed.

    Covers invalid topologies (non-increasing partition boundaries,
    boundary counts that do not match the shard count), view
    definitions outside the shardable class (a view must reference
    exactly one occurrence of exactly one partitioned relation, so the
    merged cluster view is a disjoint bag-union of per-shard views),
    and coordinator-side transaction failures (a shard vetoed the
    prepare phase, or stayed unreachable past the 2PC timeout).
    """


class ReplicationError(ReproError):
    """The durability / replication subsystem failed.

    Covers write-ahead-log corruption (see
    :class:`repro.replication.wal.WalCorruptionError`), malformed
    checkpoint documents, and followers consuming a log that references
    relations they never declared.
    """


class UnknownMetricError(ReproError):
    """A counter was incremented under a name :mod:`repro.instrumentation`
    does not declare (a typo, or a name built from user input)."""
