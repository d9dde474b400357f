"""Tests of the exception hierarchy contract.

Every deliberate failure in the library derives from ReproError, so a
single except clause catches library errors without swallowing Python
programming errors.
"""

import pytest

from repro.errors import (
    ConditionError,
    DomainError,
    ExpressionError,
    MaintenanceError,
    ReproError,
    SchemaError,
    TransactionError,
    UnknownRelationError,
    UnknownViewError,
    ViewDefinitionError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            SchemaError,
            DomainError,
            ConditionError,
            ExpressionError,
            TransactionError,
            UnknownRelationError,
            UnknownViewError,
            ViewDefinitionError,
            MaintenanceError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_unknown_relation_is_transaction_error(self):
        assert issubclass(UnknownRelationError, TransactionError)

    def test_view_definition_is_expression_error(self):
        assert issubclass(ViewDefinitionError, ExpressionError)

    def test_integrity_violation_is_maintenance_error(self):
        from repro.errors import IntegrityViolation

        assert issubclass(IntegrityViolation, MaintenanceError)

    def test_persistence_error_is_repro_error(self):
        from repro.engine.persistence import PersistenceError

        assert issubclass(PersistenceError, ReproError)

    def test_shell_error_is_repro_error(self):
        from repro.cli import ShellError

        assert issubclass(ShellError, ReproError)


class TestCatchability:
    """One except clause catches all library failures."""

    def test_domain_failure(self):
        from repro.algebra.domains import FiniteDomain

        with pytest.raises(ReproError):
            FiniteDomain(5, 1)

    def test_condition_failure(self):
        from repro.algebra.conditions import parse_condition

        with pytest.raises(ReproError):
            parse_condition("x != 5")

    def test_engine_failure(self):
        from repro.engine.database import Database

        with pytest.raises(ReproError):
            Database().relation("missing")

    def test_maintenance_failure(self):
        from repro.algebra.relation import Relation
        from repro.algebra.schema import RelationSchema

        with pytest.raises(ReproError):
            Relation(RelationSchema(["A"])).discard((1,))

    def test_python_errors_pass_through(self):
        """TypeError from API misuse must NOT be a ReproError."""
        from repro.algebra.relation import Relation
        from repro.algebra.schema import RelationSchema

        with pytest.raises(TypeError):
            hash(Relation(RelationSchema(["A"])))
