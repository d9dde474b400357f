"""Unit tests for Row views and row coercion."""

import pytest

from repro.algebra.domains import StringDomain
from repro.algebra.relation import Relation
from repro.algebra.schema import Attribute, RelationSchema
from repro.algebra.tuples import Row, coerce_row
from repro.errors import SchemaError


@pytest.fixture
def schema():
    return RelationSchema(["A", "B", "C"])


class TestRow:
    def test_mapping_access(self, schema):
        row = Row(schema, (1, 2, 3))
        assert row["A"] == 1
        assert row["C"] == 3
        assert dict(row) == {"A": 1, "B": 2, "C": 3}

    def test_len_and_iter(self, schema):
        row = Row(schema, (1, 2, 3))
        assert len(row) == 3
        assert list(row) == ["A", "B", "C"]

    def test_arity_mismatch_rejected(self, schema):
        with pytest.raises(SchemaError):
            Row(schema, (1, 2))

    def test_raw_access(self, schema):
        assert Row(schema, (1, 2, 3)).raw("B") == 2

    def test_project(self, schema):
        sub = Row(schema, (1, 2, 3)).project(["C", "A"])
        assert sub.values == (3, 1)
        assert sub.schema.names == ("C", "A")

    def test_equality_with_row_and_mapping(self, schema):
        row = Row(schema, (1, 2, 3))
        assert row == Row(schema, (1, 2, 3))
        assert row == {"A": 1, "B": 2, "C": 3}
        assert row != Row(schema, (9, 2, 3))

    def test_hashable(self, schema):
        assert len({Row(schema, (1, 2, 3)), Row(schema, (1, 2, 3))}) == 1

    def test_decodes_through_domain(self):
        from repro.algebra.domains import StringDomain
        from repro.algebra.schema import Attribute

        s = RelationSchema([Attribute("x", StringDomain(["lo", "hi"]))])
        assert Row(s, (1,))["x"] == "hi"


class TestCoerceRow:
    def test_from_sequence(self, schema):
        assert coerce_row(schema, (1, 2, 3)) == (1, 2, 3)
        assert coerce_row(schema, [1, 2, 3]) == (1, 2, 3)

    def test_from_mapping(self, schema):
        assert coerce_row(schema, {"B": 2, "A": 1, "C": 3}) == (1, 2, 3)

    def test_from_row(self, schema):
        row = Row(schema, (1, 2, 3))
        assert coerce_row(schema, row) == (1, 2, 3)

    def test_row_schema_mismatch(self, schema):
        other = RelationSchema(["X", "Y", "Z"])
        with pytest.raises(SchemaError):
            coerce_row(schema, Row(other, (1, 2, 3)))

    def test_mapping_missing_attribute(self, schema):
        with pytest.raises(SchemaError):
            coerce_row(schema, {"A": 1, "B": 2})

    def test_mapping_extra_attribute(self, schema):
        with pytest.raises(SchemaError):
            coerce_row(schema, {"A": 1, "B": 2, "C": 3, "D": 4})

    def test_string_rejected(self, schema):
        with pytest.raises(SchemaError):
            coerce_row(schema, "abc")

    def test_bad_arity_rejected(self, schema):
        with pytest.raises(SchemaError):
            coerce_row(schema, (1,))
        with pytest.raises(SchemaError):
            coerce_row(schema, [1, 2, 3, 4])

    def test_every_row_shape_encodes_alike(self, schema):
        """Tuples and lists take a fast path ahead of the ABC checks;
        every other shape still reaches the same encoded tuple."""
        from collections import namedtuple

        Point = namedtuple("Point", ["A", "B", "C"])
        shapes = [
            (1, 2, 3),
            [1, 2, 3],
            Point(1, 2, 3),
            Row(schema, (1, 2, 3)),
            {"C": 3, "A": 1, "B": 2},
            range(1, 4),
        ]
        assert {coerce_row(schema, shape) for shape in shapes} == {(1, 2, 3)}
        assert type(coerce_row(schema, [1, 2, 3])) is tuple
        with pytest.raises(SchemaError):
            coerce_row(schema, b"abc")

    def test_fast_path_still_validates_domains(self):
        from repro.algebra.domains import StringDomain
        from repro.algebra.schema import Attribute
        from repro.errors import DomainError

        s = RelationSchema([Attribute("x", StringDomain(["lo", "hi"]))])
        assert coerce_row(s, ("hi",)) == coerce_row(s, ["hi"]) == (1,)
        with pytest.raises(DomainError):
            coerce_row(s, ("mid",))


class TestMembership:
    def test_in_never_raises_for_a_row_that_cannot_be_present(self, schema):
        # DomainError is a sibling of SchemaError, not a subclass: a value
        # outside its domain used to escape ``in`` where a bad arity did not.
        relation = Relation.from_rows(schema, [(1, 2, 3)])
        assert (1, 2, 3) in relation
        assert (1, 2) not in relation
        assert "abc" not in relation
        assert (1, 2, "x") not in relation
        assert (1, 2, True) not in relation
        labelled = Relation.from_rows(
            RelationSchema([Attribute("x", StringDomain(["lo", "hi"]))]), [("hi",)]
        )
        assert ("hi",) in labelled
        assert ("mid",) not in labelled
        assert (1,) not in labelled  # a code is not a raw value
