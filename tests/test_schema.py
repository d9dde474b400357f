"""Unit tests for relation schemas."""

import pytest

from repro.algebra.domains import FiniteDomain
from repro.algebra.schema import Attribute, RelationSchema
from repro.errors import SchemaError


class TestAttribute:
    def test_default_domain_is_integers(self):
        from repro.algebra.domains import IntegerDomain

        assert Attribute("A").domain == IntegerDomain()

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("")

    def test_renamed_keeps_domain(self):
        a = Attribute("A", FiniteDomain(0, 3))
        b = a.renamed("B")
        assert b.name == "B"
        assert b.domain == FiniteDomain(0, 3)

    def test_equality_includes_domain(self):
        assert Attribute("A") == Attribute("A")
        assert Attribute("A") != Attribute("A", FiniteDomain(0, 1))


class TestRelationSchema:
    def test_from_strings(self):
        s = RelationSchema(["A", "B"])
        assert s.names == ("A", "B")
        assert len(s) == 2
        assert list(s) == ["A", "B"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema(["A", "A"])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema([])

    def test_index_and_contains(self):
        s = RelationSchema(["A", "B", "C"])
        assert s.index("B") == 1
        assert "C" in s
        assert "Z" not in s

    def test_index_unknown_raises(self):
        with pytest.raises(SchemaError):
            RelationSchema(["A"]).index("B")

    def test_disjointness(self):
        r = RelationSchema(["A", "B"])
        s = RelationSchema(["C", "D"])
        t = RelationSchema(["B", "C"])
        assert r.is_disjoint(s)
        assert not r.is_disjoint(t)
        assert r.shared_names(t) == ("B",)

    def test_concat_requires_disjoint(self):
        r = RelationSchema(["A", "B"])
        with pytest.raises(SchemaError):
            r.concat(RelationSchema(["B", "C"]))
        combined = r.concat(RelationSchema(["C"]))
        assert combined.names == ("A", "B", "C")

    def test_join_schema_keeps_shared_once(self):
        r = RelationSchema(["A", "B"])
        s = RelationSchema(["B", "C"])
        assert r.join_schema(s).names == ("A", "B", "C")

    def test_project_schema_preserves_order_given(self):
        s = RelationSchema(["A", "B", "C"])
        assert s.project_schema(["C", "A"]).names == ("C", "A")

    def test_project_empty_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema(["A"]).project_schema([])

    def test_positions(self):
        s = RelationSchema(["A", "B", "C"])
        assert s.positions(["C", "A"]) == (2, 0)

    def test_renamed_partial_mapping(self):
        s = RelationSchema(["A", "B"])
        renamed = s.renamed({"A": "X"})
        assert renamed.names == ("X", "B")

    def test_renamed_collision_rejected(self):
        s = RelationSchema(["A", "B"])
        with pytest.raises(SchemaError):
            s.renamed({"A": "B"})

    def test_encode_values_validates_arity(self):
        s = RelationSchema(["A", "B"])
        with pytest.raises(SchemaError):
            s.encode_values((1,))

    def test_encode_values_validates_domains(self):
        from repro.errors import DomainError

        s = RelationSchema([Attribute("A", FiniteDomain(0, 3))])
        with pytest.raises(DomainError):
            s.encode_values((9,))

    def test_encode_decode_roundtrip_with_string_domain(self):
        from repro.algebra.domains import StringDomain

        s = RelationSchema(
            [Attribute("status", StringDomain(["pending", "done"])), "n"]
        )
        codes = s.encode_values(("done", 5))
        assert codes == (1, 5)
        assert s.decode_values(codes) == ("done", 5)

    def test_plain_integer_schema_passes_ints_through_and_validates_the_rest(self):
        import enum

        from repro.algebra.domains import IntegerDomain
        from repro.errors import DomainError

        class Code(enum.IntEnum):
            SEVEN = 7

        class Offset(IntegerDomain):
            def encode(self, value):
                return value + 100

        s = RelationSchema(["A", "B"])
        assert s.encode_values([1, -2]) == (1, -2)
        assert s.decode_values([1, -2]) == (1, -2)
        encoded = s.encode_values((Code.SEVEN, 2))
        assert encoded == (7, 2) and type(encoded[0]) is int
        for bad in ((True, 2), (1, "2"), (1, 2.0), (1, None)):
            with pytest.raises(DomainError):
                s.encode_values(bad)
        for bad in ((1,), (1, 2, 3)):
            with pytest.raises(SchemaError):
                s.encode_values(bad)
        # A subclass of the integer domain is not "plain": it encodes.
        shifted = RelationSchema(["A", Attribute("B", Offset())])
        assert shifted.encode_values((1, 2)) == (1, 102)

    def test_equality_and_hash(self):
        assert RelationSchema(["A", "B"]) == RelationSchema(["A", "B"])
        assert RelationSchema(["A", "B"]) != RelationSchema(["B", "A"])
        assert hash(RelationSchema(["A"])) == hash(RelationSchema(["A"]))

    def test_domain_of(self):
        s = RelationSchema([Attribute("A", FiniteDomain(0, 1)), "B"])
        assert s.domain_of("A") == FiniteDomain(0, 1)
