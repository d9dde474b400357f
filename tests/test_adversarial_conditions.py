"""Adversarial corner cases: self-referential atoms, multi-link joins.

These pin behaviours that are easy to get subtly wrong: atoms whose two
variables are the same attribute (``A < A + 1`` is a tautology, ``A <
A`` a contradiction — over discrete domains the graph sees them as
self-loops), and join operands linked to the accumulator through
*several* equality atoms at once.
"""

import pytest

from repro.algebra.conditions import Atom, parse_condition
from repro.algebra.expressions import BaseRef, to_normal_form
from repro.algebra.schema import RelationSchema
from repro.core.irrelevance import RelevanceFilter, is_irrelevant_update
from repro.core.maintainer import ViewMaintainer
from repro.core.satisfiability import is_satisfiable_conjunction
from repro.engine.database import Database
from tests.reference import evaluate, evaluate_normal_form


class TestSelfReferentialAtoms:
    def test_tautology_satisfiable(self):
        conj = parse_condition("A < A + 1").disjuncts[0]
        assert is_satisfiable_conjunction(conj, "floyd")
        assert is_satisfiable_conjunction(conj, "bellman")

    def test_contradiction_unsatisfiable(self):
        for text in ("A < A", "A > A", "A = A + 1", "A <= A - 1"):
            conj = parse_condition(text).disjuncts[0]
            assert not is_satisfiable_conjunction(conj, "floyd"), text
            assert not is_satisfiable_conjunction(conj, "bellman"), text

    def test_reflexive_equality_satisfiable(self):
        conj = parse_condition("A = A and A <= 5").disjuncts[0]
        assert is_satisfiable_conjunction(conj)

    def test_filter_with_contradictory_invariant_self_loop(self):
        """An invariant self-loop contradiction kills the screen at
        construction, not per tuple."""
        catalog = {
            "r": RelationSchema(["A", "B"]),
            "s": RelationSchema(["C"]),
        }
        expr = (
            BaseRef("r").product(BaseRef("s")).select("C < C and A = C")
        ).project(["A"])
        nf = to_normal_form(expr, catalog)
        screen = RelevanceFilter(nf, "r", catalog["r"])
        assert screen._screens == []
        assert not screen.is_relevant((1, 2))

    def test_filter_with_variant_self_loop(self):
        """A < A substitutes to a ground falsehood for every tuple."""
        catalog = {"r": RelationSchema(["A", "B"])}
        nf = to_normal_form(BaseRef("r").select("A < A"), catalog)
        assert is_irrelevant_update(nf, "r", (3, 4), catalog["r"])

    def test_view_with_tautological_self_atom_maintained(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 2)])
        m = ViewMaintainer(db, auto_verify=True)
        view = m.define_view("v", BaseRef("r").select("A <= A and B >= 1"))
        with db.transact() as txn:
            txn.insert("r", (3, 4))
            txn.insert("r", (5, 0))  # fails B >= 1
        assert view.contents.counts() == {(1, 2): 1, (3, 4): 1}


class TestMultiLinkJoins:
    @pytest.fixture
    def catalog(self):
        return {
            "r": RelationSchema(["A", "B"]),
            "t": RelationSchema(["X", "Y"]),
        }

    def test_operand_linked_through_two_equalities(self, catalog):
        """t joins r on BOTH X = A and Y = B simultaneously: the planner
        must build a composite key, not pick one link arbitrarily."""
        expr = (
            BaseRef("r")
            .product(BaseRef("t"))
            .select("X = A and Y = B")
            .project(["A", "B"])
        )
        from repro.algebra.relation import Relation

        nf = to_normal_form(expr, catalog)
        instances = {
            "r": Relation.from_rows(catalog["r"], [(1, 2), (1, 3), (4, 2)]),
            "t": Relation.from_rows(catalog["t"], [(1, 2), (4, 3)]),
        }
        got = evaluate_normal_form(nf, instances)
        want = evaluate(expr, instances)
        assert got == want
        assert got.counts() == {(1, 2): 1}

    def test_same_operand_attribute_linked_twice(self, catalog):
        """X must equal A *and* B: only rows with A = B can match."""
        expr = (
            BaseRef("r")
            .product(BaseRef("t"))
            .select("X = A and X = B")
            .project(["A", "X"])
        )
        nf = to_normal_form(expr, catalog)
        from repro.algebra.relation import Relation

        instances = {
            "r": Relation.from_rows(catalog["r"], [(1, 1), (1, 2), (5, 5)]),
            "t": Relation.from_rows(catalog["t"], [(1, 9), (5, 9), (2, 9)]),
        }
        got = evaluate_normal_form(nf, instances)
        want = evaluate(expr, instances)
        assert got == want
        assert set(got.value_tuples()) == {(1, 1), (5, 5)}

    def test_maintained_multi_link_view(self, catalog):
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 2), (4, 2)])
        db.create_relation("t", ["X", "Y"], [(1, 2)])
        m = ViewMaintainer(db, auto_verify=True)
        m.define_view(
            "v",
            BaseRef("r").product(BaseRef("t")).select("X = A and Y = B"),
        )
        with db.transact() as txn:
            txn.insert("t", (4, 2))
            txn.insert("r", (9, 9))
        # auto_verify asserts correctness; spot-check the new match.
        assert (4, 2, 4, 2) in m.view("v").contents

    def test_offset_links_in_both_directions(self, catalog):
        """x = y + c links honoured regardless of which side is bound."""
        from repro.algebra.relation import Relation

        for text in ("X = A + 2", "A = X + 2"):
            expr = (
                BaseRef("r")
                .product(BaseRef("t"))
                .select(text)
                .project(["A", "X"])
            )
            nf = to_normal_form(expr, catalog)
            instances = {
                "r": Relation.from_rows(catalog["r"], [(1, 0), (3, 0)]),
                "t": Relation.from_rows(catalog["t"], [(3, 0), (5, 0)]),
            }
            assert evaluate_normal_form(nf, instances) == evaluate(
                expr, instances
            ), text
