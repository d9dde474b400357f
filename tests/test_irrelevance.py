"""Unit and property tests for irrelevant-update detection (Section 4)."""

import random

import pytest

from repro.algebra.expressions import BaseRef, to_normal_form
from repro.algebra.relation import Delta, Relation
from repro.algebra.schema import RelationSchema
from repro.core.irrelevance import (
    RelevanceFilter,
    construct_witness_database,
    is_irrelevant_combination,
    is_irrelevant_update,
)
from repro.errors import MaintenanceError
from tests.reference import evaluate, filter_delta


@pytest.fixture
def catalog():
    return {
        "r": RelationSchema(["A", "B"]),
        "s": RelationSchema(["C", "D"]),
    }


@pytest.fixture
def nf_41(catalog):
    expr = (
        BaseRef("r")
        .product(BaseRef("s"))
        .select("A < 10 and C > 5 and B = C")
        .project(["A", "D"])
    )
    return to_normal_form(expr, catalog)


class TestTheorem41:
    def test_paper_relevant_insertion(self, nf_41, catalog):
        # Example 4.1: inserting (9, 10) into r is relevant.
        assert not is_irrelevant_update(nf_41, "r", (9, 10), catalog["r"])

    def test_paper_irrelevant_insertion(self, nf_41, catalog):
        # Example 4.1: inserting (11, 10) into r is (provably) irrelevant.
        assert is_irrelevant_update(nf_41, "r", (11, 10), catalog["r"])

    def test_irrelevant_by_join_attribute(self, nf_41, catalog):
        # B = 3 can never match C > 5 ... C = 3 contradicts C > 5.
        assert is_irrelevant_update(nf_41, "r", (1, 3), catalog["r"])

    def test_relevant_s_side(self, nf_41, catalog):
        assert not is_irrelevant_update(nf_41, "s", (7, 0), catalog["s"])

    def test_irrelevant_s_side(self, nf_41, catalog):
        # C = 5 fails C > 5.
        assert is_irrelevant_update(nf_41, "s", (5, 0), catalog["s"])

    def test_relation_not_in_view_is_irrelevant(self, nf_41):
        other = RelationSchema(["X"])
        assert is_irrelevant_update(nf_41, "elsewhere", (1,), other)

    def test_deletion_symmetry(self, nf_41, catalog):
        # Theorem 4.1 covers insert and delete with one condition: the
        # verdict for a tuple is operation-independent.
        for tup in ((9, 10), (11, 10), (1, 3)):
            verdict = is_irrelevant_update(nf_41, "r", tup, catalog["r"])
            assert verdict == is_irrelevant_update(nf_41, "r", tup, catalog["r"])

    def test_true_condition_everything_relevant(self, catalog):
        nf = to_normal_form(BaseRef("r"), catalog)
        assert not is_irrelevant_update(nf, "r", (1, 1), catalog["r"])

    def test_self_join_checks_every_occurrence(self, catalog):
        # v = σ_{A<0}(r) ⋈ ... with r occurring twice under different
        # conditions: a tuple relevant through either occurrence is
        # relevant.
        expr = (
            BaseRef("r")
            .select("A < 0")
            .project(["A"])
            .rename({"A": "X"})
            .product(BaseRef("r").select("A > 100").project(["B"]))
        )
        nf = to_normal_form(expr, catalog)
        # Relevant only through occurrence 2 (A > 100).
        assert not is_irrelevant_update(nf, "r", (200, 1), catalog["r"])
        # Relevant only through occurrence 1 (A < 0).
        assert not is_irrelevant_update(nf, "r", (-5, 1), catalog["r"])
        # Relevant through neither.
        assert is_irrelevant_update(nf, "r", (50, 1), catalog["r"])


class TestTheorem42:
    def test_jointly_irrelevant_combination(self, nf_41, catalog):
        # t_r = (9, 10) and t_s = (8, 1): individually relevant, but
        # together B = 10 ≠ 8 = C, so the combination cannot join.
        assert not is_irrelevant_update(nf_41, "r", (9, 10), catalog["r"])
        assert not is_irrelevant_update(nf_41, "s", (8, 1), catalog["s"])
        assert is_irrelevant_combination(
            nf_41, {"r": (9, 10), "s": (8, 1)}, catalog
        )

    def test_jointly_relevant_combination(self, nf_41, catalog):
        assert not is_irrelevant_combination(
            nf_41, {"r": (9, 10), "s": (10, 1)}, catalog
        )

    def test_single_tuple_degenerates_to_theorem_41(self, nf_41, catalog):
        assert is_irrelevant_combination(nf_41, {"r": (11, 10)}, catalog) == (
            is_irrelevant_update(nf_41, "r", (11, 10), catalog["r"])
        )

    def test_unknown_relation_rejected(self, nf_41, catalog):
        with pytest.raises(MaintenanceError):
            is_irrelevant_combination(nf_41, {"zzz": (1, 2)}, catalog)

    def test_self_join_rejected(self, catalog):
        expr = BaseRef("r").join(BaseRef("r").rename({"A": "A2", "B": "B2"}))
        nf = to_normal_form(expr, catalog)
        with pytest.raises(MaintenanceError):
            is_irrelevant_combination(nf, {"r": (1, 2)}, catalog)


class TestWitnessConstruction:
    """The constructive 'only if' direction of Theorem 4.1."""

    def test_witness_for_relevant_insertion(self, nf_41, catalog):
        witness = construct_witness_database(nf_41, "r", (9, 10), catalog)
        assert witness is not None
        expr = (
            BaseRef("r")
            .product(BaseRef("s"))
            .select("A < 10 and C > 5 and B = C")
            .project(["A", "D"])
        )
        before = evaluate(expr, witness)
        witness["r"].add((9, 10))
        after = evaluate(expr, witness)
        assert before != after  # the insertion visibly changed the view

    def test_no_witness_for_irrelevant_insertion(self, nf_41, catalog):
        assert construct_witness_database(nf_41, "r", (11, 10), catalog) is None

    def test_witness_covers_s_side(self, nf_41, catalog):
        witness = construct_witness_database(nf_41, "s", (7, 3), catalog)
        assert witness is not None
        expr = (
            BaseRef("r")
            .product(BaseRef("s"))
            .select("A < 10 and C > 5 and B = C")
            .project(["A", "D"])
        )
        before = evaluate(expr, witness)
        witness["s"].add((7, 3))
        after = evaluate(expr, witness)
        assert before != after


class TestRelevanceFilter:
    """Algorithm 4.1: the batched filter must agree with the direct
    Theorem 4.1 test on every tuple."""

    def test_agrees_with_direct_test_on_example(self, nf_41, catalog):
        screen = RelevanceFilter(nf_41, "r", catalog["r"])
        for tup in ((9, 10), (11, 10), (1, 3), (5, 10), (-3, 7), (9, 5)):
            assert screen.is_relevant(tup) == (
                not is_irrelevant_update(nf_41, "r", tup, catalog["r"])
            )

    def test_agrees_on_random_views_and_tuples(self, catalog):
        rng = random.Random(31)
        condition_pool = [
            "A < 10 and C > 5 and B = C",
            "A <= B and B = C and D >= A + 2",
            "A = 1 or B = C and C < 4",
            "B < C or B > C + 4",
            "A < 10 and A > 20",  # unsatisfiable view
            "true",
        ]
        for text in condition_pool:
            expr = (
                BaseRef("r").product(BaseRef("s")).select(text).project(["A", "D"])
            )
            nf = to_normal_form(expr, catalog)
            for relation_name in ("r", "s"):
                schema = catalog[relation_name]
                screen = RelevanceFilter(nf, relation_name, schema)
                for _ in range(40):
                    tup = (rng.randint(-2, 12), rng.randint(-2, 12))
                    assert screen.is_relevant(tup) == (
                        not is_irrelevant_update(nf, relation_name, tup, schema)
                    ), (text, relation_name, tup)

    def test_stats_counting(self, nf_41, catalog):
        screen = RelevanceFilter(nf_41, "r", catalog["r"])
        screen.is_relevant((9, 10))
        screen.is_relevant((11, 10))
        assert screen.stats.checked == 2
        assert screen.stats.relevant == 1
        assert screen.stats.irrelevant == 1

    def test_filter_tuples(self, nf_41, catalog):
        screen = RelevanceFilter(nf_41, "r", catalog["r"])
        out = screen.filter_tuples([(9, 10), (11, 10), (1, 3)])
        assert out == [(9, 10)]

    def test_unsatisfiable_variant_condition_screens_everything(self, catalog):
        # A < 0 ∧ A > 0 is variant w.r.t. r-updates: the screen stays
        # alive but rejects every tuple at substitution time.
        expr = BaseRef("r").select("A < 0 and A > 0")
        nf = to_normal_form(expr, catalog)
        screen = RelevanceFilter(nf, "r", catalog["r"])
        for tup in ((0, 0), (-1, 5), (1, 5)):
            assert not screen.is_relevant(tup)

    def test_unsatisfiable_invariant_condition_kills_screen(self, catalog):
        # C < 0 ∧ C > 0 is invariant w.r.t. r-updates: Algorithm 4.1
        # detects the dead disjunct once, at construction.
        expr = (
            BaseRef("r")
            .product(BaseRef("s"))
            .select("C < 0 and C > 0 and A = C")
            .project(["A"])
        )
        nf = to_normal_form(expr, catalog)
        screen = RelevanceFilter(nf, "r", catalog["r"])
        assert screen._screens == []
        assert not screen.is_relevant((0, 0))


class TestFilterDelta:
    def test_filters_both_sides(self, nf_41, catalog):
        delta = Delta(
            catalog["r"],
            inserted=[(9, 10), (11, 10)],
            deleted=[(5, 10), (12, 15)],
        )
        filtered, stats = filter_delta(nf_41, "r", delta)
        assert set(filtered.inserted) == {(9, 10)}
        assert set(filtered.deleted) == {(5, 10)}
        assert stats.checked == 4
        assert stats.irrelevant == 2

    def test_empty_delta(self, nf_41, catalog):
        filtered, stats = filter_delta(nf_41, "r", Delta(catalog["r"]))
        assert filtered.is_empty()
        assert stats.checked == 0
