"""Every worked example in the paper, reproduced verbatim.

Each test class corresponds to one example; assertions follow the
paper's stated outcomes line by line.
"""

import pytest

from repro.algebra.evaluate import evaluate
from repro.algebra.expressions import BaseRef, to_normal_form
from repro.algebra.relation import Delta, Relation
from repro.algebra.schema import RelationSchema
from repro.core.differential import compute_view_delta
from repro.core.irrelevance import is_irrelevant_update
from repro.core.maintainer import ViewMaintainer
from repro.core.truthtable import enumerate_delta_rows, render_row
from repro.engine.database import Database
from repro.workloads.scenarios import example_4_1


class TestExample41:
    """Section 4, Example 4.1: relevant and irrelevant insertions."""

    @pytest.fixture
    def scenario(self):
        return example_4_1()

    @pytest.fixture
    def nf(self, scenario):
        return to_normal_form(
            scenario.expression, scenario.database.schema_catalog()
        )

    def test_printed_view_state(self, scenario):
        # The paper prints u = {(5, 20)}: (5,10) joins (10,20) and
        # satisfies A<10 ∧ C>5 ∧ B=C; (1,2) fails C>5 through its only
        # B=C partner (2,10), and (12,15) fails A<10.
        view = evaluate(scenario.expression, scenario.database.instances())
        assert view.counts() == {(5, 20): 1}

    def test_insert_9_10_is_relevant(self, scenario, nf):
        schema = scenario.database.relation("r").schema
        assert not is_irrelevant_update(nf, "r", (9, 10), schema)

    def test_insert_11_10_is_irrelevant(self, scenario, nf):
        schema = scenario.database.relation("r").schema
        assert is_irrelevant_update(nf, "r", (11, 10), schema)

    def test_relevance_is_state_independent(self, scenario, nf):
        """The paper stresses the verdict holds for *every* database
        state: emptying the database must not change it."""
        schema = scenario.database.relation("r").schema
        with scenario.database.transact() as txn:
            for row in list(scenario.database.relation("s").value_tuples()):
                txn.delete("s", row)
        assert is_irrelevant_update(nf, "r", (11, 10), schema)
        assert not is_irrelevant_update(nf, "r", (9, 10), schema)

    def test_relevant_tuple_may_still_not_change_view(self, scenario):
        """The paper: "there may be some state of s that contains no
        matching tuple (10, δ), in which case the tuple (9,10) will
        have no effect on the view" — relevance is about possibility."""
        db = scenario.database
        with db.transact() as txn:
            txn.delete("s", (10, 20))  # remove the only C=10 tuple
        maintainer = ViewMaintainer(db, auto_verify=True)
        view = maintainer.define_view("u", scenario.expression)
        before = view.contents.copy()
        with db.transact() as txn:
            txn.insert("r", (9, 10))
        assert view.contents == before  # relevant, yet no effect here
        assert maintainer.stats("u")["tuples_irrelevant"] == 0


class TestExample51:
    """Section 5.2, Example 5.1: the projection deletion anomaly."""

    @pytest.fixture
    def db(self):
        database = Database()
        database.create_relation(
            "r", ["A", "B"], [(1, 10), (2, 10), (3, 20)]
        )
        return database

    def test_easy_delete(self, db):
        m = ViewMaintainer(db, auto_verify=True)
        view = m.define_view("v", BaseRef("r").project(["B"]))
        with db.transact() as txn:
            txn.delete("r", (3, 20))
        assert sorted(view.contents.value_tuples()) == [(10,)]

    def test_anomalous_delete_handled_by_counter(self, db):
        m = ViewMaintainer(db, auto_verify=True)
        view = m.define_view("v", BaseRef("r").project(["B"]))
        with db.transact() as txn:
            txn.delete("r", (1, 10))
        # (10,) must survive — (2, 10) still supports it.
        assert view.contents.count_of((10,)) == 1
        assert view.contents.count_of((20,)) == 1


class TestExample52:
    """Section 5.3, Example 5.2: insert-only join maintenance
    v' = v ∪ (i_r ⋈ s)."""

    def test_differential_equals_full(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 10), (2, 20)])
        db.create_relation("s", ["B", "C"], [(10, 5), (20, 6), (30, 7)])
        m = ViewMaintainer(db, auto_verify=True)
        view = m.define_view("v", BaseRef("r").join(BaseRef("s")))
        with db.transact() as txn:
            txn.insert("r", (3, 30))
            txn.insert("r", (4, 10))
        assert view.contents.counts() == {
            (1, 10, 5): 1,
            (2, 20, 6): 1,
            (3, 30, 7): 1,
            (4, 10, 5): 1,
        }


class TestSection53TruthTable:
    """The p = 3 truth table and its row selection."""

    def test_paper_row_selection(self):
        """Paper: "suppose that a transaction contains insertions to
        relations r1 and r2 only ... we need to compute only the joins
        represented by rows 3, 5, and 7"."""
        rows = list(enumerate_delta_rows(3, [0, 1]))
        rendered = [render_row(row, ["r1", "r2", "r3"]) for row in rows]
        assert rendered == [
            "r1 ⋈ i_r2 ⋈ r3",
            "i_r1 ⋈ r2 ⋈ r3",
            "i_r1 ⋈ i_r2 ⋈ r3",
        ]

    def test_union_of_rows_equals_full_delta(self):
        """v' = v ∪ (r1 ⋈ i2 ⋈ r3) ∪ (i1 ⋈ r2 ⋈ r3) ∪ (i1 ⋈ i2 ⋈ r3)."""
        db = Database()
        db.create_relation("r1", ["A", "B"], [(1, 1), (2, 2)])
        db.create_relation("r2", ["B", "C"], [(1, 1), (2, 2)])
        db.create_relation("r3", ["C", "D"], [(1, 1), (2, 2)])
        expr = BaseRef("r1").join(BaseRef("r2")).join(BaseRef("r3"))
        m = ViewMaintainer(db, auto_verify=True)
        view = m.define_view("v", expr)
        with db.transact() as txn:
            txn.insert("r1", (9, 2))
            txn.insert("r2", (2, 1))  # i1 ⋈ i2 combos matter
        # auto_verify already compared against recomputation; check the
        # specific new tuples too.
        counts = view.contents.counts()
        assert counts[(9, 2, 2, 2)] == 1  # i1 ⋈ r2 ⋈ r3
        assert counts[(9, 2, 1, 1)] == 1  # i1 ⋈ i2 ⋈ r3
        assert counts[(2, 2, 1, 1)] == 1  # r1 ⋈ i2 ⋈ r3


class TestExample53:
    """Section 5.3, Example 5.3: delete-only join maintenance
    v' = v − (d_r ⋈ s)."""

    def test_differential_delete(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 10), (2, 20)])
        db.create_relation("s", ["B", "C"], [(10, 5), (20, 6)])
        m = ViewMaintainer(db, auto_verify=True)
        view = m.define_view("v", BaseRef("r").join(BaseRef("s")))
        with db.transact() as txn:
            txn.delete("r", (1, 10))
        assert view.contents.counts() == {(2, 20, 6): 1}


class TestExample54:
    """Section 5.3, Example 5.4: the six tagged cases of r ⋈ s under a
    transaction updating both relations."""

    def _setup(self):
        catalog = {
            "r": RelationSchema(["A", "B"]),
            "s": RelationSchema(["B", "C"]),
        }
        nf = to_normal_form(BaseRef("r").join(BaseRef("s")), catalog)
        return catalog, nf

    def test_case_1_insert_join_insert(self):
        catalog, nf = self._setup()
        instances = {
            "r": Relation.from_rows(catalog["r"], [(1, 10)]),
            "s": Relation.from_rows(catalog["s"], [(10, 5)]),
        }
        deltas = {
            "r": Delta(catalog["r"], inserted=[(1, 10)]),
            "s": Delta(catalog["s"], inserted=[(10, 5)]),
        }
        out = compute_view_delta(nf, instances, deltas)
        assert out.inserted == {(1, 10, 5): 1}  # "has to be inserted"

    def test_case_2_insert_join_delete_ignored(self):
        catalog, nf = self._setup()
        instances = {
            "r": Relation.from_rows(catalog["r"], [(1, 10)]),
            "s": Relation(catalog["s"]),
        }
        deltas = {
            "r": Delta(catalog["r"], inserted=[(1, 10)]),
            "s": Delta(catalog["s"], deleted=[(10, 5)]),
        }
        out = compute_view_delta(nf, instances, deltas)
        assert out.is_empty()  # "has no effect in the view"

    def test_case_3_insert_join_old(self):
        catalog, nf = self._setup()
        instances = {
            "r": Relation.from_rows(catalog["r"], [(1, 10)]),
            "s": Relation.from_rows(catalog["s"], [(10, 5)]),
        }
        deltas = {"r": Delta(catalog["r"], inserted=[(1, 10)])}
        out = compute_view_delta(nf, instances, deltas)
        assert out.inserted == {(1, 10, 5): 1}

    def test_case_4_delete_join_delete(self):
        catalog, nf = self._setup()
        instances = {
            "r": Relation(catalog["r"]),
            "s": Relation(catalog["s"]),
        }
        deltas = {
            "r": Delta(catalog["r"], deleted=[(1, 10)]),
            "s": Delta(catalog["s"], deleted=[(10, 5)]),
        }
        out = compute_view_delta(nf, instances, deltas)
        assert out.deleted == {(1, 10, 5): 1}  # "has to be deleted"

    def test_case_5_delete_join_old(self):
        catalog, nf = self._setup()
        instances = {
            "r": Relation(catalog["r"]),
            "s": Relation.from_rows(catalog["s"], [(10, 5)]),
        }
        deltas = {"r": Delta(catalog["r"], deleted=[(1, 10)])}
        out = compute_view_delta(nf, instances, deltas)
        assert out.deleted == {(1, 10, 5): 1}

    def test_case_6_old_join_old_untouched(self):
        catalog, nf = self._setup()
        # A transaction touching r with an unrelated tuple leaves the
        # old ⋈ old combinations alone (they are already in the view).
        instances = {
            "r": Relation.from_rows(catalog["r"], [(1, 10), (9, 99)]),
            "s": Relation.from_rows(catalog["s"], [(10, 5)]),
        }
        deltas = {"r": Delta(catalog["r"], inserted=[(9, 99)])}
        out = compute_view_delta(nf, instances, deltas)
        assert out.is_empty()


class TestExample55:
    """Section 5.4, Example 5.5: SPJ differential update
    v' = v ∪ π_A(σ_{C>10}(i_r ⋈ s))."""

    def test_end_to_end(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 10)])
        db.create_relation("s", ["B", "C"], [(10, 5), (20, 50)])
        expr = BaseRef("r").join(BaseRef("s")).select("C > 10").project(["A"])
        m = ViewMaintainer(db, auto_verify=True)
        view = m.define_view("v", expr)
        assert view.contents.counts() == {}
        with db.transact() as txn:
            txn.insert("r", (9, 20))
        assert view.contents.counts() == {(9,): 1}
