"""Differential view-delta computation (Section 5): the select and
project cases on the maintainer, the join cases on the reference."""

import pytest

from repro.algebra.expressions import BaseRef, to_normal_form
from repro.algebra.relation import Delta, Relation
from repro.algebra.schema import RelationSchema
from repro.core.maintainer import ViewMaintainer
from repro.engine.database import Database
from repro.errors import MaintenanceError
from repro.instrumentation import CostRecorder, recording
from tests.reference import compute_view_delta, truth_table_delta


@pytest.fixture
def catalog():
    return {
        "r": RelationSchema(["A", "B"]),
        "s": RelationSchema(["B", "C"]),
    }


def _instances(catalog, r_rows, s_rows):
    return {
        "r": Relation.from_rows(catalog["r"], r_rows),
        "s": Relation.from_rows(catalog["s"], s_rows),
    }


def _one_commit(rows, expression, inserts, deletes):
    """One view over ``r(A, B)`` holding ``rows``, maintained through one
    commit: the view delta it applied (None if empty), the work
    recorded and the view."""
    db = Database()
    db.create_relation("r", ["A", "B"], rows)
    maintainer = ViewMaintainer(db)
    view = maintainer.define_view("v", expression)
    applied = []
    maintainer.subscribe("v", lambda _, delta: applied.append(delta))
    recorder = CostRecorder()
    with recording(recorder), db.transact() as txn:
        for row in inserts:
            txn.insert("r", row)
        for row in deletes:
            txn.delete("r", row)
    maintainer.verify_all()
    return (applied[0] if applied else None), recorder, view


class TestSelectViewDelta:
    """Section 5.1: v' = v ∪ σ_C(i_r) − σ_C(d_r)."""

    def test_filters_both_sides(self):
        delta, _, view = _one_commit(
            [(2, 7), (2, 70)],
            BaseRef("r").select("B < 10"),
            inserts=[(1, 5), (1, 50)],
            deletes=[(2, 7), (2, 70)],
        )
        assert delta.inserted == {(1, 5): 1}
        assert delta.deleted == {(2, 7): 1}
        assert view.contents.counts() == {(1, 5): 1}

    def test_needs_no_base_state(self):
        # The only tuples read are the delta's own: no operand of a
        # select view is OLD, exactly as the paper observes.
        delta, recorder, _ = _one_commit(
            [(a, a) for a in range(50)],
            BaseRef("r"),
            inserts=[(1, 5)],
            deletes=[(2, 2)],
        )
        assert delta.inserted == {(1, 5): 1}
        assert delta.deleted == {(2, 2): 1}
        assert recorder.get("tuples_scanned") == 2
        assert recorder.get("index_probes") == 0


class TestProjectViewDelta:
    """Section 5.2: the counted delta of V = π_X(R)."""

    def test_aggregates_counts(self):
        delta, _, view = _one_commit(
            [(3, 20)],
            BaseRef("r").project(["B"]),
            inserts=[(1, 10), (2, 10)],
            deletes=[(3, 20)],
        )
        assert delta.inserted == {(10,): 2}
        assert delta.deleted == {(20,): 1}
        assert view.contents.counts() == {(10,): 2}

    def test_cancellation_to_net_counts(self):
        # +2 and −1 on the same projected tuple nets to +1 on its counter.
        delta, _, view = _one_commit(
            [(3, 10)],
            BaseRef("r").project(["B"]),
            inserts=[(1, 10), (2, 10)],
            deletes=[(3, 10)],
        )
        assert delta.inserted == {(10,): 1}
        assert delta.deleted == {}
        assert view.contents.counts() == {(10,): 2}

    def test_exact_cancellation(self):
        delta, _, view = _one_commit(
            [(3, 10)],
            BaseRef("r").project(["B"]),
            inserts=[(1, 10)],
            deletes=[(3, 10)],
        )
        assert delta is None
        assert view.contents.counts() == {(10,): 1}


class TestComputeViewDelta:
    def test_join_insert_only(self, catalog):
        """Example 5.2: v' = v ∪ (i_r ⋈ s)."""
        expr = BaseRef("r").join(BaseRef("s"))
        nf = to_normal_form(expr, catalog)
        # Post-state: r already contains the inserted tuple.
        instances = _instances(
            catalog, [(1, 10), (9, 20)], [(10, 100), (20, 200)]
        )
        deltas = {"r": Delta(catalog["r"], inserted=[(9, 20)])}
        out = compute_view_delta(nf, instances, deltas)
        assert out.inserted == {(9, 20, 200): 1}
        assert out.deleted == {}

    def test_join_delete_only(self, catalog):
        """Example 5.3: v' = v − (d_r ⋈ s)."""
        expr = BaseRef("r").join(BaseRef("s"))
        nf = to_normal_form(expr, catalog)
        # Post-state: r no longer contains the deleted tuple.
        instances = _instances(catalog, [(1, 10)], [(10, 100), (20, 200)])
        deltas = {"r": Delta(catalog["r"], deleted=[(9, 20)])}
        out = compute_view_delta(nf, instances, deltas)
        assert out.deleted == {(9, 20, 200): 1}
        assert out.inserted == {}

    def test_mixed_insert_delete_both_relations(self, catalog):
        """Example 5.4's six cases, verified against set algebra."""
        expr = BaseRef("r").join(BaseRef("s"))
        nf = to_normal_form(expr, catalog)
        r_delta = Delta(catalog["r"], inserted=[(3, 30)], deleted=[(1, 10)])
        s_delta = Delta(catalog["s"], inserted=[(30, 3)], deleted=[(10, 1)])
        # Build post-state.
        r_after = [(2, 20), (3, 30)]
        s_after = [(20, 2), (30, 3)]
        instances = _instances(catalog, r_after, s_after)
        out = compute_view_delta(nf, instances, {"r": r_delta, "s": s_delta})
        # Old view: {(1,10,1), (2,20,2)}; new view: {(2,20,2), (3,30,3)}.
        assert out.inserted == {(3, 30, 3): 1}
        assert out.deleted == {(1, 10, 1): 1}

    def test_insert_joining_deleted_tuple_is_ignored(self, catalog):
        """i_r ⋈ d_s must not emerge (tag table row 2)."""
        expr = BaseRef("r").join(BaseRef("s"))
        nf = to_normal_form(expr, catalog)
        # Insert (1,10) into r while deleting (10,1) from s.
        instances = _instances(catalog, [(1, 10)], [])
        deltas = {
            "r": Delta(catalog["r"], inserted=[(1, 10)]),
            "s": Delta(catalog["s"], deleted=[(10, 1)]),
        }
        out = compute_view_delta(nf, instances, deltas)
        assert out.is_empty()

    def test_empty_deltas_give_empty_view_delta(self, catalog):
        nf = to_normal_form(BaseRef("r").join(BaseRef("s")), catalog)
        instances = _instances(catalog, [(1, 10)], [(10, 1)])
        out = compute_view_delta(nf, instances, {})
        assert out.is_empty()

    def test_missing_post_state_raises(self, catalog):
        nf = to_normal_form(BaseRef("r").join(BaseRef("s")), catalog)
        deltas = {"r": Delta(catalog["r"], inserted=[(1, 10)])}
        with pytest.raises(MaintenanceError):
            compute_view_delta(nf, {"r": Relation(catalog["r"])}, deltas)

    def test_spj_example_55(self, catalog):
        """Example 5.5: V = π_A(σ_{C>10}(r ⋈ s)), insertion into r."""
        expr = BaseRef("r").join(BaseRef("s")).select("C > 10").project(["A"])
        nf = to_normal_form(expr, catalog)
        instances = _instances(
            catalog, [(1, 10), (9, 20)], [(10, 5), (20, 50)]
        )
        deltas = {"r": Delta(catalog["r"], inserted=[(9, 20)])}
        out = compute_view_delta(nf, instances, deltas)
        # (9,20) joins (20,50): C = 50 > 10, projects to A = 9.
        assert out.inserted == {(9,): 1}

    def test_delta_on_unrelated_relation_ignored(self, catalog):
        nf = to_normal_form(BaseRef("r"), catalog)
        other_schema = RelationSchema(["Z"])
        instances = {"r": Relation.from_rows(catalog["r"], [(1, 2)])}
        deltas = {"other": Delta(other_schema, inserted=[(1,)])}
        out = compute_view_delta(nf, instances, deltas)
        assert out.is_empty()

    def test_sharing_flag_does_not_change_result(self, catalog):
        expr = BaseRef("r").join(BaseRef("s")).project(["A", "C"])
        nf = to_normal_form(expr, catalog)
        instances = _instances(
            catalog,
            [(i, i % 4) for i in range(8)],
            [(i % 4, i) for i in range(8)],
        )
        deltas = {
            "r": Delta(catalog["r"], inserted=[(100, 0)], deleted=[(1, 1)]),
            "s": Delta(catalog["s"], inserted=[(0, 200)]),
        }
        # Post-state must include the delta.
        instances["r"].add((100, 0))
        instances["r"].discard((1, 1))
        instances["s"].add((0, 200))
        # The memo flag went with the table's shared prefixes: the two
        # terms net to what the paper's three truth-table rows do.
        terms = compute_view_delta(nf, instances, deltas)
        table = truth_table_delta(nf, instances, deltas)
        assert terms == table
        assert not terms.is_empty()
