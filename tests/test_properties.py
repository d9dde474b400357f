"""Property-based tests of the DESIGN.md master invariants.

Hypothesis drives random schemas, conditions, database states and
transactions through the full pipeline, checking:

* maintenance correctness — differential == full re-evaluation,
  counts included, for arbitrary SPJ views and update streams;
* reference parity — the maintainer's kernels equal the per-tuple
  reference functions (``tests/reference.py``) after every commit;
* Theorem 4.1 on deltas — screening a transaction's deltas with
  ``filter_delta`` never changes the ``compute_view_delta`` result;
* filter soundness — irrelevant-reported tuples never change the view;
* filter completeness — relevant-reported tuples have a constructed
  witness database where they do;
* net effect — transactions reduce to disjoint (i, d) pairs whose
  application equals replay;
* tag algebra — mixed transactions through joins equal set algebra.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import BaseRef, to_normal_form
from repro.algebra.relation import Relation
from repro.algebra.schema import RelationSchema
from repro.core.consistency import check_view_consistency
from repro.core.irrelevance import (
    construct_witness_database,
    is_irrelevant_update,
)
from repro.core.maintainer import ViewMaintainer
from repro.engine.database import Database
from tests.reference import (
    ReferenceViews,
    compute_view_delta,
    evaluate,
    evaluate_normal_form,
    filter_delta,
    truth_table_delta,
)

# ----------------------------------------------------------------------
# Strategies for whole maintenance scenarios
# ----------------------------------------------------------------------

CATALOG = {
    "r": RelationSchema(["A", "B"]),
    "s": RelationSchema(["B", "C"]),
}

values = st.integers(min_value=0, max_value=5)
r_rows = st.lists(st.tuples(values, values), max_size=10, unique=True)
s_rows = st.lists(st.tuples(values, values), max_size=10, unique=True)

#: A pool of view shapes covering select / project / join / SPJ / DNF.
VIEW_EXPRESSIONS = [
    BaseRef("r"),
    BaseRef("r").select("A <= 3"),
    BaseRef("r").select("A = B"),
    BaseRef("r").project(["B"]),
    BaseRef("r").select("A < B + 2").project(["B"]),
    BaseRef("r").join(BaseRef("s")),
    BaseRef("r").join(BaseRef("s")).project(["A", "C"]),
    BaseRef("r").join(BaseRef("s")).select("A <= C").project(["C"]),
    BaseRef("r").join(BaseRef("s")).select("A < 2 or C > 3"),
    BaseRef("r").select("A < 1 or A > 4").project(["A"]),
    BaseRef("r").join(BaseRef("s")).select("C = A + 1"),
    BaseRef("r").join(BaseRef("s").rename({"C": "Z"})).select("Z >= B"),
]

view_indices = st.integers(min_value=0, max_value=len(VIEW_EXPRESSIONS) - 1)

#: One transaction: a list of (relation, op, row) statements.
statements = st.lists(
    st.tuples(
        st.sampled_from(["r", "s"]),
        st.sampled_from(["insert", "delete"]),
        st.tuples(values, values),
    ),
    min_size=1,
    max_size=8,
)
transactions = st.lists(statements, min_size=1, max_size=6)


def _build_db(r_init, s_init) -> Database:
    db = Database()
    db.create_relation("r", CATALOG["r"], r_init)
    db.create_relation("s", CATALOG["s"], s_init)
    return db


class TestMaintenanceCorrectness:
    """The master invariant: differential == full re-evaluation."""

    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(r_rows, s_rows, view_indices, transactions)
    def test_view_equals_recomputation(self, r_init, s_init, vi, txns):
        db = _build_db(r_init, s_init)
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("v", VIEW_EXPRESSIONS[vi])
        for statements_batch in txns:
            with db.transact() as txn:
                for name, op, row in statements_batch:
                    getattr(txn, op)(name, row)
            check_view_consistency(view, db.instances())

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(r_rows, s_rows, view_indices, transactions)
    def test_maintainer_equals_reference_functions(
        self, r_init, s_init, vi, txns
    ):
        """Compiled plans, generated kernels and index probes must give
        views byte-identical to the per-tuple reference functions."""
        db = _build_db(r_init, s_init)
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("v", VIEW_EXPRESSIONS[vi])
        reference = ReferenceViews(db, {"v": VIEW_EXPRESSIONS[vi]})
        for statements_batch in txns:
            with db.transact() as txn:
                for name, op, row in statements_batch:
                    getattr(txn, op)(name, row)
            assert view.contents == reference.view("v").contents

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(r_rows, s_rows, view_indices, transactions)
    def test_screened_deltas_give_the_unscreened_view_delta(
        self, r_init, s_init, vi, txns
    ):
        """Theorem 4.1 over whole deltas: dropping the tuples
        ``filter_delta`` reports irrelevant never changes the view
        delta — by the planner's terms or by the paper's table."""
        db = _build_db(r_init, s_init)
        nf = to_normal_form(VIEW_EXPRESSIONS[vi], CATALOG)

        def check(txn_id, deltas):
            touched = {
                name: deltas[name]
                for name in set(nf.relation_names) & deltas.keys()
            }
            screened = {
                name: filter_delta(nf, name, delta)[0]
                for name, delta in touched.items()
            }
            want = compute_view_delta(nf, db.instances(), touched)
            for evaluate_delta in (compute_view_delta, truth_table_delta):
                have = evaluate_delta(nf, db.instances(), screened)
                assert have == want, (evaluate_delta.__name__, have, want)

        db.add_commit_hook(check)
        for statements_batch in txns:
            with db.transact() as txn:
                for name, op, row in statements_batch:
                    getattr(txn, op)(name, row)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(r_rows, s_rows, view_indices, transactions)
    def test_deferred_refresh_matches(self, r_init, s_init, vi, txns):
        from repro.core.maintainer import MaintenancePolicy

        db = _build_db(r_init, s_init)
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view(
            "v", VIEW_EXPRESSIONS[vi], policy=MaintenancePolicy.DEFERRED
        )
        for statements_batch in txns:
            with db.transact() as txn:
                for name, op, row in statements_batch:
                    getattr(txn, op)(name, row)
        maintainer.refresh("v")
        check_view_consistency(view, db.instances())


class TestFilterSoundnessAndCompleteness:
    tuples_to_check = st.tuples(
        st.integers(min_value=-2, max_value=8),
        st.integers(min_value=-2, max_value=8),
    )

    @settings(max_examples=150, deadline=None)
    @given(r_rows, s_rows, view_indices, tuples_to_check)
    def test_soundness_irrelevant_updates_never_change_view(
        self, r_init, s_init, vi, tup
    ):
        """If the filter says irrelevant, inserting (and then deleting)
        the tuple must leave the view unchanged in this state too."""
        expr = VIEW_EXPRESSIONS[vi]
        nf = to_normal_form(expr, CATALOG)
        if not is_irrelevant_update(nf, "r", tup, CATALOG["r"]):
            return
        db = _build_db(r_init, s_init)
        before = evaluate(expr, db.instances()).copy()
        with db.transact() as txn:
            txn.insert("r", tup)
        assert evaluate(expr, db.instances()) == before
        with db.transact() as txn:
            txn.delete("r", tup)
        assert evaluate(expr, db.instances()) == before

    @settings(max_examples=150, deadline=None)
    @given(view_indices, tuples_to_check)
    def test_completeness_relevant_updates_have_witness(self, vi, tup):
        """If the filter says relevant, the Theorem 4.1 construction
        must produce a database where the update changes the view."""
        expr = VIEW_EXPRESSIONS[vi]
        nf = to_normal_form(expr, CATALOG)
        witness = construct_witness_database(nf, "r", tup, CATALOG)
        if is_irrelevant_update(nf, "r", tup, CATALOG["r"]):
            assert witness is None
            return
        assert witness is not None
        before = evaluate(expr, witness).copy()
        witness["r"].add(tup)
        after = evaluate(expr, witness)
        assert before != after


class TestNetEffectInvariant:
    @settings(max_examples=120, deadline=None)
    @given(r_rows, statements)
    def test_disjointness_and_replay(self, r_init, stmts):
        db = _build_db(r_init, [])
        replay = set(r_init)
        txn = db.begin()
        for name, op, row in stmts:
            if name != "r":
                continue
            getattr(txn, op)("r", row)
            if op == "insert":
                replay.add(row)
            else:
                replay.discard(row)
        deltas = txn.net_deltas()
        if "r" in deltas:
            delta = deltas["r"]
            live = set(db.relation("r").value_tuples())
            assert not (set(delta.inserted) & set(delta.deleted))
            assert not (set(delta.inserted) & live)
            assert set(delta.deleted) <= live
        txn.commit()
        assert set(db.relation("r").value_tuples()) == replay


class TestPipelinedEvaluatorAgreement:
    """Two independent evaluators (naive tree walk vs pipelined planner)
    must agree on arbitrary inputs."""

    @settings(max_examples=100, deadline=None)
    @given(r_rows, s_rows, view_indices)
    def test_agreement(self, r_init, s_init, vi):

        expr = VIEW_EXPRESSIONS[vi]
        nf = to_normal_form(expr, CATALOG)
        instances = {
            "r": Relation.from_rows(CATALOG["r"], r_init),
            "s": Relation.from_rows(CATALOG["s"], s_init),
        }
        assert evaluate_normal_form(nf, instances) == evaluate(expr, instances)
