"""Property tests over randomly generated SPJ expression trees.

A recursive hypothesis strategy builds arbitrary well-formed SPJ trees
(selects with random paper-class conditions, projections of random
attribute subsets, natural joins, renames) over a fixed two-relation
catalog, then checks the big structural invariants:

* the pipelined normal-form evaluator agrees with the naive tree
  walker on random instances;
* selection pushdown preserves counted semantics;
* differential maintenance of the generated view matches full
  re-evaluation across random transactions.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.conditions import Atom, Condition
from repro.algebra.expressions import (
    BaseRef,
    Expression,
    to_normal_form,
)
from repro.algebra.relation import Relation
from repro.algebra.rewrites import push_selections
from repro.algebra.schema import RelationSchema
from repro.core.consistency import check_view_consistency
from repro.core.maintainer import ViewMaintainer
from repro.engine.database import Database
from tests.reference import evaluate

CATALOG = {
    "r": RelationSchema(["A", "B"]),
    "s": RelationSchema(["B", "C"]),
}

values = st.integers(min_value=0, max_value=4)
row_lists = st.lists(st.tuples(values, values), max_size=8, unique=True)


@st.composite
def _conditions_over(draw, names: tuple[str, ...]) -> Condition:
    """A small condition whose variables come from ``names``."""
    atom_count = draw(st.integers(min_value=1, max_value=3))
    atoms = []
    for _ in range(atom_count):
        op = draw(st.sampled_from(["=", "<", ">", "<=", ">="]))
        left = draw(st.sampled_from(names))
        if draw(st.booleans()):
            atoms.append(
                Atom(left, op, draw(st.sampled_from(names)),
                     draw(st.integers(min_value=-2, max_value=2)))
            )
        else:
            atoms.append(Atom(left, op, draw(st.integers(min_value=0, max_value=5))))
    if draw(st.booleans()) or atom_count == 1:
        return Condition.of_atoms(atoms)
    # Split the atoms into two disjuncts for a DNF condition.
    return Condition.of_atoms(atoms[:1]).disjoin(Condition.of_atoms(atoms[1:]))


@st.composite
def spj_trees(draw, depth: int = 3) -> Expression:
    """A random well-formed SPJ expression over the fixed catalog."""
    if depth == 0:
        return BaseRef(draw(st.sampled_from(["r", "s"])))
    kind = draw(
        st.sampled_from(["base", "select", "project", "join", "rename"])
    )
    if kind == "base":
        return BaseRef(draw(st.sampled_from(["r", "s"])))
    child = draw(spj_trees(depth=depth - 1))
    schema = child.schema(CATALOG)
    if kind == "select":
        condition = draw(_conditions_over(schema.names))
        return child.select(condition)
    if kind == "project":
        keep = draw(
            st.lists(
                st.sampled_from(schema.names),
                min_size=1,
                max_size=len(schema.names),
                unique=True,
            )
        )
        return child.project(keep)
    if kind == "rename":
        target = draw(st.sampled_from(schema.names))
        fresh = draw(st.sampled_from(["X", "Y", "Z"]))
        if fresh in schema.names:
            return child
        return child.rename({target: fresh})
    # join: pick a random other subtree; natural join is always valid.
    other = draw(spj_trees(depth=depth - 1))
    return child.join(other)


def _instances(r_rows, s_rows):
    return {
        "r": Relation.from_rows(CATALOG["r"], r_rows),
        "s": Relation.from_rows(CATALOG["s"], s_rows),
    }


class TestEvaluatorAgreement:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spj_trees(), row_lists, row_lists)
    def test_pipelined_equals_naive(self, expr, r_rows, s_rows):
        from tests.reference import evaluate_normal_form

        instances = _instances(r_rows, s_rows)
        nf = to_normal_form(expr, CATALOG)
        assert evaluate_normal_form(nf, instances) == evaluate(expr, instances)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spj_trees(), row_lists, row_lists)
    def test_pushdown_preserves_semantics(self, expr, r_rows, s_rows):
        instances = _instances(r_rows, s_rows)
        pushed = push_selections(expr, CATALOG)
        assert evaluate(pushed, instances) == evaluate(expr, instances)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spj_trees(), row_lists, row_lists)
    def test_output_schema_is_stable(self, expr, r_rows, s_rows):
        instances = _instances(r_rows, s_rows)
        out = evaluate(expr, instances)
        assert out.schema.names == expr.schema(CATALOG).names


class TestMaintenanceOnRandomTrees:
    transactions = st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(["r", "s"]),
                st.sampled_from(["insert", "delete"]),
                st.tuples(values, values),
            ),
            min_size=1,
            max_size=5,
        ),
        min_size=1,
        max_size=4,
    )

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spj_trees(), row_lists, row_lists, transactions)
    def test_differential_matches_recomputation(
        self, expr, r_rows, s_rows, txns
    ):
        db = Database()
        db.create_relation("r", CATALOG["r"], r_rows)
        db.create_relation("s", CATALOG["s"], s_rows)
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("v", expr)
        for batch in txns:
            with db.transact() as txn:
                for name, op, row in batch:
                    getattr(txn, op)(name, row)
        check_view_consistency(view, db.instances())

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spj_trees(depth=2), row_lists, row_lists, transactions)
    def test_stacked_view_over_random_tree(self, expr, r_rows, s_rows, txns):
        """A random SPJ tree as the upstream view, with a generic
        stacked view over it, must track the database exactly."""
        from repro.algebra.expressions import BaseRef

        db = Database()
        db.create_relation("r", CATALOG["r"], r_rows)
        db.create_relation("s", CATALOG["s"], s_rows)
        maintainer = ViewMaintainer(db)
        upstream = maintainer.define_view("up", expr)
        first_attr = upstream.contents.schema.names[0]
        stacked = maintainer.define_view(
            "down", BaseRef("up").project([first_attr])
        )
        for batch in txns:
            with db.transact() as txn:
                for name, op, row in batch:
                    getattr(txn, op)(name, row)
        combined = maintainer.instances()
        check_view_consistency(upstream, combined)
        check_view_consistency(stacked, combined)
