"""A view is materialized by its own compiled kernel.

``define_view`` evaluates a view as one row of the Section 5.3 truth
table: the row kernel of its largest operand's single-relation shape,
run with that operand's whole contents as the inserted delta, so its
OLD ``r − d_r`` is empty (``CompiledViewPlan.evaluate``).  Pinned here:

* **an oracle that shares no code with the kernels** — over the
  simulator's SPJ views, the row-order suite's chain, star, self-join
  and DNF views, random DNF conditions, a stacked view over a bag
  operand, COUNT/SUM/AVG/MIN/MAX aggregates, FK-reduced and
  counter-free plans under declared keys, an always-empty plan, an
  empty operand and a tie for the largest operand, the contents equal
  ``tests/reference.py``'s :func:`evaluate`, the naive tree walker
  (which ``test_sqlite_oracle.py`` holds to the SQL ground truth);
* **the lazy-index lifecycle holds exactly** — in every case no operand
  gains or loses an index, the plan binds none, and no DDL hook fires;
* **a failed materialization leaves no trace** — a row kernel that
  raises leaves the name free, no dependents or reach-list entry, no
  new index, and the same definition succeeds afterwards.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.compiled as compiled
from repro import BaseRef, Database, ViewMaintainer
from repro.errors import UnknownViewError
from tests.reference import evaluate
from tests.strategies import (
    SPJ_TABLES,
    aggregate_expressions,
    conditions,
    spj_database_rows,
    spj_expressions,
)
from tests.test_keys import fk_join_view, keyed_join_view
from tests.test_row_orders import RELATIONS, VIEWS, initial_rows

EXAMPLES = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _database(tables, rows) -> Database:
    db = Database()
    for name, attributes in tables.items():
        db.create_relation(name, list(attributes), rows.get(name, ()))
    return db


def define_checked(maintainer: ViewMaintainer, name, expression):
    """``define_view``, held to the naive evaluator and to the index
    lifecycle: every operand keeps exactly the indexes it had, the plan
    binds none, and no DDL hook fires."""
    db = maintainer.database
    before = {n: dict(r.indexes) for n, r in maintainer.instances().items()}
    fired = []

    def hook(event, relation_name):
        fired.append((event, relation_name))

    db.add_ddl_hook(hook)
    try:
        view = maintainer.define_view(name, expression)
    finally:
        db.remove_ddl_hook(hook)
    instances = maintainer.instances()
    assert view.contents.counts() == evaluate(expression, instances).counts()
    assert {n: dict(instances[n].indexes) for n in before} == before
    assert maintainer.compiled_plan(name).index_bindings() == {}
    assert fired == []
    return view


class TestAgainstTheNaiveEvaluator:
    @EXAMPLES
    @given(
        st.lists(spj_expressions(), min_size=1, max_size=4),
        st.integers(0, 2**31 - 1),
        st.sampled_from([None, *SPJ_TABLES]),
    )
    def test_spj_views(self, expressions, seed, emptied):
        rows = spj_database_rows(random.Random(seed), rows_per_table=12)
        if emptied is not None:
            rows[emptied] = []
        maintainer = ViewMaintainer(_database(SPJ_TABLES, rows))
        for number, expression in enumerate(expressions):
            define_checked(maintainer, f"v{number}", expression)

    @EXAMPLES
    @given(initial_rows, initial_rows, initial_rows)
    def test_chain_star_self_join_and_dnf(self, a_rows, b_rows, c_rows):
        rows = dict(zip(RELATIONS, (a_rows, b_rows, c_rows)))
        maintainer = ViewMaintainer(_database(RELATIONS, rows))
        for name, expression in VIEWS.items():
            define_checked(maintainer, name, expression)
        # The self-join again, projected past every key: its counters
        # count the joined pairs, so an OLD that read the live relation
        # instead of the empty r − d_r would show in them.
        view = define_checked(maintainer, "pairs", VIEWS["self"].project(["A", "B2"]))
        assert not maintainer.peek_plan("pairs").counter_free
        assert view.contents.total_count() == len(maintainer.view("self"))

    @EXAMPLES
    @given(conditions(), st.integers(0, 2**31 - 1))
    def test_dnf_conditions(self, condition, seed):
        rng = random.Random(seed)
        tables = {"r": ("x", "y"), "s": ("z", "w")}
        rows = {
            name: sorted({(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(10)})
            for name in tables
        }
        maintainer = ViewMaintainer(_database(tables, rows))
        define_checked(
            maintainer, "v", BaseRef("r").product(BaseRef("s")).select(condition)
        )

    @EXAMPLES
    @given(
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3)), unique=True, max_size=12),
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3)), unique=True, max_size=12),
    )
    def test_stacked_view_over_a_bag_operand(self, r_rows, t_rows):
        """``p`` drops r's key, so its tuples carry counters ≥ 2; as the
        largest operand of ``st`` it is the inserted delta, otherwise it
        is probed as a bag."""
        maintainer = ViewMaintainer(
            _database({"r": ("A", "B"), "t": ("D", "E")}, {"r": r_rows, "t": t_rows})
        )
        define_checked(maintainer, "p", BaseRef("r").project(["B"]))
        define_checked(
            maintainer, "st", BaseRef("t").product(BaseRef("p")).select("E = B")
        )

    @EXAMPLES
    @given(aggregate_expressions(), st.integers(0, 2**31 - 1))
    def test_aggregate_views(self, expression, seed):
        rows = spj_database_rows(random.Random(seed), rows_per_table=12)
        maintainer = ViewMaintainer(_database(SPJ_TABLES, rows))
        define_checked(maintainer, "agg", expression)

    @EXAMPLES
    @given(
        st.dictionaries(st.integers(0, 6), st.integers(0, 9), min_size=1),
        st.lists(st.integers(0, 99), unique=True, max_size=10),
    )
    def test_fk_reduced_and_counter_free_plans(self, parents, children):
        db = Database()
        db.create_relation("p", ["B", "C"], sorted(parents.items()))
        keys = sorted(parents)
        db.create_relation("r", ["A", "B"], [(a, keys[a % len(keys)]) for a in children])
        db.declare_key("p", ["B"])
        db.declare_foreign_key("r", ["B"], "p", ["B"])
        maintainer = ViewMaintainer(db)
        define_checked(maintainer, "fk", fk_join_view())
        define_checked(maintainer, "keyed", keyed_join_view())
        assert maintainer.peek_plan("fk").reduction is not None
        assert maintainer.peek_plan("keyed").counter_free


class TestEdgeCases:
    def _maintainer(self, r_rows, s_rows):
        return ViewMaintainer(
            _database({"r": ("A", "B"), "s": ("B", "C")}, {"r": r_rows, "s": s_rows})
        )

    def test_always_empty_plan(self):
        maintainer = self._maintainer([(1, 1), (2, 2)], [(1, 5)])
        view = define_checked(
            maintainer, "v", BaseRef("r").join(BaseRef("s")).select("A = 1 and 1 = 2")
        )
        assert len(view) == 0

    def test_an_empty_operand_compiles_nothing(self):
        maintainer = self._maintainer([(1, 1), (2, 2)], [])
        view = define_checked(maintainer, "v", BaseRef("r").join(BaseRef("s")))
        assert len(view) == 0
        # The plan itself, and no shape.
        assert maintainer.totals.get("codegen_plans_compiled") == 1

    def test_a_tie_goes_to_the_first_occurrence(self):
        maintainer = self._maintainer([(1, 1), (2, 2)], [(1, 5), (2, 6)])
        define_checked(maintainer, "v", BaseRef("r").join(BaseRef("s")))
        compiled_after_definition = maintainer.totals.get("codegen_plans_compiled")
        assert compiled_after_definition == 2
        db = maintainer.database
        # r's shape was compiled to materialize the view; s's was not.
        db.apply(inserts={"r": [(3, 1)]})
        assert maintainer.totals.get("codegen_plans_compiled") == 2
        db.apply(inserts={"s": [(3, 7)]})
        assert maintainer.totals.get("codegen_plans_compiled") == 3
        maintainer.verify_all()


class TestFailedMaterialization:
    def test_a_raising_row_kernel_leaves_no_trace(self, monkeypatch):
        db = _database(
            {"r": ("A", "B"), "s": ("B", "C")},
            {"r": [(a, a % 3) for a in range(6)], "s": [(b, 10 * b) for b in range(3)]},
        )
        maintainer = ViewMaintainer(db)
        maintainer.define_view("base", BaseRef("s").project(["B"]))
        expression = BaseRef("r").join(BaseRef("base")).join(BaseRef("s"))
        indexes = {n: dict(r.indexes) for n, r in maintainer.instances().items()}
        dependents = {n: list(e) for n, e in maintainer._dependents.items()}
        reach = {n: list(e) for n, e in maintainer._reach.items()}
        real = compiled.compile_shape_kernels

        def raising(ops, view_name):
            real(ops, view_name)

            def row_kernel(deltas, old, index_for):
                raise RuntimeError("kernel fault")

            return row_kernel

        monkeypatch.setattr(compiled, "compile_shape_kernels", raising)
        with pytest.raises(RuntimeError, match="kernel fault"):
            maintainer.define_view("v", expression)
        monkeypatch.undo()

        assert maintainer.view_names() == ("base",)
        with pytest.raises(UnknownViewError):
            maintainer.view("v")
        assert {n: list(e) for n, e in maintainer._dependents.items()} == dependents
        assert {n: list(e) for n, e in maintainer._reach.items()} == reach
        assert all(
            entry.view.definition.name == "base"
            for name in ("r", "s", "base")
            for entry in maintainer._reach_of(name)
        )
        assert {n: dict(r.indexes) for n, r in maintainer.instances().items()} == indexes

        view = maintainer.define_view("v", expression)
        assert len(view) == 6
        db.apply(inserts={"r": [(6, 1)]}, deletes={"s": [(2, 20)]})
        maintainer.verify_all()
