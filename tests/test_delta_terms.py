"""The join delta telescopes: one term per changed occurrence.

The planner evaluates the delta of ``R1 ⋈ … ⋈ Rp`` as

    Σ_i N1 ⋈ … ⋈ N(i−1) ⋈ ΔRi ⋈ O(i+1) ⋈ … ⋈ Op

— each changed occurrence's delta, the stored post-commit operands
``N`` left of it and the pre-commit operands ``O`` right of it — where
Section 5.3 evaluates the 2^k − 1 rows of its truth table.  ``O`` is the
state before the commit: the stored rows less this commit's inserts,
plus its deletes.  The paper's OLD (``r − d_r``, the rows present both
before and after) is not enough: with a row deleted from each of ``r``
and ``s``, ``r ⋈ s`` would keep their pair.  Here:

* k = 2 commits that need the pre-commit read, maintained by the kernels
  and checked against SQL on ``sqlite3`` (``verify_all``): one deleted
  row on each side of ``r join s``; inserts and deletes on both sides
  in one commit; a self-join changed at both occurrences, over a base
  relation and over a stacked view (a bag);
* a property: the terms (``tests.reference.compute_view_delta``) and
  the paper's table (``truth_table_delta``, its tagged operators) net
  to the same view delta on every k ≥ 2 commit, over the simulator's
  SPJ views and over natural joins;
* the maintainer agrees with SQL after every commit on natural joins.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import BaseRef, Database, ViewMaintainer
from repro.algebra.expressions import to_normal_form
from tests.reference import changed_positions_for, compute_view_delta, truth_table_delta
from tests.strategies import SPJ_TABLES, natural_joins, spj_expressions, update_streams

EXAMPLES = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _maintained(db: Database, views: dict) -> ViewMaintainer:
    maintainer = ViewMaintainer(db)
    for name, expression in views.items():
        maintainer.define_view(name, expression)
    return maintainer


def _joined() -> tuple[Database, ViewMaintainer]:
    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 10), (2, 20), (3, 30)])
    db.create_relation("s", ["B", "C"], [(10, 100), (20, 200), (30, 300)])
    return db, _maintained(db, {"v": BaseRef("r").join(BaseRef("s"))})


def _path(relation: str):
    """Two-hop paths by their ends, counted."""
    return (
        BaseRef(relation)
        .rename({"S": "X0", "T": "X1"})
        .join(BaseRef(relation).rename({"S": "X1", "T": "X2"}))
        .project(["X0", "X2"])
    )


class TestPreCommitOperands:
    def test_one_delete_on_each_side_removes_their_pair(self):
        db, maintainer = _joined()
        db.apply(deletes={"r": [(1, 10)], "s": [(10, 100)]})
        assert maintainer.view("v").contents.counts() == {(2, 20, 200): 1, (3, 30, 300): 1}
        maintainer.verify_all()

    def test_inserts_and_deletes_on_both_sides_in_one_commit(self):
        db, maintainer = _joined()
        db.apply(
            inserts={"r": [(4, 20), (5, 40)], "s": [(40, 400), (20, 201)]},
            deletes={"r": [(2, 20)], "s": [(30, 300)]},
        )
        assert maintainer.view("v").contents.counts() == {
            (1, 10, 100): 1,
            (4, 20, 200): 1,
            (4, 20, 201): 1,
            (5, 40, 400): 1,
        }
        maintainer.verify_all()

    def test_a_self_join_changed_at_both_occurrences(self):
        for views in (
            {"v": _path("e")},
            {"hop": BaseRef("e").select("S >= 0"), "v": _path("hop")},
        ):
            db = Database()
            db.create_relation("e", ["S", "T"], [(0, 1), (1, 2), (2, 3), (0, 5), (5, 2)])
            maintainer = _maintained(db, views)
            assert maintainer.view("v").contents.counts() == {(0, 2): 2, (1, 3): 1, (5, 3): 1}
            db.apply(inserts={"e": [(3, 4), (1, 6)]}, deletes={"e": [(1, 2), (5, 2)]})
            assert maintainer.view("v").contents.counts() == {(0, 6): 1, (2, 4): 1}
            maintainer.verify_all()


def _database(initial) -> Database:
    db = Database()
    for name, attributes in SPJ_TABLES.items():
        db.create_relation(name, list(attributes), initial[name])
    return db


def _replay(db: Database, transactions) -> None:
    for ops in transactions:
        with db.transact() as txn:
            for kind, name, row in ops:
                (txn.insert if kind == "ins" else txn.delete)(name, row)


@EXAMPLES
@given(st.one_of(spj_expressions(), natural_joins()), update_streams())
def test_the_terms_and_the_table_net_to_the_same_view_delta(expression, stream):
    initial, transactions = stream
    db = _database(initial)
    nf = to_normal_form(expression, db.schema_catalog())

    def check(txn_id, deltas):
        touched = {name: deltas[name] for name in set(nf.relation_names) & deltas.keys()}
        if len(changed_positions_for(nf, touched)) >= 2:
            terms = compute_view_delta(nf, db.instances(), touched)
            assert terms == truth_table_delta(nf, db.instances(), touched)

    db.add_commit_hook(check)
    _replay(db, transactions)


@EXAMPLES
@given(natural_joins(), update_streams())
def test_maintained_natural_joins_agree_with_sql(expression, stream):
    initial, transactions = stream
    db = _database(initial)
    maintainer = _maintained(db, {"v": expression})
    for ops in transactions:
        _replay(db, [ops])
        maintainer.verify_all()
