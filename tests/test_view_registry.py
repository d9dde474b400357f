"""Tests for the maintainer's view registry and its dependents index.

A commit, a DDL event and ``drop_view`` reach the views that read the
changed name and nothing else: the work a commit does inside the
maintainer does not depend on how many unrelated views are registered,
stacked views are maintained once each in definition order, and views
and relations share one namespace in both directions.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.maintainer as maintainer_module
from repro.algebra.expressions import BaseRef
from repro.algebra.relation import Delta
from repro.core.maintainer import MaintenancePolicy, ViewMaintainer
from repro.engine.database import Database
from repro.errors import MaintenanceError, UnknownViewError


# ----------------------------------------------------------------------
# Catalog independence
# ----------------------------------------------------------------------
def maintainer_lines_per_50_commits(unrelated_views: int) -> int:
    """Line events inside ``core/maintainer.py`` over 50 one-row commits
    on ``r``, with ``unrelated_views`` views over other relations."""
    db = Database()
    db.create_relation("r", ["A", "B"])
    maintainer = ViewMaintainer(db)
    maintainer.define_view("low", BaseRef("r").select("A < 1000"))
    maintainer.define_view("lower", BaseRef("low").select("A < 500"))
    for i in range(unrelated_views // 4):
        db.create_relation(f"u{i}", ["X", "Y"])
        for j in range(4):
            maintainer.define_view(
                f"u{i}_{j}", BaseRef(f"u{i}").select(f"X < {j + 1}")
            )
    db.apply(inserts={"r": [(0, 0)]})  # row kernels compile on first use

    target = maintainer_module.__file__
    lines = 0

    def local_trace(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return local_trace

    def global_trace(frame, event, arg):
        return local_trace if frame.f_code.co_filename == target else None

    previous = sys.gettrace()
    sys.settrace(global_trace)
    try:
        for i in range(1, 51):
            db.apply(inserts={"r": [(i, i)]})
    finally:
        sys.settrace(previous)
    assert len(maintainer.view("lower").contents) == 51
    return lines


def test_commit_work_does_not_depend_on_unrelated_views():
    assert maintainer_lines_per_50_commits(400) == maintainer_lines_per_50_commits(0)


# ----------------------------------------------------------------------
# Propagation through a DAG of views
# ----------------------------------------------------------------------
DAG_ORDER = ("v1", "v2", "v3", "leaf", "other")

r_rows = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 3)), max_size=3, unique=True
)
s_rows = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 5)), max_size=3, unique=True
)
#: One transaction: rows to toggle (insert if absent, delete if
#: present) in r and in s — either list may be empty, and so may both.
transactions = st.lists(st.tuples(r_rows, s_rows), min_size=1, max_size=8)


def build_dag():
    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 1), (7, 2)])
    db.create_relation("s", ["B", "C"], [(1, 4), (2, 5)])
    db.create_relation("t", ["X"], [(1,)])
    maintainer = ViewMaintainer(db)
    # A chain, a diamond closing over both of its links, a deferred
    # leaf, and a view over a relation no transaction touches.
    maintainer.define_view("v1", BaseRef("r").select("A < 5"))
    maintainer.define_view("v2", BaseRef("v1").join(BaseRef("s")))
    maintainer.define_view("v3", BaseRef("v1").join(BaseRef("v2")))
    maintainer.define_view(
        "leaf", BaseRef("v2").select("C >= 2"), policy=MaintenancePolicy.DEFERRED
    )
    maintainer.define_view("other", BaseRef("t").select("X < 5"))
    return db, maintainer


class TestDagPropagation:
    @settings(max_examples=60, deadline=None)
    @given(stream=transactions)
    def test_each_reached_view_is_maintained_once_in_definition_order(
        self, stream
    ):
        db, maintainer = build_dag()
        fired: list[str] = []
        for name in DAG_ORDER:
            maintainer.subscribe(
                name, lambda view, delta, name=name: fired.append(name)
            )
        for r_toggle, s_toggle in stream:
            seen_before = {
                name: maintainer.stats(name)["transactions_seen"]
                for name in DAG_ORDER
            }
            del fired[:]
            with db.transact() as txn:
                for name, rows in (("r", r_toggle), ("s", s_toggle)):
                    for row in rows:
                        if row in db.relation(name):
                            txn.delete(name, row)
                        else:
                            txn.insert(name, row)
            seen = {
                name: maintainer.stats(name)["transactions_seen"] - before
                for name, before in seen_before.items()
            }
            assert len(fired) == len(set(fired)), fired
            assert fired == [name for name in DAG_ORDER if name in fired]
            assert "leaf" not in fired and "other" not in fired
            assert all(n <= 1 for n in seen.values()), seen
            assert seen["v1"] == (1 if r_toggle else 0)
            # v2 reads v1 and s: a commit that leaves both unchanged —
            # v1's delta empty, s untouched — does not reach it.
            assert seen["v2"] == (1 if "v1" in fired or s_toggle else 0)
            assert seen["v3"] == (1 if {"v1", "v2"} & set(fired) else 0)
            assert seen["other"] == 0
        del fired[:]
        maintainer.quiesce()
        assert set(fired) <= {"leaf"} and len(fired) <= 1
        reports = maintainer.verify_all(raise_on_mismatch=False)
        assert all(report.is_consistent() for report in reports.values()), {
            name: report.summary() for name, report in reports.items()
        }


# ----------------------------------------------------------------------
# Reach lists follow the registry
# ----------------------------------------------------------------------
class TestReachLists:
    """A commit walks the cached reach lists of the relations it
    changed; every registry change must drop them."""

    def _maintainer(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 1), (60, 2)])
        db.create_relation("s", ["B", "C"], [(1, 4), (2, 5)])
        maintainer = ViewMaintainer(db)
        maintainer.define_view("low", BaseRef("r").select("A < 100"))
        maintainer.define_view("sel", BaseRef("s").select("C < 100"))
        # Reached from r through low and from s directly: the reach
        # lists of r and s interleave by ordinal.
        maintainer.define_view("both", BaseRef("low").join(BaseRef("s")))
        return db, maintainer

    def _commit(self, db, maintainer, inserts, reached, deferred=()):
        """Commit ``inserts``: exactly the ``reached`` views are
        maintained, in that order, and the ``deferred`` ones composed."""
        names = maintainer.view_names()
        fired: list[str] = []

        def record(view, delta):
            fired.append(view.definition.name)

        for name in names:
            maintainer.subscribe(name, record)
        seen = {name: maintainer.stats(name)["transactions_seen"] for name in names}
        backlog = {
            name: maintainer.backlog(name)["commits_since_refresh"] for name in names
        }
        db.apply(inserts=inserts)
        for name in names:
            maintainer.unsubscribe(name, record)
        moved = [
            name
            for name in names
            if maintainer.stats(name)["transactions_seen"] > seen[name]
        ]
        assert sorted(moved) == sorted(reached)
        assert all(
            maintainer.stats(name)["transactions_seen"] == seen[name] + 1
            for name in moved
        )
        # Every reached view changed here, so the subscriber order is the
        # maintenance order: upstream before stacked.
        assert fired == list(reached)
        composed = [
            name
            for name in names
            if maintainer.backlog(name)["commits_since_refresh"] > backlog[name]
        ]
        assert composed == sorted(deferred)
        maintainer.quiesce()
        maintainer.verify_all()

    def test_registry_changes_drop_the_reach_lists(self):
        db, maintainer = self._maintainer()

        def commit(inserts, reached, deferred=()):
            self._commit(db, maintainer, inserts, reached, deferred)

        # Warm both lists.
        commit({"r": [(2, 1)]}, ["low", "both"])
        commit({"s": [(1, 6)]}, ["sel", "both"])
        # (a) A view stacked on an existing view.
        maintainer.define_view("top", BaseRef("both").select("A < 50"))
        commit({"r": [(3, 1)]}, ["low", "both", "top"])
        # (b) Dropped again: its object is never maintained after.
        top = maintainer.view("top")
        applied = top.updates_applied
        maintainer.drop_view("top")
        commit({"r": [(4, 2)]}, ["low", "both"])
        assert top.updates_applied == applied
        # (c) A deferred view: reached, composed, never maintained in the
        # commit.
        maintainer.define_view(
            "later",
            BaseRef("r").select("A < 90"),
            policy=MaintenancePolicy.DEFERRED,
        )
        commit({"r": [(5, 1)]}, ["low", "both"], deferred=["later"])
        # (d) A restored view.
        low = maintainer.view("low")
        maintainer.restore_view("copy", low.definition.expression, low.contents)
        commit({"r": [(6, 2)]}, ["low", "both", "copy"], deferred=["later"])
        # Two relations whose reach lists interleave: r reaches low(0),
        # both(2), later(4), copy(5); s reaches sel(1), both(2).  Merged
        # by ordinal, both once, after each of its operands.
        commit(
            {"r": [(7, 1)], "s": [(2, 7)]},
            ["low", "sel", "both", "copy"],
            deferred=["later"],
        )

    def test_base_free_apply_deltas_walks_the_same_lists(self):
        """A base-free host holds no base rows and feeds shipped deltas
        to ``apply_deltas``: the same views are reached, in the same
        order, to the same contents as the committing host's."""

        def host():
            db = Database()
            db.create_relation("r", ["A", "B"])
            maintainer = ViewMaintainer(db)
            maintainer.define_view("low", BaseRef("r").select("A < 100"))
            maintainer.define_view("top", BaseRef("low").select("B = 1"))
            maintainer.define_view("high", BaseRef("r").select("A >= 100"))
            fired: list[str] = []
            for name in maintainer.view_names():
                maintainer.subscribe(
                    name, lambda view, delta: fired.append(view.definition.name)
                )
            return db, maintainer, fired

        full_db, full, full_fired = host()
        _, bare, bare_fired = host()
        for txn_id, rows in enumerate([[(1, 1), (2, 2)], [(3, 1), (200, 1)]], 1):
            deltas = full_db.apply(inserts={"r": rows})
            bare.apply_deltas(txn_id, deltas)
        assert bare_fired == full_fired == ["low", "top", "low", "top", "high"]
        for name in full.view_names():
            assert bare.stats(name) == full.stats(name)
            assert bare.view(name).contents.counts() == (
                full.view(name).contents.counts()
            )
        full.verify_all()


# ----------------------------------------------------------------------
# DDL and drop_view through the index
# ----------------------------------------------------------------------
@pytest.fixture
def db():
    database = Database()
    database.create_relation("r", ["A", "B"], [(1, 2), (5, 10)])
    database.create_relation("s", ["C", "D"], [(2, 20), (10, 30)])
    return database


class TestDdlAndDrop:
    def test_ddl_invalidates_exactly_the_dependents(self, db):
        maintainer = ViewMaintainer(db)
        maintainer.define_view("on_r", BaseRef("r").select("A < 9"))
        maintainer.define_view("on_s", BaseRef("s").select("C < 9"))
        maintainer.define_view(
            "on_both", BaseRef("r").join(BaseRef("s")).select("B = C")
        )
        maintainer.define_view("stacked", BaseRef("on_r").select("A < 3"))
        db.create_index("r", ["B"])
        cached = {
            name: maintainer.compiled_plan(name) is not None
            for name in maintainer.view_names()
        }
        # "stacked" reads the view on_r, not the relation r.
        assert cached == {
            "on_r": False, "on_s": True, "on_both": False, "stacked": True
        }
        assert maintainer.plan_cache_stats()["plan_cache_invalidations"] == 2

    def test_redefinition_leaves_nothing_of_the_old_view(self, db):
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", BaseRef("r").select("A < 9"))
        maintainer.drop_view("v")
        view = maintainer.define_view("v", BaseRef("r").select("A >= 5"))
        fired = []
        maintainer.subscribe("v", lambda view, delta: fired.append(delta))
        db.apply(inserts={"r": [(7, 7)]})
        assert maintainer.stats("v")["transactions_seen"] == 1
        assert len(fired) == 1
        assert view.contents.counts() == {(5, 10): 1, (7, 7): 1}
        # Re-defined over another relation, the name no longer hears r.
        maintainer.drop_view("v")
        maintainer.define_view("v", BaseRef("s").select("C < 9"))
        db.apply(inserts={"r": [(8, 8)]})
        assert maintainer.stats("v")["transactions_seen"] == 0
        db.create_index("r", ["A"])
        assert maintainer.compiled_plan("v") is not None
        maintainer.verify_all()

    def test_drop_of_a_referenced_view_names_its_dependants(self, db):
        maintainer = ViewMaintainer(db)
        maintainer.define_view("base_view", BaseRef("r"))
        maintainer.define_view("over_b", BaseRef("base_view").select("A < 5"))
        maintainer.define_view("over_a", BaseRef("base_view").select("A < 3"))
        with pytest.raises(
            MaintenanceError, match=r"referenced by \['over_a', 'over_b'\]"
        ):
            maintainer.drop_view("base_view")
        maintainer.drop_view("over_a")
        maintainer.drop_view("over_b")
        maintainer.drop_view("base_view")

    def test_dependencies_are_the_names_the_definition_reads(self, db):
        maintainer = ViewMaintainer(db)
        maintainer.define_view("on_r", BaseRef("r").select("A < 9"))
        maintainer.define_view(
            "mixed", BaseRef("on_r").join(BaseRef("s")).select("B = C")
        )
        assert maintainer.dependencies("on_r") == {"r"}
        assert maintainer.dependencies("mixed") == {"on_r", "s"}
        with pytest.raises(UnknownViewError):
            maintainer.dependencies("nope")


# ----------------------------------------------------------------------
# One namespace, checked in both directions
# ----------------------------------------------------------------------
class TestSharedNamespace:
    def test_relation_cannot_take_a_view_name(self, db):
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", BaseRef("r").select("A < 9"))
        stacked = maintainer.define_view("w", BaseRef("v").select("A < 3"))
        plans = (maintainer.compiled_plan("v"), maintainer.compiled_plan("w"))
        with pytest.raises(MaintenanceError, match="collides"):
            db.create_relation("v", ["A", "B"])
        assert "v" not in db.relation_names()
        assert plans == (maintainer.compiled_plan("v"), maintainer.compiled_plan("w"))
        db.apply(inserts={"r": [(2, 2)]})
        assert stacked.contents.counts() == {(1, 2): 1, (2, 2): 1}
        maintainer.verify_all()

    def test_a_view_name_never_takes_a_base_delta(self, db):
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("v", BaseRef("r").select("A < 9"))
        stacked = maintainer.define_view("w", BaseRef("v").select("A < 30"))
        shipped = Delta(view.contents.schema, inserted=[(9, 9)])
        maintainer.apply_deltas(1, {"v": shipped})
        assert stacked.contents.counts() == {(1, 2): 1, (5, 10): 1}
        assert maintainer.stats("w")["transactions_seen"] == 0
        maintainer.verify_all()
