"""Failure-injection tests: what breaks, and how loudly.

The engine's contract under failing components is deliberately simple
and these tests pin it down:

* a commit hook that raises propagates *after* the base relations and
  earlier hooks have applied, and later hooks are skipped — commits
  are not rolled back by observer failures (observers are derived
  state; the log remains authoritative), but observer order matters:
  stop-at-first-failure is the pinned commit-hook policy;
* DDL hooks are the opposite: *every* hook sees every schema change
  even when an earlier one raises (first failure re-raised after),
  because the maintainer's plan invalidation rides this bus and a
  failing user hook must not leave a stale compiled plan cached;
* a subscriber that raises propagates after the view delta applied;
* a corrupted view is caught by ``auto_verify`` / ``check_view_consistency``
  with a precise report, and the exception names the view;
* maintenance keeps working after an observer failure.
"""

import pytest

from repro.algebra.expressions import BaseRef
from repro.core.consistency import check_view_consistency
from repro.core.maintainer import ViewMaintainer
from repro.engine.database import Database
from repro.errors import MaintenanceError


@pytest.fixture
def db():
    database = Database()
    database.create_relation("r", ["A", "B"], [(1, 1)])
    return database


class TestHookFailures:
    def test_hook_exception_propagates_but_commit_stands(self, db):
        def bad_hook(txn_id, deltas):
            raise RuntimeError("observer crashed")

        db.add_commit_hook(bad_hook)
        with pytest.raises(RuntimeError):
            with db.transact() as txn:
                txn.insert("r", (2, 2))
        # The base relation kept the committed row: observers cannot
        # veto a commit.
        assert (2, 2) in db.relation("r")
        # The log recorded it too.
        assert db.last_sequence() == 1

    def test_earlier_hooks_complete_before_failure(self, db):
        seen = []
        db.add_commit_hook(lambda txn_id, deltas: seen.append("first"))
        db.add_commit_hook(
            lambda txn_id, deltas: (_ for _ in ()).throw(RuntimeError())
        )
        db.add_commit_hook(lambda txn_id, deltas: seen.append("third"))
        with pytest.raises(RuntimeError):
            with db.transact() as txn:
                txn.insert("r", (2, 2))
        assert seen == ["first"]

    def test_maintainer_view_stays_consistent_despite_later_hook_failure(self, db):
        maintainer = ViewMaintainer(db)  # registered first: runs first
        view = maintainer.define_view("v", BaseRef("r"))

        def bad_hook(txn_id, deltas):
            raise RuntimeError("later observer crashed")

        db.add_commit_hook(bad_hook)
        with pytest.raises(RuntimeError):
            with db.transact() as txn:
                txn.insert("r", (2, 2))
        # The maintainer ran before the failing hook: the view tracked
        # the commit and stays consistent.
        check_view_consistency(view, db.instances())
        assert (2, 2) in view.contents

    def test_maintenance_resumes_after_observer_removal(self, db):
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("v", BaseRef("r"))

        def bad_hook(txn_id, deltas):
            raise RuntimeError

        db.add_commit_hook(bad_hook)
        with pytest.raises(RuntimeError):
            with db.transact() as txn:
                txn.insert("r", (2, 2))
        db.remove_commit_hook(bad_hook)
        with db.transact() as txn:
            txn.insert("r", (3, 3))
        assert (3, 3) in view.contents
        check_view_consistency(view, db.instances())


class TestDdlHookFailures:
    def test_plan_invalidation_survives_earlier_failing_ddl_hook(self, db):
        """A user DDL hook that raises must not strand a stale plan.

        The bad hook is registered *before* the maintainer, so under
        stop-at-first-failure semantics the maintainer's invalidation
        would never run and ``compiled_plan`` would keep serving a plan
        bound to the dropped index.  The DDL bus runs every hook and
        re-raises the first failure afterwards.
        """

        def bad_hook(event, relation_name):
            if event == "drop_index":
                raise RuntimeError("ddl observer crashed")

        db.add_ddl_hook(bad_hook)  # earlier than the maintainer's hook
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("v", BaseRef("r"))
        db.create_index("r", ["A"])
        # Recompile so the cached plan post-dates the index.
        with db.transact() as txn:
            txn.insert("r", (2, 2))
        assert maintainer.compiled_plan("v") is not None

        with pytest.raises(RuntimeError, match="ddl observer crashed"):
            db.drop_index("r", ["A"])
        # The failing earlier hook did not stop the invalidation.
        assert maintainer.compiled_plan("v") is None

        # The next commit recompiles cleanly and the view stays exact.
        db.remove_ddl_hook(bad_hook)
        with db.transact() as txn:
            txn.insert("r", (3, 3))
        assert maintainer.compiled_plan("v") is not None
        check_view_consistency(view, db.instances())

    def test_first_ddl_failure_wins_but_all_hooks_run(self, db):
        seen = []

        def first(event, relation_name):
            seen.append(("first", event))
            raise RuntimeError("first crashed")

        def second(event, relation_name):
            seen.append(("second", event))
            raise RuntimeError("second crashed")

        db.add_ddl_hook(first)
        db.add_ddl_hook(second)
        with pytest.raises(RuntimeError, match="first crashed"):
            db.create_relation("s", ["C"])
        assert seen == [("first", "create_relation"), ("second", "create_relation")]
        # The schema change itself stood: hooks observe, never veto.
        assert "s" in db.relation_names()


class TestCorruptionDetection:
    def test_auto_verify_names_the_view(self, db):
        maintainer = ViewMaintainer(db, auto_verify=True)
        view = maintainer.define_view("watched", BaseRef("r"))
        view.contents.add((99, 99))
        with pytest.raises(MaintenanceError, match="watched"):
            with db.transact() as txn:
                txn.insert("r", (2, 2))

    def test_verify_failure_leaves_commit_applied(self, db):
        maintainer = ViewMaintainer(db, auto_verify=True)
        view = maintainer.define_view("v", BaseRef("r"))
        view.contents.add((99, 99))
        with pytest.raises(MaintenanceError):
            with db.transact() as txn:
                txn.insert("r", (2, 2))
        assert (2, 2) in db.relation("r")

    def test_report_pinpoints_the_difference(self, db):
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("v", BaseRef("r"))
        view.contents.add((99, 99))
        view.contents.discard((1, 1))
        report = check_view_consistency(
            view, db.instances(), raise_on_mismatch=False
        )
        assert report.unexpected == {(99, 99): 1}
        assert report.missing == {(1, 1): 1}


class TestSubscriberFailures:
    def test_subscriber_exception_propagates_after_view_update(self, db):
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("v", BaseRef("r"))

        def bad_subscriber(view, delta):
            raise RuntimeError("alerter crashed")

        maintainer.subscribe("v", bad_subscriber)
        with pytest.raises(RuntimeError):
            with db.transact() as txn:
                txn.insert("r", (2, 2))
        # The view delta had already been applied.
        assert (2, 2) in view.contents
        check_view_consistency(view, db.instances())
