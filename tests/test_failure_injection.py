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
* maintenance keeps working after an observer failure;
* a generated kernel that raises stops the commit's view maintenance
  where it raised: earlier views stay updated, the faulted view is left
  as it was with what it counted so far, later views are untouched; a
  refresh that raises before its apply keeps its backlog, and one whose
  subscriber raises after it does not.
"""

import pytest

from repro.algebra.expressions import BaseRef
from repro.core import codegen, compiled
from repro.core.consistency import check_view_consistency
from repro.core.maintainer import MaintenancePolicy, ViewMaintainer
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


@pytest.fixture
def kernel_faults(monkeypatch):
    """A set of kernel file names (``<codegen:VIEW:KIND...>``,
    ``<codegen:pass:RELATION>``): a screen, fused screen pass, row or
    fold kernel compiled from here on raises while its name is in it."""
    armed: set[str] = set()
    compile_kernel = compiled.compile_kernel

    def faultable(source, name, filename):
        kernel = compile_kernel(source, name, filename)

        def run(*args):
            if filename in armed:
                raise RuntimeError(f"injected fault in {filename}")
            return kernel(*args)

        return run

    monkeypatch.setattr(compiled, "compile_kernel", faultable)
    monkeypatch.setattr(codegen, "compile_kernel", faultable)
    return armed


class TestKernelFaults:
    def test_a_failed_refresh_keeps_its_backlog(self, db, kernel_faults):
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view(
            "v", BaseRef("r").select("A > 0"), policy=MaintenancePolicy.DEFERRED
        )
        db.apply(inserts={"r": [(2, 2)]})
        backlog = maintainer.backlog("v")
        assert backlog["pending_relations"] == 1
        kernel_faults.add("<codegen:v:screen:r>")
        with pytest.raises(RuntimeError, match="injected"):
            maintainer.refresh("v")
        # Still stale, and saying so.
        assert maintainer.backlog("v") == backlog
        assert (2, 2) not in view.contents
        kernel_faults.clear()
        assert maintainer.refresh("v") is True
        assert maintainer.backlog("v") == {
            "pending_relations": 0,
            "pending_delta_size": 0,
            "commits_since_refresh": 0,
            "sequence_lag": 0,
        }
        maintainer.verify_all()

    def test_a_fused_pass_fault_stops_the_commit_at_its_first_reader(self, db, kernel_faults):
        """Two views whose screens open with ``A > 0`` share one fused
        pass, which the first of them runs: a fault in it stops the
        commit there, after the view before them."""
        maintainer = ViewMaintainer(db)
        names = ["proj", "lo", "lo_b"]
        maintainer.define_view("proj", BaseRef("r").project(["B"]))
        maintainer.define_view("lo", BaseRef("r").select("A > 0"))
        maintainer.define_view("lo_b", BaseRef("r").select("A > 0 and B < 100"))
        before = {name: maintainer.stats(name) for name in names}
        contents = {name: maintainer.view(name).contents.counts() for name in names}
        kernel_faults.add("<codegen:pass:r>")
        with pytest.raises(RuntimeError, match="injected"):
            db.apply(inserts={"r": [(5, 5)]})
        after = {name: maintainer.stats(name) for name in names}
        assert after["proj"]["deltas_applied"] == before["proj"]["deltas_applied"] + 1
        check_view_consistency(maintainer.view("proj"), maintainer.instances())
        moved = {m: after["lo"][m] - before["lo"][m] for m in after["lo"] if after["lo"][m] != before["lo"][m]}
        assert moved == {"transactions_seen": 1, "tuples_screened": 1, "plan_cache_hits": 1}
        assert after["lo_b"] == before["lo_b"]
        for name in ("lo", "lo_b"):
            assert maintainer.view(name).contents.counts() == contents[name]
        kernel_faults.clear()
        db.apply(inserts={"r": [(6, 6)]})
        assert (6, 6) in maintainer.view("lo").contents
        assert (6, 6) in maintainer.view("lo_b").contents

    def test_a_subscriber_raising_in_a_refresh_leaves_no_backlog(self, db):
        # The delta is applied before the subscribers run, so the backlog
        # is gone by then: a second refresh must not apply it again.
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view(
            "v", BaseRef("r").select("A > 0"), policy=MaintenancePolicy.DEFERRED
        )

        def bad_subscriber(view, delta):
            raise RuntimeError("subscriber exploded")

        maintainer.subscribe("v", bad_subscriber)
        db.apply(inserts={"r": [(2, 2)]})
        with pytest.raises(RuntimeError, match="exploded"):
            maintainer.refresh("v")
        assert view.contents.counts()[(2, 2)] == 1
        assert maintainer.backlog("v")["pending_relations"] == 0
        assert maintainer.backlog("v")["commits_since_refresh"] == 0
        maintainer.unsubscribe("v", bad_subscriber)
        assert maintainer.refresh("v") is False
        assert view.contents.counts()[(2, 2)] == 1
        maintainer.verify_all()

    def test_a_fold_fault_stops_the_commit_at_its_view(self, db, kernel_faults):
        maintainer = ViewMaintainer(db)
        names = ["sel", "proj", "agg", "low", "stacked"]
        maintainer.define_view("sel", BaseRef("r").select("A > 0"))
        maintainer.define_view("proj", BaseRef("r").project(["B"]))
        maintainer.define_view(
            "agg", BaseRef("r").aggregate(["B"], [("count", None, "n")])
        )
        maintainer.define_view("low", BaseRef("r").select("B < 100"))
        maintainer.define_view("stacked", BaseRef("sel").project(["A"]))
        db.apply(inserts={"r": [(2, 2)]})  # every shape compiled
        before = {name: maintainer.stats(name) for name in names}
        contents = {name: maintainer.view(name).contents.counts() for name in names}
        groups = dict(maintainer.view("agg").aggregate_state.groups)

        kernel_faults.add("<codegen:agg:aggregate>")
        with pytest.raises(RuntimeError, match="injected"):
            db.apply(inserts={"r": [(5, 5)]})
        assert (5, 5) in db.relation("r")  # the commit stands
        after = {name: maintainer.stats(name) for name in names}
        for name in ("sel", "proj"):
            assert after[name]["transactions_seen"] == before[name]["transactions_seen"] + 1
            assert after[name]["deltas_applied"] == before[name]["deltas_applied"] + 1
            check_view_consistency(maintainer.view(name), maintainer.instances())
        # The faulted view: what it counted up to the raise is landed,
        # and neither its contents nor its support state moved.
        moved = {
            metric: after["agg"][metric] - before["agg"][metric]
            for metric in after["agg"]
            if after["agg"][metric] != before["agg"][metric]
        }
        assert moved == {
            "transactions_seen": 1,
            "tuples_screened": 1,
            "plan_cache_hits": 1,
        }
        assert maintainer.view("agg").contents.counts() == contents["agg"]
        assert maintainer.view("agg").aggregate_state.groups == groups
        for name in ("low", "stacked"):
            assert after[name] == before[name]
            assert maintainer.view(name).contents.counts() == contents[name]

        kernel_faults.clear()
        db.apply(inserts={"r": [(6, 6)]})
        final = {name: maintainer.stats(name) for name in names}
        for name in names:
            assert final[name]["transactions_seen"] == after[name]["transactions_seen"] + 1
            assert final[name]["deltas_applied"] == after[name]["deltas_applied"] + 1
        assert (6, 1) in maintainer.view("agg").contents
