"""Unit and integration tests for the ViewMaintainer pipeline."""

import random

import pytest

from repro.algebra.expressions import BaseRef
from repro.algebra.schema import RelationSchema
from repro.core.compiled import CompiledViewPlan
from repro.core.consistency import check_view_consistency
from repro.core.maintainer import MaintenancePolicy, ViewMaintainer
from repro.engine.database import Database
from repro.errors import MaintenanceError, UnknownViewError

from tests.conftest import run_random_transactions
from tests.reference import ReferenceViews


@pytest.fixture
def db():
    database = Database()
    database.create_relation("r", ["A", "B"], [(1, 2), (5, 10), (12, 15)])
    database.create_relation("s", ["C", "D"], [(2, 10), (10, 20)])
    return database


@pytest.fixture
def view_expr():
    return (
        BaseRef("r")
        .product(BaseRef("s"))
        .select("A < 10 and C > 5 and B = C")
        .project(["A", "D"])
    )


class TestViewManagement:
    def test_define_materializes(self, db, view_expr):
        m = ViewMaintainer(db)
        view = m.define_view("u", view_expr)
        assert view.contents.counts() == {(5, 20): 1}
        assert m.view("u") is view
        assert m.view_names() == ("u",)

    def test_duplicate_name_rejected(self, db, view_expr):
        m = ViewMaintainer(db)
        m.define_view("u", view_expr)
        with pytest.raises(MaintenanceError):
            m.define_view("u", view_expr)

    def test_unknown_view(self, db):
        m = ViewMaintainer(db)
        with pytest.raises(UnknownViewError):
            m.view("zzz")
        with pytest.raises(UnknownViewError):
            m.refresh("zzz")

    def test_drop_view(self, db, view_expr):
        m = ViewMaintainer(db)
        m.define_view("u", view_expr)
        m.drop_view("u")
        assert m.view_names() == ()
        with pytest.raises(UnknownViewError):
            m.drop_view("u")

    def test_policy_query(self, db, view_expr):
        m = ViewMaintainer(db)
        m.define_view("u", view_expr, policy=MaintenancePolicy.DEFERRED)
        assert m.policy("u") is MaintenancePolicy.DEFERRED

    def test_detach_stops_maintenance(self, db, view_expr):
        m = ViewMaintainer(db)
        view = m.define_view("u", view_expr)
        m.detach()
        with db.transact() as txn:
            txn.insert("r", (9, 10))
        assert view.contents.counts() == {(5, 20): 1}


class TestImmediateMaintenance:
    def test_example_41_insertions(self, db, view_expr):
        m = ViewMaintainer(db, auto_verify=True)
        view = m.define_view("u", view_expr)
        with db.transact() as txn:
            txn.insert("r", (9, 10))   # relevant
            txn.insert("r", (11, 10))  # provably irrelevant
        assert view.contents.counts() == {(5, 20): 1, (9, 20): 1}
        stats = m.stats("u")
        assert stats["tuples_screened"] == 2
        assert stats["tuples_irrelevant"] == 1

    def test_fully_irrelevant_transaction_skipped(self, db, view_expr):
        m = ViewMaintainer(db, auto_verify=True)
        m.define_view("u", view_expr)
        with db.transact() as txn:
            txn.insert("r", (11, 10))
            txn.insert("r", (50, 3))
        stats = m.stats("u")
        assert stats["transactions_skipped"] == 1
        assert stats["deltas_applied"] == 0

    def test_unrelated_relation_ignored(self, db, view_expr):
        db.create_relation("other", ["X"], [(1,)])
        m = ViewMaintainer(db, auto_verify=True)
        m.define_view("u", view_expr)
        with db.transact() as txn:
            txn.insert("other", (2,))
        assert m.stats("u")["transactions_seen"] == 0

    def test_deletes_maintained(self, db, view_expr):
        m = ViewMaintainer(db, auto_verify=True)
        view = m.define_view("u", view_expr)
        with db.transact() as txn:
            txn.delete("r", (5, 10))
        assert view.contents.counts() == {}

    def test_multi_view_same_commit(self, db, view_expr):
        m = ViewMaintainer(db, auto_verify=True)
        u = m.define_view("u", view_expr)
        pb = m.define_view("pb", BaseRef("r").project(["B"]))
        with db.transact() as txn:
            txn.insert("r", (9, 10))
        assert (9, 20) in u.contents
        assert pb.contents.count_of((10,)) == 2

    def test_same_results_as_reference_functions(self, db, view_expr):
        # The reference screens per tuple and hashes OLD operands; the
        # maintainer runs screen kernels and probes persistent indexes.
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("u", view_expr)
        reference = ReferenceViews(db, {"u": view_expr})
        rng = random.Random(4)
        run_random_transactions(db, rng, 40, value_max=14)
        assert view.contents == reference.view("u").contents
        assert maintainer.stats("u")["tuples_irrelevant"] > 0
        assert db.relation("s").indexes.get(("C",)) is not None


class TestDeferredMaintenance:
    def test_pending_accumulates_until_refresh(self, db, view_expr):
        m = ViewMaintainer(db)
        view = m.define_view("u", view_expr, policy=MaintenancePolicy.DEFERRED)
        with db.transact() as txn:
            txn.insert("r", (9, 10))
        # Not yet applied.
        assert view.contents.counts() == {(5, 20): 1}
        assert m.pending_deltas("u")["r"].inserted == {(9, 10): 1}
        assert m.refresh("u")
        assert view.contents.counts() == {(5, 20): 1, (9, 20): 1}
        check_view_consistency(view, db.instances())

    def test_refresh_with_nothing_pending(self, db, view_expr):
        m = ViewMaintainer(db)
        m.define_view("u", view_expr, policy=MaintenancePolicy.DEFERRED)
        assert not m.refresh("u")

    def test_pending_composition_cancels(self, db, view_expr):
        m = ViewMaintainer(db)
        m.define_view("u", view_expr, policy=MaintenancePolicy.DEFERRED)
        with db.transact() as txn:
            txn.insert("r", (9, 10))
        with db.transact() as txn:
            txn.delete("r", (9, 10))
        assert m.pending_deltas("u") == {}
        assert not m.refresh("u")

    def test_deferred_matches_recomputation_after_many_txns(self, db, view_expr):
        m = ViewMaintainer(db)
        view = m.define_view("u", view_expr, policy=MaintenancePolicy.DEFERRED)
        rng = random.Random(11)
        run_random_transactions(db, rng, 30, value_max=14)
        m.refresh("u")
        check_view_consistency(view, db.instances())

    def test_interleaved_refreshes(self, db, view_expr):
        m = ViewMaintainer(db)
        view = m.define_view("u", view_expr, policy=MaintenancePolicy.DEFERRED)
        rng = random.Random(12)
        for _ in range(5):
            run_random_transactions(db, rng, 6, value_max=14)
            m.refresh("u")
            check_view_consistency(view, db.instances())


class TestAutoVerify:
    def test_auto_verify_catches_corruption(self, db, view_expr):
        m = ViewMaintainer(db, auto_verify=True)
        view = m.define_view("u", view_expr)
        # Corrupt the view behind the maintainer's back.
        view.contents.add((99, 99))
        with pytest.raises(MaintenanceError):
            with db.transact() as txn:
                txn.insert("r", (9, 10))


class TestStats:
    def test_stats_as_dict(self, db, view_expr):
        m = ViewMaintainer(db)
        m.define_view("u", view_expr)
        d = m.stats("u")
        assert set(d) >= {"transactions_seen", "deltas_applied"}

    def test_report_renders_all_views(self, db, view_expr):
        m = ViewMaintainer(db)
        m.define_view("u", view_expr)
        m.define_view("pb", BaseRef("r").project(["B"]))
        with db.transact() as txn:
            txn.insert("r", (9, 10))
        text = m.report()
        assert "u" in text and "pb" in text
        assert "immediate" in text


class TestNamespace:
    def test_view_name_colliding_with_relation_rejected(self, db, view_expr):
        m = ViewMaintainer(db)
        with pytest.raises(MaintenanceError, match="collides"):
            m.define_view("r", view_expr)


class TestSubscribers:
    def test_immediate_subscriber_receives_delta(self, db, view_expr):
        m = ViewMaintainer(db)
        m.define_view("u", view_expr)
        received = []
        m.subscribe("u", lambda view, delta: received.append(delta))
        with db.transact() as txn:
            txn.insert("r", (9, 10))
        assert len(received) == 1
        assert received[0].inserted == {(9, 20): 1}

    def test_subscriber_not_called_on_screened_commit(self, db, view_expr):
        m = ViewMaintainer(db)
        m.define_view("u", view_expr)
        received = []
        m.subscribe("u", lambda view, delta: received.append(delta))
        with db.transact() as txn:
            txn.insert("r", (11, 10))  # provably irrelevant
        assert received == []

    def test_deferred_subscriber_fires_at_refresh(self, db, view_expr):
        m = ViewMaintainer(db)
        m.define_view("u", view_expr, policy=MaintenancePolicy.DEFERRED)
        received = []
        m.subscribe("u", lambda view, delta: received.append(delta))
        with db.transact() as txn:
            txn.insert("r", (9, 10))
        assert received == []  # nothing until refresh
        m.refresh("u")
        assert len(received) == 1

    def test_unsubscribe(self, db, view_expr):
        m = ViewMaintainer(db)
        m.define_view("u", view_expr)
        received = []
        callback = lambda view, delta: received.append(delta)  # noqa: E731
        m.subscribe("u", callback)
        m.unsubscribe("u", callback)
        with db.transact() as txn:
            txn.insert("r", (9, 10))
        assert received == []
        m.unsubscribe("u", callback)  # idempotent


class TestCommitPathGlue:
    def test_commits_build_no_instance_map_and_no_schema(
        self, db, view_expr, monkeypatch
    ):
        """Everything a commit needs that no transaction changes is
        resolved when the plan (or one of its shapes) compiles: 50
        commits build no name -> relation map and no schema."""
        m = ViewMaintainer(db)
        m.define_view("u", view_expr)
        m.define_view("sel", BaseRef("r").select("A < 8"))
        m.define_view("p", BaseRef("r").project(["B"]))
        m.define_view("st", BaseRef("s").product(BaseRef("p")).select("C = B"))
        m.define_view(
            "agg", BaseRef("r").aggregate(["B"], [("count", None, "n")])
        )
        # Row kernels compile on the first use of a truth-table shape;
        # these three commits use every shape the views have.
        db.apply(inserts={"r": [(3, 7)]})
        db.apply(inserts={"s": [(7, 1)]})
        db.apply(inserts={"r": [(4, 8)], "s": [(8, 2)]})
        calls = {"instances": 0, "schemas": 0}
        in_plan = []

        instances = ViewMaintainer.instances

        def counting_instances(self):
            calls["instances"] += 1
            return instances(self)

        monkeypatch.setattr(ViewMaintainer, "instances", counting_instances)
        for attr in ("screen", "compute_delta"):
            method = getattr(CompiledViewPlan, attr)

            def inside(self, *args, _method=method):
                in_plan.append(1)
                try:
                    return _method(self, *args)
                finally:
                    in_plan.pop()

            monkeypatch.setattr(CompiledViewPlan, attr, inside)
        init = RelationSchema.__init__

        def counting_init(self, *args, **kwargs):
            calls["schemas"] += bool(in_plan)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RelationSchema, "__init__", counting_init)

        run_random_transactions(db, random.Random(5), 50)
        assert m.stats("u")["transactions_seen"] > 0
        assert m.stats("st")["deltas_applied"] > 0
        assert calls == {"instances": 0, "schemas": 0}
        monkeypatch.undo()
        m.verify_all()
