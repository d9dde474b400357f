"""Unit and integration tests for the ViewMaintainer pipeline."""

import random

import pytest

from repro.algebra.expressions import BaseRef
from repro.algebra.schema import RelationSchema
from repro.core.consistency import check_view_consistency
from repro.core.maintainer import MaintenancePolicy, ViewMaintainer
from repro.engine.database import Database
from repro.errors import MaintenanceError, UnknownViewError
from repro.instrumentation import CostRecorder, recording

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
        with db.transact() as txn:
            txn.insert("r", (6, 10))
            txn.delete("r", (1, 2))
            txn.delete("s", (2, 10))
        # Not yet applied; composed across commits, one delta per relation.
        assert view.contents.counts() == {(5, 20): 1}
        pending = m.pending_deltas("u")
        assert set(pending) == {"r", "s"}
        assert pending["r"].inserted == {(9, 10): 1, (6, 10): 1}
        assert pending["r"].deleted == {(1, 2): 1}
        assert (pending["s"].inserted, pending["s"].deleted) == ({}, {(2, 10): 1})
        assert m.backlog("u")["commits_since_refresh"] == 2
        assert m.refresh("u")
        assert view.contents.counts() == {(5, 20): 1, (9, 20): 1, (6, 20): 1}
        check_view_consistency(view, db.instances())

    def test_refresh_with_nothing_pending(self, db, view_expr):
        m = ViewMaintainer(db)
        m.define_view("u", view_expr, policy=MaintenancePolicy.DEFERRED)
        # Read-only transactions leave nothing pending and age nothing.
        with db.transact():
            pass
        with db.transact() as txn:
            txn.insert("r", (9, 10))
            txn.delete("r", (9, 10))
        assert m.backlog("u")["commits_since_refresh"] == 0
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

    @pytest.mark.parametrize(
        "policy", [MaintenancePolicy.IMMEDIATE, MaintenancePolicy.DEFERRED]
    )
    def test_a_subscriber_leaving_during_delivery_takes_no_delta_away(
        self, db, view_expr, policy
    ):
        """``once`` unsubscribes itself from inside its first delivery;
        ``always``, subscribed after it, still receives that delta — in
        the commit (immediate) and in the refresh (deferred) alike."""
        m = ViewMaintainer(db)
        m.define_view("u", view_expr, policy=policy)
        received = []

        def once(view, delta):
            received.append("once")
            m.unsubscribe("u", once)

        m.subscribe("u", once)
        m.subscribe("u", lambda view, delta: received.append("always"))
        for row in ((9, 10), (8, 10)):
            db.apply(inserts={"r": [row]})
            if policy is MaintenancePolicy.DEFERRED:
                assert m.refresh("u")
        assert received == ["once", "always", "always"]


class TestCommitPathGlue:
    def test_commits_build_no_instance_map_and_no_schema(
        self, db, view_expr, monkeypatch
    ):
        """Everything a commit needs that no transaction changes is
        resolved when the plan (or one of its shapes) compiles: 50
        commits build no name -> relation map and no schema."""
        calls = {"instances": 0, "schemas": 0}
        in_plan = []
        commits = []
        on_commit = ViewMaintainer._on_commit

        def inside(self, *args, **kwargs):
            in_plan.append(1)
            commits.append(1)
            try:
                return on_commit(self, *args, **kwargs)
            finally:
                in_plan.pop()

        # Before the maintainer registers its commit hook.
        monkeypatch.setattr(ViewMaintainer, "_on_commit", inside)
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

        instances = ViewMaintainer.instances

        def counting_instances(self):
            calls["instances"] += 1
            return instances(self)

        monkeypatch.setattr(ViewMaintainer, "instances", counting_instances)
        init = RelationSchema.__init__

        def counting_init(self, *args, **kwargs):
            calls["schemas"] += bool(in_plan)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RelationSchema, "__init__", counting_init)

        commits.clear()
        run_random_transactions(db, random.Random(5), 50)
        assert commits  # the counts below were taken inside commits
        assert m.stats("u")["transactions_seen"] > 0
        assert m.stats("st")["deltas_applied"] > 0
        assert calls == {"instances": 0, "schemas": 0}
        monkeypatch.undo()
        m.verify_all()


def _changes(before, after):
    """The ``(inserted, deleted)`` count maps taking ``before`` to ``after``."""
    inserted = {t: n - before.get(t, 0) for t, n in after.items() if n > before.get(t, 0)}
    deleted = {t: n - after.get(t, 0) for t, n in before.items() if n > after.get(t, 0)}
    return inserted, deleted


class TestResolvedSteps:
    """What a commit's trigger program binds — a view's plan and
    kernels, the views it reaches — is resolved when it compiles and
    dropped with them, so no event a later commit or refresh depends on
    is missed."""

    #: Each event, then one more commit.
    EVENTS = (
        ("create_index", lambda db, m, deliver: db.create_index("r", ["B"])),
        # The join's plan bound r's index on A at its first commit; a
        # step kept past this drop would probe an index no longer kept up.
        ("drop_index", lambda db, m, deliver: db.drop_index("r", ["A"])),
        ("declare_key", lambda db, m, deliver: db.declare_key("s", ["C"])),
        ("declare_constraint", lambda db, m, deliver: db.declare_constraint("r", "A >= 0")),
        ("define_view", lambda db, m, deliver: m.define_view("late", BaseRef("r").select("B > 1"))),
        ("drop_view", lambda db, m, deliver: m.drop_view("stacked")),
        ("subscribe", lambda db, m, deliver: m.subscribe("late", deliver)),
        ("unsubscribe", lambda db, m, deliver: m.unsubscribe("sel", deliver)),
        (
            "replace_contents",
            lambda db, m, deliver: m.view("agg").replace_contents(
                m.view("agg").stored_contents().copy()
            ),
        ),
    )

    @staticmethod
    def _world(auto_verify=False):
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 1), (2, 2), (3, 3)])
        db.create_relation("s", ["C", "D"], [(1, 10), (2, 20)])
        m = ViewMaintainer(db, auto_verify=auto_verify)
        m.define_view("sel", BaseRef("r").select("A > 0"))
        m.define_view("join", BaseRef("r").product(BaseRef("s")).select("A = C"))
        m.define_view(
            "agg",
            BaseRef("r").aggregate(["B"], [("count", None, "n"), ("max", "A", "top")]),
        )
        # Its commits on s probe sel through an index sel builds.
        m.define_view("stacked", BaseRef("sel").product(BaseRef("s")).select("A = C"))
        m.define_view(
            "dfr",
            BaseRef("r").product(BaseRef("s")).select("A = C"),
            policy=MaintenancePolicy.DEFERRED,
        )
        deliveries = []

        def deliver(view, delta):
            deliveries.append(
                (view.definition.name, dict(delta.inserted), dict(delta.deleted))
            )

        for name in m.view_names():
            m.subscribe(name, deliver)
        return db, m, deliveries, deliver

    @staticmethod
    def _commit(db, i):
        """A k = 2 commit: a row into r (and an older one out), and a row
        into s that joins r's row of the commit before."""
        with db.transact() as txn:
            txn.insert("r", (10 + i, 1 + i % 3))
            if i > 1:
                txn.delete("r", (8 + i, 1 + (i - 2) % 3))
            txn.insert("s", (9 + i, 7 * i))

    @staticmethod
    def _then(db, m, i):
        """After the commit: a two-relation commit whose deltas arrive
        in the other order, then a refresh of the deferred view."""
        db.apply(inserts={"s": [(40 + i, i)], "r": [(40 + i, 2)]})
        assert m.refresh("dfr")

    def _replay(self, events, auto_verify=False):
        db, m, _, deliver = self._world(auto_verify)
        self._commit(db, 0)
        self._then(db, m, 0)
        for i, (_, event) in enumerate(events, 1):
            event(db, m, deliver)
            self._commit(db, i)
            self._then(db, m, i)
        return m

    def test_every_event_reaches_the_next_commit(self):
        db, m, deliveries, deliver = self._world()
        subscribed = set(m.view_names())
        self._commit(db, 0)
        self._then(db, m, 0)
        for i, (event_name, event) in enumerate(self.EVENTS, 1):
            if event_name == "drop_index":
                assert ("A",) in db.relation("r").indexes
            if event_name == "drop_view":
                assert m.view("sel").contents.indexes
            event(db, m, deliver)
            if event_name == "drop_view":
                subscribed.discard("stacked")
                assert not m.view("sel").contents.indexes
            elif event_name == "subscribe":
                subscribed.add("late")
            elif event_name == "unsubscribe":
                subscribed.discard("sel")
            before = {name: m.view(name).contents.counts() for name in m.view_names()}
            deliveries.clear()
            self._commit(db, i)

            agg = m.view("agg")
            assert agg.aggregate_state.visible_relation() == agg.contents, event_name
            assert agg.aggregate_state.accumulator_drift() == []
            expected = {}
            for name in subscribed:
                changes = _changes(before[name], m.view(name).contents.counts())
                if changes != ({}, {}):
                    expected[name] = changes
            delivered = {name: (ins, dele) for name, ins, dele in deliveries}
            assert len(delivered) == len(deliveries), event_name
            assert delivered == expected, event_name
            before = m.view("dfr").contents.counts()
            deliveries.clear()
            self._then(db, m, i)
            m.verify_all()
            refreshed = _changes(before, m.view("dfr").contents.counts())
            assert ("dfr", *refreshed) in deliveries, event_name
            fresh = self._replay(self.EVENTS[:i])
            assert m.all_stats() == fresh.all_stats(), event_name
            for name in m.view_names():
                assert m.view(name).contents == fresh.view(name).contents
        assert m.view("join").contents and m.view("agg").contents

    @staticmethod
    def _mixed_stream(auto_verify=False):
        """Stacked, aggregate and deferred views, an FK-reduced view whose
        probe relation p is dropped by proof, a relation q statically
        irrelevant to a view, and k = 2 commits, from one seed."""
        db = Database()
        db.create_relation("p", ["B", "C"], [(b, b * 10) for b in range(4)])
        db.create_relation("r", ["A", "B"], [(1, 0), (2, 1), (3, 1)])
        db.create_relation("q", ["E", "F"], [(10, 1)])
        db.declare_key("p", ["B"])
        db.declare_foreign_key("r", ["B"], "p", ["B"])
        db.declare_constraint("q", "E >= 10")
        m = ViewMaintainer(db, auto_verify=auto_verify)
        m.define_view("fk", BaseRef("r").join(BaseRef("p")).project(["A", "B"]))
        m.define_view("qs", BaseRef("r").product(BaseRef("q")).select("E < 5 and A = F"))
        m.define_view("sel", BaseRef("r").select("A > 2"))
        m.define_view("stacked", BaseRef("sel").join(BaseRef("p")))
        m.define_view(
            "agg",
            BaseRef("r").aggregate(["B"], [("count", None, "n"), ("max", "A", "top")]),
        )
        m.define_view(
            "dfr",
            BaseRef("r").product(BaseRef("q")).select("A = F"),
            policy=MaintenancePolicy.DEFERRED,
        )
        assert m.compiled_plan("fk").reduction is not None
        assert m.compiled_plan("qs").static_irrelevant == frozenset({"q"})
        rng = random.Random(11)
        live = [(1, 0), (2, 1), (3, 1)]
        for i in range(60):
            kind = rng.randrange(4)
            with db.transact() as txn:
                if kind == 0:
                    txn.insert("p", (100 + i, i))
                    live.append((10 + i, rng.randrange(4)))
                    txn.insert("r", live[-1])
                elif kind == 1 and live:
                    txn.delete("r", live.pop(rng.randrange(len(live))))
                elif kind == 2:
                    txn.insert("q", (10 + rng.randrange(5), rng.randrange(20)))
                else:
                    live.append((10 + i, rng.randrange(4)))
                    txn.insert("r", live[-1])
            if i % 7 == 6:
                m.refresh("dfr")
        m.quiesce()
        m.verify_all()
        return m

    def test_the_plan_stage_methods_count_what_a_refresh_counts(self):
        """``plan.screen`` / ``compute_delta`` / ``fold_aggregate`` run
        functions emitted from the trigger's templates: over a deferred
        view's backlog they count what its refresh then counts — screens
        kept, dropped by static irrelevance and by an FK reduction."""
        db = Database()
        db.create_relation("p", ["B", "C"], [(b, b * 10) for b in range(4)])
        db.create_relation("r", ["A", "B"], [(1, 0), (2, 1)])
        db.create_relation("q", ["E", "F"], [(10, 1)])
        db.declare_key("p", ["B"])
        db.declare_foreign_key("r", ["B"], "p", ["B"])
        db.declare_constraint("q", "E >= 10")
        m = ViewMaintainer(db)
        deferred = MaintenancePolicy.DEFERRED
        m.define_view("fk", BaseRef("r").join(BaseRef("p")).project(["A", "B"]), deferred)
        m.define_view("qs", BaseRef("r").product(BaseRef("q")).select("E < 5 and A = F"),
                      deferred)
        m.define_view("agg", BaseRef("r").aggregate(["B"], [("max", "A", "top")]), deferred)
        db.apply(inserts={"p": [(9, 90)], "r": [(9, 9), (3, 0)], "q": [(11, 2)]},
                 deletes={"r": [(1, 0)]})
        for name in ("fk", "qs", "agg"):
            plan, view = m.compiled_plan(name), m.view(name)
            counted, charged = [], []
            relevant = {}
            for relation, delta in m.pending_deltas(name).items():
                screened = plan.screen(relation, delta, counted, charged)
                if screened is not None:
                    relevant[relation] = screened
            ins, dele = plan.compute_delta(relevant, counted, charged)
            if view.aggregate_state is not None:
                state = view.aggregate_state
                view.aggregate_state = state.from_core(
                    view.definition.aggregate, state.stored_contents()
                )
                plan.fold_aggregate(view.aggregate_state, ins, dele, counted, charged)
                view.aggregate_state = state
            before = m.totals.snapshot()
            with recording(CostRecorder()) as recorder:
                assert m.refresh(name)
            for metric, _ in counted:
                grown = m.totals.get(metric) - before.get(metric, 0)
                assert sum(n for k, n in counted if k == metric) == grown, (name, metric)
            for metric, _ in charged:
                assert sum(n for k, n in charged if k == metric) == recorder.get(metric)
            assert counted and charged
        assert m.totals.get("static_tuples_dropped") and m.totals.get("fk_probe_tuples_dropped")
        m.verify_all()

    def test_a_recorder_sees_what_the_rows_count(self):
        """Over the mixed stream and over the event stream above, with
        and without ``auto_verify``."""
        for auto_verify in (False, True):
            rows = self._recorded(lambda: self._mixed_stream(auto_verify))
            assert rows["static_tuples_dropped"] and rows["fk_probe_tuples_dropped"]
            assert rows["transactions_skipped"] and rows["aggregate_rows_folded"]
            rows = self._recorded(lambda: self._replay(self.EVENTS, auto_verify))
            assert rows["plan_cache_misses"] and rows["plan_cache_invalidations"]

    @staticmethod
    def _recorded(run):
        """What a recorder receives when ``run`` runs under one, checked
        against the rows of the maintainer it returns and against the
        same run without one."""
        plain = run()
        with recording(CostRecorder()) as recorder:
            recorded = run()
        assert recorded.all_stats() == plain.all_stats()
        for name in plain.view_names():
            assert recorded.view(name).contents == plain.view(name).contents
        # The rows summed, a dropped view's included.
        totals = recorder.family("view", "plan_cache").as_dict()
        assert totals == recorded.totals.family("view", "plan_cache").as_dict()
        # Every count the rows hold, codegen and analysis ones included,
        # reached the recorder too.
        rows = {name: n for name, n in recorded.totals.snapshot().items() if n}
        assert {name: recorder.get(name) for name in rows} == rows
        assert totals["plan_cache_hits"] and recorder.get("filter_tuples_checked")
        return recorder.snapshot()
