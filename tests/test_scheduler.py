"""Tests for repro.scheduler: self-maintainability, SLAs, the refresh
scheduler, staleness monitoring, and base-free hosting.

Covers the classifier's three verdicts (single-relation, provably empty
join, join obstruction), the analyzer's INFO finding, the maintainer's
backlog/apply_deltas seam, SLA due/violated semantics, priority and
backpressure in the scheduler tick, deterministic monitor reports, the
server wiring, and — via hypothesis — the tentpole equivalence: a
self-maintainable view maintained base-free from shipped deltas alone
agrees byte-for-byte with the full pipeline over random legal update
sequences.
"""

from __future__ import annotations

import random
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    BaseRef,
    Database,
    DurabilityManager,
    Follower,
    MaintenancePolicy,
    ReplicationError,
    ViewMaintainer,
)
from repro.analysis import F_SELF_MAINTAINABLE, Severity, analyze_definition
from repro.errors import MaintenanceError, UnknownViewError
from repro.scheduler import (
    KIND_CONSTRAINT_EMPTY,
    KIND_JOIN,
    KIND_SINGLE_RELATION,
    Monitor,
    RefreshScheduler,
    StalenessSLA,
    TickClock,
    classify_self_maintainability,
)

from tests.conftest import capture_commits


def make_database():
    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 2), (3, 4), (5, 6)])
    db.create_relation("s", ["C", "D"], [(1, 7), (2, 8)])
    return db


# ----------------------------------------------------------------------
# Self-maintainability classification
# ----------------------------------------------------------------------
class TestSelfMaintainability:
    def test_single_relation_views_always_qualify(self):
        db = make_database()
        maintainer = ViewMaintainer(db)
        for expression in (
            BaseRef("r"),
            BaseRef("r").select("A <= 3"),
            BaseRef("r").select("A < B").project(["B"]),
        ):
            maintainer.define_view("v", expression)
            verdict = maintainer.self_maintainability("v")
            assert verdict.self_maintainable
            assert verdict.kind == KIND_SINGLE_RELATION
            assert maintainer.is_self_maintainable("v")
            maintainer.drop_view("v")

    def test_join_views_are_rejected_with_the_obstruction(self):
        db = make_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view(
            "j", BaseRef("r").join(BaseRef("s")).select("A = C")
        )
        verdict = maintainer.self_maintainability("j")
        assert not verdict.self_maintainable
        assert verdict.kind == KIND_JOIN
        assert "s" in verdict.reason or "base" in verdict.reason.lower()
        assert not maintainer.is_self_maintainable("j")

    def test_constraint_empty_join_qualifies(self):
        db = make_database()
        db.declare_constraint("s", "C >= 0")
        maintainer = ViewMaintainer(db)
        # C >= 0 makes A = C and A < 0 unsatisfiable: the view is
        # provably empty in every legal state, hence trivially
        # self-maintainable.
        maintainer.define_view(
            "empty",
            BaseRef("r").join(BaseRef("s")).select("A = C and A < 0"),
        )
        verdict = maintainer.self_maintainability("empty")
        assert verdict.self_maintainable
        assert verdict.kind == KIND_CONSTRAINT_EMPTY
        assert len(maintainer.view("empty").contents) == 0

    def test_classifier_is_standalone_callable(self):
        db = make_database()
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("v", BaseRef("r").select("A <= 3"))
        verdict = classify_self_maintainability(view.definition)
        assert verdict.self_maintainable
        doc = verdict.as_dict()
        assert doc["view"] == "v"
        assert doc["kind"] == KIND_SINGLE_RELATION

    def test_analyzer_emits_the_info_finding(self):
        db = make_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", BaseRef("r").select("A <= 3"))
        findings = analyze_definition(
            maintainer.view("v").definition, db.constraints
        )
        hits = [f for f in findings if f.code == F_SELF_MAINTAINABLE]
        assert len(hits) == 1
        assert hits[0].severity is Severity.INFO
        assert "base_free" in hits[0].message

    def test_analyzer_is_silent_for_join_views(self):
        db = make_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view(
            "j", BaseRef("r").join(BaseRef("s")).select("A = C")
        )
        findings = analyze_definition(
            maintainer.view("j").definition, db.constraints
        )
        assert not [f for f in findings if f.code == F_SELF_MAINTAINABLE]


# ----------------------------------------------------------------------
# Backlog and the apply_deltas seam
# ----------------------------------------------------------------------
class TestBacklogAndApplyDeltas:
    def test_backlog_counts_pending_work(self):
        db = make_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view(
            "d",
            BaseRef("r").select("A <= 3"),
            policy=MaintenancePolicy.DEFERRED,
        )
        assert maintainer.backlog("d") == {
            "pending_relations": 0,
            "pending_delta_size": 0,
            "commits_since_refresh": 0,
            "sequence_lag": 0,
        }
        with db.transact() as txn:
            txn.insert("r", (2, 9))
        with db.transact() as txn:
            txn.insert("r", (6, 1))
            txn.delete("r", (1, 2))
        backlog = maintainer.backlog("d")
        assert backlog["commits_since_refresh"] == 2
        assert backlog["pending_relations"] == 1
        assert backlog["pending_delta_size"] == 3
        assert backlog["sequence_lag"] == 2
        maintainer.refresh("d")
        backlog = maintainer.backlog("d")
        assert backlog["commits_since_refresh"] == 0
        assert backlog["pending_delta_size"] == 0
        assert backlog["sequence_lag"] == 0

    def test_backlog_requires_a_known_view(self):
        maintainer = ViewMaintainer(make_database())
        with pytest.raises(UnknownViewError):
            maintainer.backlog("ghost")

    def test_apply_deltas_equals_the_commit_pipeline(self):
        source = make_database()
        source_maintainer = ViewMaintainer(source)
        mirror = make_database()
        mirror_maintainer = ViewMaintainer(mirror)
        for m in (source_maintainer, mirror_maintainer):
            m.define_view("v", BaseRef("r").select("A <= 3").project(["B"]))
        rng = random.Random(11)
        records = capture_commits(source)
        for _ in range(25):
            with source.transact() as txn:
                txn.insert("r", (rng.randrange(8), rng.randrange(8)))
                if rng.random() < 0.4:
                    txn.insert("s", (rng.randrange(8), rng.randrange(8)))
            # Net-empty commits capture no record: ship whatever is new.
            for record in records:
                mirror_maintainer.apply_deltas(record.txn_id, record.deltas)
            records.clear()
        assert (
            source_maintainer.view("v").contents.counts()
            == mirror_maintainer.view("v").contents.counts()
        )


# ----------------------------------------------------------------------
# Staleness SLAs
# ----------------------------------------------------------------------
class TestStalenessSLA:
    def test_requires_at_least_one_bound(self):
        with pytest.raises(ValueError):
            StalenessSLA()

    def test_bounds_must_be_positive(self):
        with pytest.raises(ValueError):
            StalenessSLA(max_pending_commits=0)
        with pytest.raises(ValueError):
            StalenessSLA(max_lag_ticks=-1)

    def test_due_at_the_bound_violated_strictly_beyond(self):
        sla = StalenessSLA(max_pending_commits=3)
        assert not sla.due(2, 0)
        assert sla.due(3, 0)
        assert not sla.violated(3, 0)
        assert sla.violated(4, 0)
        assert sla.overdue_by(5, 0) == 2

    def test_either_axis_can_trigger(self):
        sla = StalenessSLA(max_pending_commits=10, max_lag_ticks=4)
        assert sla.due(1, 4)
        assert sla.violated(1, 5)
        assert sla.overdue_by(12, 7) == 3

    def test_as_dict_round_trips_bounds(self):
        sla = StalenessSLA(max_pending_commits=7)
        assert sla.as_dict() == {
            "max_pending_commits": 7,
            "max_lag_ticks": None,
        }


# ----------------------------------------------------------------------
# The refresh scheduler
# ----------------------------------------------------------------------
def make_scheduled(batch_limit=4, names=("d1", "d2")):
    db = make_database()
    maintainer = ViewMaintainer(db)
    for name in names:
        maintainer.define_view(
            name,
            BaseRef("r").select("A <= 5"),
            policy=MaintenancePolicy.DEFERRED,
        )
    clock = TickClock()
    scheduler = RefreshScheduler(maintainer, clock=clock, batch_limit=batch_limit)
    return db, maintainer, clock, scheduler


class TestRefreshScheduler:
    def test_sla_on_immediate_view_is_a_configuration_error(self):
        db = make_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", BaseRef("r"))
        scheduler = RefreshScheduler(maintainer)
        with pytest.raises(MaintenanceError):
            scheduler.declare_sla("v", StalenessSLA(max_pending_commits=1))

    def test_lag_ticks_requires_a_declared_sla(self):
        _, _, _, scheduler = make_scheduled()
        with pytest.raises(UnknownViewError):
            scheduler.lag_ticks("d1")

    def test_tick_refreshes_views_at_their_bound(self):
        db, maintainer, clock, scheduler = make_scheduled()
        scheduler.declare_sla("d1", StalenessSLA(max_pending_commits=2))
        with db.transact() as txn:
            txn.insert("r", (1, 1))
        clock.advance(1)
        assert scheduler.tick() == ()  # 1 pending < bound 2
        with db.transact() as txn:
            txn.insert("r", (2, 2))
        clock.advance(1)
        assert scheduler.tick() == ("d1",)
        assert maintainer.backlog("d1")["commits_since_refresh"] == 0
        assert scheduler.counters()["refreshes"] == 1
        assert scheduler.counters()["refreshed_commits"] == 2
        assert scheduler.counters()["sla_violations"] == 0

    def test_lag_bound_fires_without_new_commits(self):
        db, _, clock, scheduler = make_scheduled()
        scheduler.declare_sla("d1", StalenessSLA(max_lag_ticks=3))
        with db.transact() as txn:
            txn.insert("r", (1, 1))
        scheduler.note_commit()
        clock.advance(2)
        assert scheduler.tick() == ()
        clock.advance(1)
        assert scheduler.lag_ticks("d1") == 3
        assert scheduler.tick() == ("d1",)
        assert scheduler.lag_ticks("d1") == 0

    def test_violations_are_counted_strictly_beyond_the_bound(self):
        db, _, clock, scheduler = make_scheduled(batch_limit=1)
        scheduler.declare_sla("d1", StalenessSLA(max_pending_commits=1))
        scheduler.declare_sla("d2", StalenessSLA(max_pending_commits=1))
        for i in range(3):
            with db.transact() as txn:
                txn.insert("r", (10 + i, i))
        clock.advance(1)
        # Both views hold 3 pending commits against a bound of 1: both
        # have missed their SLA; backpressure refreshes only one.
        refreshed = scheduler.tick()
        assert len(refreshed) == 1
        assert scheduler.counters()["sla_violations"] == 2
        assert scheduler.counters()["backpressure_deferrals"] == 1
        assert sum(scheduler.violations().values()) == 2
        # The deferred view is picked up next tick (another violation
        # tick for it, since it is still strictly beyond the bound).
        remaining = scheduler.tick()
        assert len(remaining) == 1
        assert set(refreshed + remaining) == {"d1", "d2"}

    def test_most_overdue_view_wins_the_batch(self):
        db, _, clock, scheduler = make_scheduled(batch_limit=1)
        scheduler.declare_sla("d1", StalenessSLA(max_pending_commits=4))
        scheduler.declare_sla("d2", StalenessSLA(max_pending_commits=1))
        for i in range(4):
            with db.transact() as txn:
                txn.insert("r", (10 + i, i))
        clock.advance(1)
        # d2 is 3 commits over its bound, d1 exactly at its bound.
        assert scheduler.tick() == ("d2",)

    def test_drop_sla_stops_scheduling(self):
        db, _, clock, scheduler = make_scheduled()
        scheduler.declare_sla("d1", StalenessSLA(max_pending_commits=1))
        assert scheduler.drop_sla("d1")
        assert not scheduler.drop_sla("d1")
        with db.transact() as txn:
            txn.insert("r", (1, 1))
        clock.advance(1)
        assert scheduler.tick() == ()

    def test_dropped_view_takes_its_sla_with_it(self):
        db, maintainer, clock, scheduler = make_scheduled(batch_limit=1)
        scheduler.declare_sla("d1", StalenessSLA(max_pending_commits=1))
        scheduler.declare_sla("d2", StalenessSLA(max_pending_commits=1))
        for i in range(2):
            with db.transact() as txn:
                txn.insert("r", (1 + i, i))
        clock.advance(1)
        assert scheduler.tick() == ("d1",)  # d2 left pending and in violation
        maintainer.drop_view("d2")
        # Every later tick used to raise UnknownViewError from backlog().
        with db.transact() as txn:
            txn.insert("r", (4, 4))
        clock.advance(1)
        assert scheduler.tick() == ("d1",)
        assert scheduler.sla_names() == ("d1",)
        assert scheduler.violations() == {"d1": 1}
        # The name may be taken again; the new view starts without an SLA.
        maintainer.define_view(
            "d2", BaseRef("r").select("A <= 5"), policy=MaintenancePolicy.DEFERRED
        )
        scheduler.declare_sla("d2", StalenessSLA(max_lag_ticks=3))
        assert scheduler.violations()["d2"] == 0
        assert scheduler.lag_ticks("d2") == 0

    def test_batch_limit_must_be_positive(self):
        _, maintainer, _, _ = make_scheduled()
        with pytest.raises(ValueError):
            RefreshScheduler(maintainer, batch_limit=0)


# ----------------------------------------------------------------------
# The monitor
# ----------------------------------------------------------------------
class TestMonitor:
    def drive(self):
        db, maintainer, clock, scheduler = make_scheduled(batch_limit=1)
        scheduler.declare_sla("d1", StalenessSLA(max_pending_commits=2))
        monitor = Monitor(maintainer, scheduler)
        monitor.begin(clock.now)
        for i in range(6):
            with db.transact() as txn:
                txn.insert("r", (i % 7, i))
            clock.advance(1)
            scheduler.tick()
        return clock, monitor

    def test_report_before_begin_raises(self):
        _, maintainer, _, scheduler = make_scheduled()
        with pytest.raises(MaintenanceError):
            Monitor(maintainer, scheduler).report(0)

    def test_report_is_deterministic_and_windowed(self):
        clock, monitor = self.drive()
        report = monitor.report(clock.now)
        again = monitor.report(clock.now)
        assert report.as_json() == again.as_json()
        assert report.as_html() == again.as_html()
        data = report.data
        assert data["window"] == {"start": 0, "end": 6, "ticks": 6}
        d1 = data["views"]["d1"]
        assert d1["policy"] == "deferred"
        assert d1["sla"] == {"max_pending_commits": 2, "max_lag_ticks": None}
        assert d1["cost"]["transactions_seen"] > 0
        assert data["scheduler"]["ticks"] == 6
        assert data["scheduler"]["refreshes"] >= 1
        # d2 has no SLA: reported with backlog but no SLA block.
        assert data["views"]["d2"]["sla"] is None

    def test_html_contains_the_view_table(self):
        clock, monitor = self.drive()
        html_text = monitor.report(clock.now).as_html()
        assert html_text.startswith("<!DOCTYPE html>")
        assert "d1" in html_text and "d2" in html_text
        assert "scheduler" in html_text

    def test_monitor_without_scheduler(self):
        db = make_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", BaseRef("r"))
        monitor = Monitor(maintainer)
        monitor.begin(0)
        with db.transact() as txn:
            txn.insert("r", (9, 9))
        report = monitor.report(3)
        assert report.data["scheduler"] is None
        assert report.data["views"]["v"]["cost"]["transactions_seen"] == 1

    def test_view_redefined_inside_the_window_is_diffed_against_zero(self):
        # The re-defined view's counters restart at zero while the
        # baseline is keyed by name: costs once came out as -4.
        db = make_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", BaseRef("r"))
        for i in range(5):
            db.apply(inserts={"r": [(10 + i, i)]})
        monitor = Monitor(maintainer)
        monitor.begin(0)
        maintainer.drop_view("v")
        maintainer.define_view("v", BaseRef("r"))
        db.apply(inserts={"r": [(20, 0)]})
        cost = monitor.report(1).data["views"]["v"]["cost"]
        assert min(cost.values()) >= 0
        assert cost["transactions_seen"] == cost["deltas_applied"] == 1
        assert cost["view_tuples_inserted"] == 1


# ----------------------------------------------------------------------
# Server wiring
# ----------------------------------------------------------------------
class TestServerScheduler:
    def make_server(self):
        from repro.server import ServerConfig, ViewServer

        db = make_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view(
            "d",
            BaseRef("r").select("A <= 5"),
            policy=MaintenancePolicy.DEFERRED,
        )
        config = ServerConfig(
            staleness_slas={"d": StalenessSLA(max_pending_commits=2)},
            scheduler_batch_limit=1,
        )
        return db, maintainer, ViewServer(db, maintainer, config)

    def test_commits_advance_the_clock_and_refresh_due_views(self):
        _, maintainer, server = self.make_server()
        for i in range(4):
            server._op_txn(None, {"insert": {"r": [[i, i]]}})
        assert server.clock.now == 4
        assert server.scheduler.counters()["refreshes"] >= 1
        assert maintainer.backlog("d")["commits_since_refresh"] < 2
        counters = server.recorder.snapshot()
        assert counters.get("server_scheduler_refreshes", 0) >= 1

    def test_stats_op_reports_backlog_and_scheduler(self):
        _, _, server = self.make_server()
        server._op_txn(None, {"insert": {"r": [[8, 8]]}})
        stats = server._op_stats(None, {})
        assert stats["views"]["d"]["backlog"]["commits_since_refresh"] == 1
        block = stats["scheduler"]
        assert block["now"] == 1
        assert block["slas"]["d"]["max_pending_commits"] == 2
        assert block["counters"]["ticks"] == 1

    def test_stats_op_filters_by_view(self):
        from repro.server.protocol import ProtocolError

        _, maintainer, server = self.make_server()
        maintainer.define_view("v", BaseRef("s"))
        stats = server._op_stats(None, {"view": "d"})
        assert set(stats["views"]) == {"d"}
        with pytest.raises(ProtocolError):
            server._op_stats(None, {"view": "ghost"})


# ----------------------------------------------------------------------
# Base-free hosting: the hypothesis equivalence property
# ----------------------------------------------------------------------
#: Self-maintainable (single-relation) view shapes for the property.
BASE_FREE_VIEWS = [
    BaseRef("r"),
    BaseRef("r").select("A <= 3"),
    BaseRef("r").select("A < B + 1"),
    BaseRef("r").project(["B"]),
    BaseRef("r").select("A = B").project(["A"]),
    BaseRef("s").select("C >= 2 or D < 1"),
]

values = st.integers(min_value=0, max_value=5)
statements = st.lists(
    st.tuples(
        st.sampled_from(["r", "s"]),
        st.sampled_from(["insert", "delete"]),
        st.tuples(values, values),
    ),
    min_size=1,
    max_size=6,
)
transactions = st.lists(statements, min_size=1, max_size=8)
view_indices = st.integers(min_value=0, max_value=len(BASE_FREE_VIEWS) - 1)


class TestBaseFreeEquivalence:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(view_indices, view_indices, transactions)
    def test_base_free_follower_matches_full_pipeline(self, vi, vj, txns):
        """The tentpole property: a base-free replica's views equal the
        full replica's byte-for-byte over random legal update streams,
        for every self-maintainable view shape — immediate and
        deferred."""
        directory = tempfile.mkdtemp(prefix="repro-base-free-")
        try:
            db = Database()
            db.create_relation("r", ["A", "B"], [(0, 0), (1, 2), (3, 3)])
            db.create_relation("s", ["C", "D"], [(2, 2), (4, 1)])
            durability = DurabilityManager(db, directory)
            leader = ViewMaintainer(db)
            durability.checkpoint(leader)

            full = Follower(directory)
            bare = Follower(directory, base_free=True)
            for follower in (full, bare):
                follower.define_view("vi", BASE_FREE_VIEWS[vi])
                follower.define_view(
                    "vd",
                    BASE_FREE_VIEWS[vj],
                    policy=MaintenancePolicy.DEFERRED,
                )

            for batch in txns:
                with db.transact() as txn:
                    for name, op, row in batch:
                        getattr(txn, op)(name, row)
            full.poll()
            bare.poll()
            assert full.position == bare.position
            for follower in (full, bare):
                follower.maintainer.quiesce()
            for name in ("vi", "vd"):
                assert (
                    full.view(name).contents.counts()
                    == bare.view(name).contents.counts()
                ), name
            if bare.base_dropped:
                for name in bare.database.relation_names():
                    assert len(bare.database.relation(name)) == 0
        finally:
            shutil.rmtree(directory, ignore_errors=True)


class TestBaseFreeFollowerEdges:
    def test_join_views_are_refused_at_shed_time(self, tmp_path):
        db = make_database()
        durability = DurabilityManager(db, str(tmp_path))
        leader = ViewMaintainer(db)
        durability.checkpoint(leader)
        follower = Follower(str(tmp_path), base_free=True)
        follower.define_view(
            "j", BaseRef("r").join(BaseRef("s")).select("A = C")
        )
        with db.transact() as txn:
            txn.insert("r", (7, 7))
        with pytest.raises(ReplicationError, match="self-maintainable"):
            follower.poll()

    def test_views_cannot_be_added_after_shedding(self, tmp_path):
        db = make_database()
        durability = DurabilityManager(db, str(tmp_path))
        leader = ViewMaintainer(db)
        durability.checkpoint(leader)
        follower = Follower(str(tmp_path), base_free=True)
        follower.define_view("v", BaseRef("r"))
        with db.transact() as txn:
            txn.insert("r", (7, 7))
        assert follower.poll() == 1
        assert follower.base_dropped
        assert follower.base_rows_dropped == 5
        with pytest.raises(ReplicationError, match="shed"):
            follower.define_view("late", BaseRef("s"))

    def test_shed_requires_base_free_mode(self, tmp_path):
        db = make_database()
        durability = DurabilityManager(db, str(tmp_path))
        durability.checkpoint(ViewMaintainer(db))
        follower = Follower(str(tmp_path))
        with pytest.raises(ReplicationError):
            follower.shed_base_copies()
