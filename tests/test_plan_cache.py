"""Tests for compiled maintenance plans and the plan cache.

Covers eager compilation at registration, hit/miss accounting across
commits, DDL-driven invalidation (index create/drop, relation drop,
view re-registration under the same name), the stale-index-binding
regression, registration atomicity when a compile fails, introspection
that leaves the counters alone, byte-for-byte agreement of live commits
vs. WAL replay vs. a changefeed follower executing the same plans, and
property tests that plan reuse never changes view contents compared to
the reference functions, which plan from scratch on every transaction
(``tests/reference.py``).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BaseRef,
    Database,
    DurabilityManager,
    Follower,
    MaintenancePolicy,
    ViewMaintainer,
    check_view_consistency,
    recover,
)
from tests.reference import ReferenceViews
from tests.strategies import SPJ_TABLES, spj_database_rows, spj_expressions
from repro.core.compiled import CompiledViewPlan
from repro.errors import UnknownViewError
from repro.instrumentation import CostRecorder, recording

VIEW_EXPR = (
    BaseRef("r")
    .join(BaseRef("s"))
    .select("A < 10 and B = C")
    .project(["A", "D"])
)


@pytest.fixture
def db():
    database = Database()
    database.create_relation("r", ["A", "B"], [(1, 2), (5, 10)])
    database.create_relation("s", ["C", "D"], [(2, 20), (10, 30)])
    return database


@pytest.fixture
def maintainer(db):
    m = ViewMaintainer(db)
    m.define_view("v", VIEW_EXPR)
    return m


class TestCounting:
    def test_charges_flow_to_recorder(self, db, maintainer):
        # The maintainer counts each hit / miss / invalidation once, and
        # the one increment reaches the recorder too.
        recorder = CostRecorder()
        with recording(recorder):
            db.create_index("s", ["C"])  # invalidation
            db.apply(inserts={"r": [(3, 2)]})  # miss, recompile
            db.apply(inserts={"r": [(4, 2)]})  # hit
        assert recorder.get("plan_cache_misses") == 1
        assert recorder.get("plan_cache_hits") == 1
        assert recorder.get("plan_cache_invalidations") == 1
        assert maintainer.plan_cache_stats() == recorder.family("plan_cache").as_dict()


class TestEagerCompilation:
    def test_plan_exists_right_after_registration(self, db, maintainer):
        plan = maintainer.compiled_plan("v")
        assert isinstance(plan, CompiledViewPlan)
        assert set(plan.screens()) == {"r", "s"}

    def test_commits_hit_the_registration_plan(self, db, maintainer):
        plan = maintainer.compiled_plan("v")
        db.apply(inserts={"r": [(3, 2)]})
        db.apply(inserts={"s": [(2, 40)]})
        assert maintainer.compiled_plan("v") is plan
        stats = maintainer.stats("v")
        assert stats["plan_cache_hits"] == 2
        assert stats["plan_cache_misses"] == 0

    def test_planner_shape_reused_across_transactions(self, db, maintainer):
        plan = maintainer.compiled_plan("v")
        db.apply(inserts={"r": [(3, 2)]})
        planner = plan.planner_for([0])
        db.apply(inserts={"r": [(4, 2)]})
        assert plan.planner_for([0]) is planner

    def test_maintained_contents_stay_correct(self, db, maintainer):
        db.apply(inserts={"r": [(3, 2)], "s": [(2, 40)]})
        db.apply(deletes={"r": [(1, 2)]})
        check_view_consistency(maintainer.view("v"), db.instances())


class TestInvalidation:
    def test_create_index_invalidates_dependent_plans(self, db, maintainer):
        plan = maintainer.compiled_plan("v")
        db.create_index("s", ["C"])
        assert maintainer.compiled_plan("v") is None
        assert maintainer.plan_cache_stats()["plan_cache_invalidations"] == 1
        db.apply(inserts={"r": [(3, 2)]})
        fresh = maintainer.compiled_plan("v")
        assert fresh is not None and fresh is not plan
        assert maintainer.stats("v")["plan_cache_misses"] == 1
        check_view_consistency(maintainer.view("v"), db.instances())

    def test_unrelated_relation_ddl_leaves_plan_cached(self, db, maintainer):
        plan = maintainer.compiled_plan("v")
        db.create_relation("u", ["X"], [(1,)])
        db.create_index("u", ["X"])
        db.drop_relation("u")
        assert maintainer.compiled_plan("v") is plan

    def test_lazy_index_creation_does_not_self_invalidate(self, db, maintainer):
        db.apply(inserts={"r": [(3, 2)]})
        plan = maintainer.compiled_plan("v")
        # The commit lazily created the probe index on s(C) — that must
        # not have evicted the very plan that created it.
        assert db.relation("s").indexes.get(("C",)) is not None
        assert plan is not None
        assert maintainer.plan_cache_stats()["plan_cache_invalidations"] == 0

    def test_lazy_index_creation_is_not_a_ddl_event(self, db, maintainer):
        # The plan asks the operand relation for its probe index; an
        # index nobody dropped changes no plan's meaning, so nothing is
        # broadcast and no plan — its own or a sibling's reading the
        # same relation — is discarded.
        maintainer.define_view("w", BaseRef("s").select("D > 20"))
        events = []
        db.add_ddl_hook(lambda event, name: events.append((event, name)))
        plans = {name: maintainer.compiled_plan(name) for name in ("v", "w")}
        assert not db.relation("s").indexes
        db.apply(inserts={"r": [(3, 2)]})
        assert set(db.relation("s").indexes) == {("C",)}
        assert events == []
        for name, plan in plans.items():
            assert maintainer.compiled_plan(name) is plan
        assert maintainer.plan_cache_stats()["plan_cache_invalidations"] == 0
        # The explicit facade on the same relation still is one.
        db.create_index("s", ["D"])
        assert events == [("create_index", "s")]
        assert maintainer.compiled_plan("v") is None
        assert maintainer.compiled_plan("w") is None

    def test_drop_relation_invalidates(self, db, maintainer):
        # Dropping an operand relation leaves the view unusable, but the
        # plan must be gone immediately, not on next use.
        db.drop_relation("s")
        assert maintainer.compiled_plan("v") is None

    def test_drop_view_invalidates(self, db, maintainer):
        maintainer.drop_view("v")
        with pytest.raises(UnknownViewError):
            maintainer.compiled_plan("v")
        assert maintainer.plan_cache_stats()["plan_cache_invalidations"] == 1

    def test_reregistration_under_same_name_gets_new_plan(self, db, maintainer):
        old_plan = maintainer.compiled_plan("v")
        maintainer.drop_view("v")
        maintainer.define_view(
            "v", BaseRef("r").select("A >= 5").project(["B"])
        )
        new_plan = maintainer.compiled_plan("v")
        assert new_plan is not None and new_plan is not old_plan
        assert new_plan.definition is maintainer.view("v").definition
        assert new_plan.definition is not old_plan.definition
        db.apply(inserts={"r": [(9, 77)]})
        assert (77,) in maintainer.view("v").contents
        check_view_consistency(maintainer.view("v"), db.instances())

    def test_detached_maintainer_stops_observing_ddl(self, db, maintainer):
        plan = maintainer.compiled_plan("v")
        maintainer.detach()
        db.create_index("s", ["C"])
        assert maintainer.compiled_plan("v") is plan


class TestStaleIndexBindings:
    def test_index_dropped_between_commits_forces_replan(self, db, maintainer):
        # First commit: the plan lazily creates and binds s(C).
        db.apply(inserts={"r": [(3, 2)]})
        plan = maintainer.compiled_plan("v")
        assert plan.index_bindings(), "expected a bound probe index"
        # Drop the index out from under the cached plan.  The dropped
        # HashIndex object stops being maintained, so probing it after
        # further commits would silently miss rows.
        assert db.drop_index("s", ("C",))
        assert maintainer.compiled_plan("v") is None
        # Grow s (the dead index never sees this row), then touch r: a
        # correct maintainer must re-plan rather than probe the corpse.
        db.apply(inserts={"s": [(2, 99)]})
        db.apply(inserts={"r": [(4, 2)]})
        replanned = maintainer.compiled_plan("v")
        assert replanned is not None and replanned is not plan
        assert (4, 99) in maintainer.view("v").contents
        check_view_consistency(maintainer.view("v"), db.instances())

    def test_stale_binding_would_have_missed_rows(self, db, maintainer):
        # Demonstrate the hazard the invalidation prevents: the dropped
        # index object genuinely does not contain later insertions.
        db.apply(inserts={"r": [(3, 2)]})
        dead = db.relation("s").indexes.get(("C",))
        assert dead is not None
        db.drop_index("s", ("C",))
        db.apply(inserts={"s": [(2, 99)]})
        assert not dead.probe((2,)) & {(2, 99)}  # the corpse is stale
        live = db.relation("s").indexes.get(("C",))
        assert live is None or (2, 99) in live.probe((2,))


class TestRegistrationAtomicity:
    def test_failed_compile_leaves_no_trace(self, db, maintainer, monkeypatch):
        import repro.core.compiled as compiled
        from repro.errors import MaintenanceError

        def broken_compile(source, name, filename):
            raise MaintenanceError(f"cannot compile {filename}")

        monkeypatch.setattr(compiled, "compile_kernel", broken_compile)
        with pytest.raises(MaintenanceError, match="cannot compile"):
            maintainer.define_view("w", BaseRef("r").select("A < 3"))
        assert maintainer.view_names() == ("v",)
        assert maintainer.compiled_plan("v") is not None
        # Commits still work: nothing half-registered is walked.
        db.apply(inserts={"r": [(2, 2)]})
        monkeypatch.undo()
        # The name was never taken.
        view = maintainer.define_view("w", BaseRef("r").select("A < 3"))
        assert view.contents.counts() == {(1, 2): 1, (2, 2): 1}
        assert maintainer.compiled_plan("w") is not None
        maintainer.verify_all()


class TestIntrospectionIsNotMaintenance:
    def test_hits_equal_maintenance_calls(self, db, maintainer):
        db.apply(inserts={"r": [(3, 2)]})
        db.apply(inserts={"s": [(2, 21)]})
        for _ in range(3):
            maintainer.explain("v", ["r"])
            maintainer.kernel_source("v")
            maintainer.recommended_indexes("v")
        stats = maintainer.stats("v")
        assert stats["transactions_seen"] == 2
        assert (stats["plan_cache_hits"], stats["plan_cache_misses"]) == (2, 0)
        assert maintainer.plan_cache_stats()["plan_cache_hits"] == 2

    def test_introspection_after_invalidation_compiles_uncounted(
        self, db, maintainer
    ):
        db.create_index("r", ["A"])
        assert maintainer.compiled_plan("v") is None
        assert "compiled plan" in maintainer.explain("v", ["r"])
        assert maintainer.compiled_plan("v") is not None
        stats = maintainer.stats("v")
        assert (stats["plan_cache_hits"], stats["plan_cache_misses"]) == (0, 0)
        db.apply(inserts={"r": [(3, 2)]})
        stats = maintainer.stats("v")
        assert (stats["plan_cache_hits"], stats["plan_cache_misses"]) == (1, 0)
        check_view_consistency(maintainer.view("v"), db.instances())


class TestReplicationAgreement:
    def _make_leader(self, directory):
        database = Database()
        database.create_relation("r", ["A", "B"], [(1, 2), (5, 10)])
        database.create_relation("s", ["C", "D"], [(2, 20), (10, 30)])
        durability = DurabilityManager(database, directory)
        m = ViewMaintainer(database)
        m.define_view("v", VIEW_EXPR)
        m.define_view(
            "d",
            BaseRef("r").select("A >= 5").project(["B"]),
            policy=MaintenancePolicy.DEFERRED,
        )
        durability.checkpoint(m)
        return database, durability, m

    def test_live_replay_and_follower_agree_byte_for_byte(self, tmp_path):
        directory = str(tmp_path)
        database, durability, leader = self._make_leader(directory)
        follower = Follower(directory)
        follower.define_view("v", VIEW_EXPR)
        rng = random.Random(3)
        for _ in range(25):
            with database.transact() as txn:
                txn.insert("r", (rng.randrange(12), rng.randrange(12)))
                if rng.random() < 0.4:
                    txn.insert("s", (rng.randrange(12), rng.randrange(40)))
        leader.refresh("d")
        durability.close()

        recovery, recovered = recover(
            directory,
            setup=lambda rec, m: (
                rec.restore_view(m, "v", VIEW_EXPR),
                rec.restore_view(
                    m, "d", BaseRef("r").select("A >= 5").project(["B"])
                ),
            ),
        )
        recovered.refresh("d")
        follower.poll()

        live = dict(leader.view("v").contents.items())
        replayed = dict(recovered.view("v").contents.items())
        followed = dict(follower.maintainer.view("v").contents.items())
        assert live == replayed == followed
        assert dict(leader.view("d").contents.items()) == dict(
            recovered.view("d").contents.items()
        )
        # All three executed cached compiled plans, not one-off ones.
        assert leader.plan_cache_stats()["plan_cache_hits"] > 0
        assert recovered.plan_cache_stats()["plan_cache_hits"] > 0
        assert follower.maintainer.plan_cache_stats()["plan_cache_hits"] > 0


@st.composite
def transaction_batches(draw):
    """A short workload of random single/multi-relation transactions."""
    n = draw(st.integers(min_value=1, max_value=8))
    batches = []
    for _ in range(n):
        r_rows = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=8),
                    st.integers(min_value=0, max_value=8),
                ),
                max_size=3,
            )
        )
        s_rows = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=8),
                    st.integers(min_value=0, max_value=30),
                ),
                max_size=3,
            )
        )
        batches.append((r_rows, s_rows))
    return batches


class TestPlanReuseProperty:
    @settings(max_examples=40, deadline=None)
    @given(batches=transaction_batches())
    def test_plan_reuse_never_changes_view_contents(self, batches):
        def run(engine):
            database = Database()
            database.create_relation("r", ["A", "B"])
            database.create_relation("s", ["C", "D"])
            m = engine(database)
            m.define_view("v", VIEW_EXPR)
            for r_rows, s_rows in batches:
                with database.transact() as txn:
                    for row in r_rows:
                        txn.insert("r", row)
                    for row in s_rows:
                        txn.insert("s", row)
            return database, m

        cached_db, cached = run(ViewMaintainer)
        fresh_db, fresh = run(ReferenceViews)
        assert cached.view("v").contents == fresh.view("v").contents
        check_view_consistency(cached.view("v"), cached_db.instances())


class TestRandomSpjViewAgreement:
    """Cached plans vs per-transaction planning on the simulator's view class.

    The view population is exactly the one the deterministic simulation
    harness runs (tests/strategies.spj_expressions delegates to
    repro.simulation.workload.random_spj_expression), so any plan-cache
    divergence found here has a replayable simulator counterpart.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        expression=spj_expressions(),
        workload_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_cached_plans_agree_with_fresh_planning(
        self, expression, workload_seed
    ):
        def run(engine):
            rng = random.Random(workload_seed)
            database = Database()
            for name, rows in spj_database_rows(random.Random(workload_seed)).items():
                database.create_relation(name, SPJ_TABLES[name], rows)
            maintainer = engine(database)
            maintainer.define_view("v", expression)
            for _ in range(6):
                with database.transact() as txn:
                    for _ in range(rng.randint(1, 3)):
                        name = rng.choice(sorted(SPJ_TABLES))
                        row = tuple(
                            rng.randint(0, 6) for _ in SPJ_TABLES[name]
                        )
                        if rng.random() < 0.6:
                            txn.insert(name, row)
                        else:
                            txn.delete(name, row)
            return database, maintainer

        cached_db, cached = run(ViewMaintainer)
        fresh_db, fresh = run(ReferenceViews)
        assert dict(cached.view("v").contents.items()) == dict(
            fresh.view("v").contents.items()
        )
        check_view_consistency(cached.view("v"), cached_db.instances())
        check_view_consistency(fresh.view("v"), fresh_db.instances())
