"""Property suite for aggregate view maintenance via generalized counting.

The contract under test: differentially maintaining an aggregate view
(per-group COUNT/SUM/AVG/MIN/MAX accumulators folded from the Section 5
delta pipeline) produces contents *byte-for-byte equal* — multiplicity
counters included — to a full recompute from the base relations, on
every execution path the engine has:

* the immediate commit path, with the generated kernel and with the
  reference fold of ``tests/reference.py`` (and counter-for-counter
  parity between them),
* deferred refresh at a quiescent point,
* kill-and-recover (checkpoint + WAL replay through ``recover``),
* followers, both full-replica and base-free.

Streams and view specs are drawn by hypothesis through the simulator's
generators (``tests/strategies.py``), so shrinking works on seeds while
the populations match the simulation harness exactly.  The
deterministic classes at the bottom pin the MIN/MAX delete edge cases
the accumulators were designed around: support-count exhaustion, group
disappearance, re-insert after an empty group, and duplicate rows with
equal aggregate input.
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BaseRef,
    Database,
    DurabilityManager,
    Follower,
    MaintenancePolicy,
    ViewMaintainer,
    recover,
)
from repro.algebra.evaluate import evaluate
from repro.instrumentation import CostRecorder, recording
from repro.simulation.workload import BASE_TABLES
from tests.reference import ReferenceViews
from tests.strategies import aggregate_expressions, update_streams

#: The maintainer (generated fold kernel) and the reference functions
#: (``AggregateState.fold``): same ``define_view`` / ``view`` surface.
ENGINES = (ViewMaintainer, ReferenceViews)


def build_database(initial):
    database = Database()
    for name in sorted(BASE_TABLES):
        database.create_relation(name, BASE_TABLES[name], initial[name])
    return database


def replay(database, transactions):
    for ops in transactions:
        with database.transact() as txn:
            for op, name, row in ops:
                if op == "ins":
                    txn.insert(name, row)
                else:
                    txn.delete(name, row)


def recompute(expression, database):
    return evaluate(expression, database.instances()).counts()


def assert_matches_recompute(maintainer, name, database):
    view = maintainer.view(name)
    want = recompute(view.definition.expression, database)
    have = view.contents.counts()
    assert have == want, f"{name}: differential {have!r} != recompute {want!r}"
    # The internal support bags must render exactly the visible rows.
    state = view.aggregate_state
    assert state is not None
    assert state.visible_relation().counts() == have


# ----------------------------------------------------------------------
# The tentpole property: differential == recompute, both engines
# ----------------------------------------------------------------------

class TestDifferentialEqualsRecompute:
    @given(expression=aggregate_expressions(), stream=update_streams())
    @settings(max_examples=40, deadline=None)
    def test_immediate_commit_path(self, expression, stream):
        initial, transactions = stream
        for engine in ENGINES:
            database = build_database(initial)
            maintainer = engine(database)
            maintainer.define_view("agg", expression)
            replay(database, transactions)
            assert_matches_recompute(maintainer, "agg", database)

    @given(expression=aggregate_expressions(), stream=update_streams())
    @settings(max_examples=25, deadline=None)
    def test_per_transaction_agreement(self, expression, stream):
        # Not just at the end: the view must agree after *every* commit.
        initial, transactions = stream
        database = build_database(initial)
        maintainer = ViewMaintainer(database)
        maintainer.define_view("agg", expression)
        for ops in transactions:
            replay(database, [ops])
            assert_matches_recompute(maintainer, "agg", database)

    @given(expression=aggregate_expressions(), stream=update_streams())
    @settings(max_examples=25, deadline=None)
    def test_deferred_refresh(self, expression, stream):
        initial, transactions = stream
        database = build_database(initial)
        maintainer = ViewMaintainer(database)
        maintainer.define_view(
            "agg", expression, policy=MaintenancePolicy.DEFERRED
        )
        replay(database, transactions)
        maintainer.quiesce()
        assert_matches_recompute(maintainer, "agg", database)

    @given(expression=aggregate_expressions(), stream=update_streams())
    @settings(max_examples=25, deadline=None)
    def test_kernel_reference_counter_parity(self, expression, stream):
        # Same stream, both engines: identical contents and identical
        # abstract aggregate work — the generated kernel may batch
        # differently but must fold the same rows and touch the same
        # groups as the reference fold.
        initial, transactions = stream
        observed = {}
        for engine in ENGINES:
            database = build_database(initial)
            maintainer = engine(database)
            maintainer.define_view("agg", expression)
            recorder = CostRecorder()
            with recording(recorder):
                replay(database, transactions)
            observed[engine] = (
                maintainer.view("agg").contents.counts(),
                recorder.get("aggregate_rows_folded"),
                recorder.get("aggregate_groups_touched"),
                recorder.get("codegen_fallback_tuples"),
            )
        kernel, reference = observed[ViewMaintainer], observed[ReferenceViews]
        assert kernel[:3] == reference[:3]
        assert kernel[3] == 0, "generated kernels must not fall back"


# ----------------------------------------------------------------------
# Durability: kill-and-recover, followers
# ----------------------------------------------------------------------

class TestDurabilityPaths:
    @given(
        expression=aggregate_expressions(),
        stream=update_streams(max_txns=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_wal_crash_and_replay(self, expression, stream):
        initial, transactions = stream
        with tempfile.TemporaryDirectory() as directory:
            database = build_database(initial)
            durability = DurabilityManager(database, directory)
            maintainer = ViewMaintainer(database)
            maintainer.define_view("agg", expression)
            durability.checkpoint(maintainer)
            replay(database, transactions)
            expected = maintainer.view("agg").contents.counts()
            del database, durability, maintainer  # crash: nothing closed

            recovery, recovered = recover(
                directory,
                lambda rec, m: rec.restore_view(m, "agg", expression),
                verify=True,
            )
            assert recovery.tail_damage is None
            assert recovered.view("agg").contents.counts() == expected
            assert_matches_recompute(recovered, "agg", recovery.database)

    @given(
        expression=aggregate_expressions(),
        stream=update_streams(max_txns=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_mid_stream_checkpoint_restores_support_bags(
        self, expression, stream
    ):
        # A checkpoint taken after updates persists the aggregate's
        # *core support relation*; restore must rebuild the accumulators
        # from it, then fold the WAL tail on top.
        initial, transactions = stream
        half = max(1, len(transactions) // 2)
        with tempfile.TemporaryDirectory() as directory:
            database = build_database(initial)
            durability = DurabilityManager(database, directory)
            maintainer = ViewMaintainer(database)
            maintainer.define_view("agg", expression)
            durability.checkpoint(maintainer)
            replay(database, transactions[:half])
            durability.checkpoint(maintainer)
            replay(database, transactions[half:])
            expected = maintainer.view("agg").contents.counts()
            del database, durability, maintainer

            recovery, recovered = recover(
                directory,
                lambda rec, m: rec.restore_view(m, "agg", expression),
                verify=True,
            )
            assert recovered.view("agg").contents.counts() == expected

    @given(
        expression=aggregate_expressions(),
        stream=update_streams(max_txns=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_follower_converges(self, expression, stream):
        initial, transactions = stream
        with tempfile.TemporaryDirectory() as directory:
            database = build_database(initial)
            durability = DurabilityManager(database, directory)
            maintainer = ViewMaintainer(database)
            durability.checkpoint(maintainer)
            follower = Follower(directory)
            follower.define_view("agg", expression)
            replay(database, transactions)
            follower.poll()
            assert follower.lag() == 0
            want = recompute(expression, database)
            assert follower.view("agg").contents.counts() == want

    @given(
        expression=aggregate_expressions(max_operands=1, allow_minmax=False),
        stream=update_streams(max_txns=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_base_free_follower_converges(self, expression, stream):
        # The self-maintainable subset (single relation, no MIN/MAX)
        # must survive shedding the base replica: the accumulators alone
        # carry the view through the delta stream.
        initial, transactions = stream
        with tempfile.TemporaryDirectory() as directory:
            database = build_database(initial)
            durability = DurabilityManager(database, directory)
            maintainer = ViewMaintainer(database)
            durability.checkpoint(maintainer)
            follower = Follower(directory, base_free=True)
            follower.define_view("agg", expression)
            replay(database, transactions)
            follower.poll()
            want = recompute(expression, database)
            assert follower.view("agg").contents.counts() == want


# ----------------------------------------------------------------------
# MIN/MAX delete edge cases (deterministic)
# ----------------------------------------------------------------------

MINMAX_VIEW = BaseRef("r").project(["A", "C"]).aggregate(
    ["A"], [("max", "C", "top"), ("min", "C", "bottom")]
)


class TestMinMaxDeletes:
    def _engine(self, rows, engine):
        database = Database()
        database.create_relation("r", ["A", "B", "C"], rows)
        maintainer = engine(database)
        maintainer.define_view("mm", MINMAX_VIEW)
        return database, maintainer

    def rows(self, maintainer):
        return dict(maintainer.view("mm").contents.counts())

    def test_support_count_exhaustion(self):
        # Two distinct base rows project to the SAME core row (1, 9):
        # its support count is 2, so deleting one base row must NOT
        # retire the max — only the second delete exhausts the value.
        for engine in ENGINES:
            database, maintainer = self._engine(
                [(1, 10, 9), (1, 20, 9), (1, 30, 4)], engine
            )
            database.apply(deletes={"r": [(1, 10, 9)]})
            assert self.rows(maintainer) == {(1, 9, 4): 1}
            database.apply(deletes={"r": [(1, 20, 9)]})
            assert self.rows(maintainer) == {(1, 4, 4): 1}

    def test_group_disappearance(self):
        for engine in ENGINES:
            database, maintainer = self._engine(
                [(1, 10, 9), (2, 10, 5)], engine
            )
            database.apply(deletes={"r": [(1, 10, 9)]})
            # Group 1 is gone entirely — no row with NULL-ish extremes.
            assert self.rows(maintainer) == {(2, 5, 5): 1}
            database.apply(deletes={"r": [(2, 10, 5)]})
            assert self.rows(maintainer) == {}

    def test_reinsert_after_empty(self):
        for engine in ENGINES:
            database, maintainer = self._engine([(1, 10, 9)], engine)
            database.apply(deletes={"r": [(1, 10, 9)]})
            assert self.rows(maintainer) == {}
            database.apply(inserts={"r": [(1, 40, 3)]})
            # The group reappears with fresh extremes, no ghost of the
            # old max lingering in a stale support bag.
            assert self.rows(maintainer) == {(1, 3, 3): 1}

    def test_duplicate_rows_with_equal_aggregate_input(self):
        # Distinct base rows, equal aggregated value: (1,10,9) and
        # (1,20,9) are different tuples whose C both equal 9.  Deleting
        # one leaves the other still supporting max=9.
        for engine in ENGINES:
            database, maintainer = self._engine(
                [(1, 10, 9), (1, 20, 9)], engine
            )
            database.apply(deletes={"r": [(1, 20, 9)]})
            assert self.rows(maintainer) == {(1, 9, 9): 1}
            database.apply(deletes={"r": [(1, 10, 9)]})
            assert self.rows(maintainer) == {}

    def test_global_minmax_group_lifecycle(self):
        # Empty GROUP BY: the single () group must vanish when the last
        # row goes and come back on re-insert — same lifecycle as keyed
        # groups, exercised through the global-aggregate rendering.
        view = BaseRef("r").aggregate([], [("max", "C", "top")])
        for engine in ENGINES:
            database = Database()
            database.create_relation("r", ["A", "B", "C"], [(1, 1, 7)])
            maintainer = engine(database)
            maintainer.define_view("g", view)
            assert dict(maintainer.view("g").contents.counts()) == {(7,): 1}
            database.apply(deletes={"r": [(1, 1, 7)]})
            assert dict(maintainer.view("g").contents.counts()) == {}
            database.apply(inserts={"r": [(2, 2, 3)]})
            assert dict(maintainer.view("g").contents.counts()) == {(3,): 1}


# ----------------------------------------------------------------------
# Accumulator semantics pinned by hand
# ----------------------------------------------------------------------

class TestAccumulatorSemantics:
    def test_avg_is_floor_division(self):
        database = Database()
        database.create_relation("r", ["A", "B"], [(1, 3), (1, 4)])
        maintainer = ViewMaintainer(database)
        maintainer.define_view(
            "a", BaseRef("r").aggregate(["A"], [("avg", "B", "mean")])
        )
        # (3 + 4) // 2 == 3 — floor, matching the recompute evaluator.
        assert dict(maintainer.view("a").contents.counts()) == {(1, 3): 1}
        want = recompute(maintainer.view("a").definition.expression, database)
        assert maintainer.view("a").contents.counts() == want

    def test_count_and_sum_track_deletes(self):
        database = Database()
        database.create_relation("r", ["A", "B"], [(1, 5), (1, 7), (2, 1)])
        maintainer = ViewMaintainer(database)
        maintainer.define_view(
            "c",
            BaseRef("r").aggregate(
                ["A"], [("count", None, "n"), ("sum", "B", "total")]
            ),
        )
        assert dict(maintainer.view("c").contents.counts()) == {
            (1, 2, 12): 1,
            (2, 1, 1): 1,
        }
        database.apply(deletes={"r": [(1, 5)]}, inserts={"r": [(2, 9)]})
        assert dict(maintainer.view("c").contents.counts()) == {
            (1, 1, 7): 1,
            (2, 2, 10): 1,
        }

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_duplicate_insert_is_a_noop(self, data):
        # Set semantics on the commit path: re-inserting a present row
        # must leave every accumulator untouched.
        expression = data.draw(aggregate_expressions(max_operands=1))
        database = Database()
        for name in sorted(BASE_TABLES):
            database.create_relation(name, BASE_TABLES[name], [(1, 2), (3, 4)])
        maintainer = ViewMaintainer(database)
        maintainer.define_view("agg", expression)
        before = maintainer.view("agg").contents.counts()
        for name in sorted(BASE_TABLES):
            database.apply(inserts={name: [(1, 2)]})
        assert maintainer.view("agg").contents.counts() == before
        assert_matches_recompute(maintainer, "agg", database)
