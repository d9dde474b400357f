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

import re
import tempfile

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
    recover,
)
from repro.algebra.relation import Delta
from repro.baselines.full_reevaluation import FullReevaluationMaintainer
from repro.errors import MaintenanceError, ViewDefinitionError, ViewQuarantinedError
from repro.extensions.estimator import AdaptiveMaintainer
from repro.instrumentation import CostRecorder, recording
from repro.simulation.workload import BASE_TABLES
from tests.reference import ReferenceViews, evaluate
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


# ----------------------------------------------------------------------
# Accumulators: the cost law, soundness under any stream, all-or-nothing
# ----------------------------------------------------------------------

#: Every accumulator kind at once: total, Σ for SUM and AVG, both
#: extrema of one input and one extremum of another.
WIDE_COLUMNS = [
    ("count", None, "n"),
    ("sum", "a", "total"),
    ("avg", "a", "mean"),
    ("min", "a", "lo"),
    ("max", "a", "hi"),
    ("max", "b", "top"),
]


def _one_big_group(support_rows):
    """r(g, a, b): group 1 holds ``support_rows`` rows, a = 100, 101, …"""
    database = Database()
    database.create_relation(
        "r",
        ["g", "a", "b"],
        [(1, 100 + i, i % 7) for i in range(support_rows)] + [(2, 5, 5), (2, 6, 1)],
    )
    maintainer = ViewMaintainer(database)
    maintainer.define_view("v", BaseRef("r").aggregate(["g"], WIDE_COLUMNS))
    # The first commit compiles the plan; it is not what is measured.
    database.apply(inserts={"r": [(3, 0, 0)]})
    return database, maintainer


def _counters_of(database, **changes):
    recorder = CostRecorder()
    with recording(recorder):
        database.apply(**changes)
    return dict(recorder.counters)


class TestFoldCostLaw:
    def test_fold_work_does_not_grow_with_the_group(self):
        # The same insert + interior delete against a group of 10 and of
        # 10 000 support rows: every counter identical, no bag rescanned.
        observed = []
        for support_rows in (10, 10_000):
            database, maintainer = _one_big_group(support_rows)
            counters = _counters_of(
                database,
                inserts={"r": [(1, 50, 3), (2, 9, 9)]},
                deletes={"r": [(1, 105, 5)]},
            )
            assert counters["aggregate_rows_folded"] == 3
            assert counters["aggregate_groups_touched"] == 2
            assert "aggregate_support_rescanned" not in counters
            assert_matches_recompute(maintainer, "v", database)
            observed.append(counters)
        assert observed[0] == observed[1]

    def test_removing_the_extremum_rescans_its_bag_once(self):
        for support_rows in (10, 200):
            database, maintainer = _one_big_group(support_rows)
            state = maintainer.view("v").aggregate_state
            # Group 1 loses its min *and* its max of ``a`` in one fold
            # (one rescan, not two); group 2 loses its max of ``b``;
            # group 3 loses its only row (nothing left to scan).
            counters = _counters_of(
                database,
                deletes={
                    "r": [
                        (1, 100, 0),
                        (1, 100 + support_rows - 1, (support_rows - 1) % 7),
                        (2, 5, 5),
                        (3, 0, 0),
                    ]
                },
            )
            assert counters["aggregate_support_rescanned"] == (
                len(state.groups[(1,)]) + len(state.groups[(2,)])
            )
            assert len(state.groups[(1,)]) == support_rows - 2
            assert (3,) not in state.groups
            assert state.accumulator_drift() == []
            assert_matches_recompute(maintainer, "v", database)

    def test_generated_source_iterates_a_bag_in_one_branch_only(self):
        _, maintainer = _one_big_group(2)
        lines = maintainer.compiled_plan("v")._aggregate_kernel[0].splitlines()
        assert not any("render" in line for line in lines)

        def depth(line):
            return len(line) - len(line.lstrip())

        iterates_a_bag = re.compile(
            r"\bfor\b[^:]*\bin\s+(bag|groups)\b"
            r"|\b(bag|groups\[\w+\])\.(items|values|keys)\("
        )
        (branch,) = [n for n, line in enumerate(lines) if "in stale.items()" in line]
        block_end = next(
            n
            for n in range(branch + 1, len(lines))
            if lines[n].strip() and depth(lines[n]) <= depth(lines[branch])
        )
        scans = [n for n, line in enumerate(lines) if iterates_a_bag.search(line)]
        # Every bag scan sits inside the extremum-exhaustion block.
        assert scans and all(branch < n < block_end for n in scans)
        # No extremum, no branch: COUNT/SUM/AVG never look inside a bag.
        database = Database()
        database.create_relation("r", ["g", "a"], [(1, 2)])
        totals = ViewMaintainer(database)
        totals.define_view(
            "t", BaseRef("r").aggregate(["g"], [("avg", "a", "mean")])
        )
        database.apply(inserts={"r": [(1, 3)]})
        source = totals.compiled_plan("t")._aggregate_kernel[0]
        assert "stale" not in source
        assert not any(map(iterates_a_bag.search, source.splitlines()))

    def test_a_surviving_copy_keeps_the_extremum_without_a_rescan(self):
        # Two base rows project onto the core row (1, 9): deleting one
        # leaves the value supported, so nothing is rescanned.
        database = Database()
        database.create_relation(
            "r", ["A", "B", "C"], [(1, 10, 9), (1, 20, 9), (1, 30, 4)]
        )
        maintainer = ViewMaintainer(database)
        maintainer.define_view("mm", MINMAX_VIEW)
        counters = _counters_of(database, deletes={"r": [(1, 10, 9)]})
        assert "aggregate_support_rescanned" not in counters
        counters = _counters_of(database, deletes={"r": [(1, 20, 9)]})
        assert counters["aggregate_support_rescanned"] == 1


_small_rows = st.tuples(
    st.integers(0, 2), st.integers(-4, 4), st.integers(-2, 2)
)


class TestAccumulatorsEqualARebuild:
    @given(
        keys=st.sampled_from([["g"], []]),
        initial=st.sets(_small_rows, max_size=8),
        steps=st.lists(
            st.lists(st.tuples(st.booleans(), _small_rows), min_size=1, max_size=5),
            max_size=12,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_after_every_fold_of_a_legal_stream(self, keys, initial, steps):
        # Tiny domains on purpose: negative inputs (floor-division AVG),
        # rows that differ only in the column an extremum ignores,
        # groups that vanish and come back, and the () global group.
        database = Database()
        database.create_relation("r", ["g", "a", "b"], sorted(initial))
        maintainer = ViewMaintainer(database)
        maintainer.define_view("v", BaseRef("r").aggregate(keys, WIDE_COLUMNS))
        state = maintainer.view("v").aggregate_state
        assert state.accumulator_drift() == []
        held = set(initial)
        for step in steps:
            inserts = {row for delete, row in step if not delete} - held
            deletes = {row for delete, row in step if delete} & held
            database.apply(
                inserts={"r": sorted(inserts)}, deletes={"r": sorted(deletes)}
            )
            held = (held | inserts) - deletes
            assert state.accumulator_drift() == []
            assert state.accumulators.keys() == state.groups.keys()
            assert_matches_recompute(maintainer, "v", database)

    def test_drift_is_reported(self):
        database, maintainer = _one_big_group(4)
        state = maintainer.view("v").aggregate_state
        state.accumulators[(1,)][1] += 1
        del state.accumulators[(2,)]
        assert state.accumulator_drift() == [(1,), (2,)]


def _snapshot(view):
    state = view.aggregate_state
    return repr(
        (
            {key: dict(bag) for key, bag in state.groups.items()},
            {key: list(acc) for key, acc in state.accumulators.items()},
            view.contents.counts(),
        )
    )


class TestUnderflowIsAllOrNothing:
    # Legal rows first, the underflow last: a fold that mutates as it
    # goes has already changed groups 1 and 2 when it finds out.
    INSERTED = {(1, 7, 7): 1, (4, 1, 1): 1}
    DELETED = {(1, 100, 0): 1, (2, 5, 5): 1, (2, 6, 1): 2}

    def test_kernel_fold_leaves_no_trace(self):
        database, maintainer = _one_big_group(6)
        view = maintainer.view("v")
        before = _snapshot(view)
        with pytest.raises(MaintenanceError, match=r"core row \(2, 6, 1\)"):
            maintainer.compiled_plan("v").fold_aggregate(
                view.aggregate_state, self.INSERTED, self.DELETED, [], []
            )
        assert _snapshot(view) == before
        # …and the view is still maintainable afterwards.
        database.apply(deletes={"r": [(2, 6, 1)]})
        assert_matches_recompute(maintainer, "v", database)

    def test_a_failed_maintenance_keeps_what_it_counted(self):
        # Through the public seam a base-free host feeds: the screen and
        # the row kernel ran and the fold's rows were handed over before
        # the underflow was found, and all of that stays counted — the
        # numbers are what fbd8c76, which incremented as it went, reads
        # after the same call.
        database, maintainer = _one_big_group(6)
        view = maintainer.view("v")
        before = _snapshot(view)
        row_before = maintainer.stats("v")
        codegen_before = maintainer.codegen_stats().as_dict()
        delta = Delta.from_counts(
            database.relation("r").schema, self.INSERTED, self.DELETED
        )
        recorder = CostRecorder()
        # The underflow quarantines the view: the deltas stand, and it
        # keeps its contents until a refresh rebuilds it.
        with pytest.raises(ViewQuarantinedError, match=r"core row \(2, 6, 1\)"):
            with recording(recorder):
                maintainer.apply_deltas(99, {"r": delta})
        assert _snapshot(view) == before
        stats = maintainer.stats("v")
        assert stats.pop("quarantined")["txn"] == 99
        moved = {
            name: value - row_before[name]
            for name, value in stats.items()
            if value != row_before[name]
        }
        assert moved == {
            "transactions_seen": 1,
            "plan_cache_hits": 1,
            "tuples_screened": 5,
        }
        codegen = maintainer.codegen_stats().as_dict()
        assert codegen["codegen_batch_rows"] == codegen_before["codegen_batch_rows"] + 11
        assert recorder.counters == {
            "transactions_seen": 1,
            "plan_cache_hits": 1,
            "tuples_screened": 5,
            "filter_tuples_checked": 5,
            "codegen_batch_rows": 11,
            "differential_updates": 1,
            "truth_table_rows": 1,
            "delta_rows_evaluated": 1,
            "tuples_scanned": 5,
            "aggregate_rows_folded": 5,
        }
        # …and once rebuilt, the next legal commit is maintained.
        assert maintainer.refresh("v")
        database.apply(deletes={"r": [(2, 6, 1)]}, inserts={"r": [(1, 7, 7)]})
        assert maintainer.stats("v")["deltas_applied"] == row_before["deltas_applied"] + 1
        assert_matches_recompute(maintainer, "v", database)

    def test_reference_fold_leaves_no_trace(self):
        database, maintainer = _one_big_group(6)
        view = maintainer.view("v")
        before = _snapshot(view)
        *_, bad = view.aggregate_state.fold(self.INSERTED, self.DELETED)
        assert bad == (2, 6, 1)
        assert _snapshot(view) == before

    def test_a_missing_group_underflows_too(self):
        database, maintainer = _one_big_group(2)
        state = maintainer.view("v").aggregate_state
        before = _snapshot(maintainer.view("v"))
        *_, bad = state.fold({}, {(9, 9, 9): 1})
        assert bad == (9, 9, 9)
        kernel = maintainer.compiled_plan("v")._aggregate_kernel[1]
        *_, bad = kernel(state.groups, state.accumulators, {}, {(9, 9, 9): 1})
        assert bad == (9, 9, 9)
        assert _snapshot(maintainer.view("v")) == before


class TestReplaceContents:
    EXPRESSION = BaseRef("r").aggregate(["g"], [("min", "m", "lo"), ("count", None, "n")])

    def test_full_reevaluation_keeps_the_aggregate_state_current(self):
        # Regression: the baseline replaced ``contents`` only, so the
        # bags (and with them ``stored_contents()``, what a checkpoint
        # persists) stayed at the state the view was defined in.
        database = Database()
        database.create_relation("r", ["g", "m"], [(1, 5)])
        baseline = FullReevaluationMaintainer(database)
        view = baseline.define_view("v", self.EXPRESSION)
        database.apply(inserts={"r": [(1, 2)]})
        assert dict(view.contents.counts()) == {(1, 2, 2): 1}
        state = view.aggregate_state
        assert state.visible_relation().counts() == view.contents.counts()
        assert view.stored_contents().counts() == database.relation("r").counts()
        assert state.accumulator_drift() == []

    def test_a_replaced_view_folds_on_from_the_new_state(self):
        database = Database()
        database.create_relation("r", ["g", "m"], [(1, 5), (2, 8)])
        maintainer = ViewMaintainer(database)
        maintainer.define_view("v", self.EXPRESSION)
        view = maintainer.view("v")
        contents = view.contents
        # A change made around the commit pipeline, then a resync.
        database.relation("r").add((1, 2))
        view.replace_contents(database.relation("r"))
        assert view.contents is contents
        database.apply(deletes={"r": [(1, 2)]}, inserts={"r": [(2, 1)]})
        assert dict(contents.counts()) == {(1, 5, 1): 1, (2, 1, 2): 1}
        assert view.aggregate_state.accumulator_drift() == []
        assert_matches_recompute(maintainer, "v", database)

    def test_adaptive_maintainer_rejects_aggregates(self):
        # Neither of its strategies runs the fold stage; before, the
        # first commit died with a SchemaError inside the commit hook.
        database = Database()
        database.create_relation("r", ["g", "m"], [(1, 5)])
        with pytest.raises(ViewDefinitionError, match="aggregate"):
            AdaptiveMaintainer(database, "v", self.EXPRESSION)
