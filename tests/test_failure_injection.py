"""Failure-injection tests: what breaks, and how loudly.

A commit is all or nothing, and these tests pin what that means:

* a commit hook that raises undoes the commit: the base deltas are
  inverted, every view effect the hooks recorded is reversed, the
  position is put back, the write-ahead log cuts the record off, and the
  transaction ends aborted — hooks after it never run.  The same holds
  for a failed log append (write or fsync) and for an assertion the
  commit would violate;
* DDL hooks are the opposite: *every* hook sees every schema change
  even when an earlier one raises (first failure re-raised after),
  because the maintainer's plan invalidation rides this bus and a
  failing user hook must not leave a stale compiled plan cached;
* subscribers run past the commit point, so a raising subscriber
  cannot undo it: every delivery runs, then the first error is raised;
* a fault inside one view's stages — a kernel that raises, a fold
  underflow, an ``auto_verify`` mismatch — quarantines that view and
  what reads it: they keep their pre-commit contents, the commit goes
  on for every other view, through the log and the deliveries, and
  then raises :class:`~repro.errors.ViewQuarantinedError`; ``refresh``
  rebuilds a quarantined view;
* a corrupted view is caught by ``auto_verify`` / ``check_view_consistency``
  with a precise report, and the exception names the view;
* a refresh that raises before its apply keeps its backlog, and one
  whose subscriber raises after it does not.
"""

import random
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import BaseRef
from repro.baselines.full_reevaluation import FullReevaluationMaintainer
from repro.core.consistency import check_view_consistency
from repro.core.maintainer import MaintenancePolicy, ViewMaintainer
from repro.engine.database import Database
from repro.engine.persistence import canonical_json, relation_to_document
from repro.engine.transactions import TransactionState
from repro.extensions.estimator import AdaptiveMaintainer
from repro.errors import (
    IntegrityViolation,
    MaintenanceError,
    ReplicationError,
    ViewQuarantinedError,
)
from repro.replication.durability import DurabilityManager
from repro.replication.recovery import recover
from repro.replication.wal import WalIO, WalReader
from tests.strategies import spj_database_rows, spj_expressions, update_streams


@pytest.fixture
def db():
    database = Database()
    database.create_relation("r", ["A", "B"], [(1, 1)])
    return database


class TestHookFailures:
    def test_a_hook_exception_undoes_the_commit(self, db):
        def bad_hook(txn_id, deltas):
            raise RuntimeError("observer crashed")

        db.add_commit_hook(bad_hook)
        txn = db.begin()
        txn.insert("r", (2, 2))
        with pytest.raises(RuntimeError):
            txn.commit()
        assert (2, 2) not in db.relation("r")
        assert db.last_sequence() == 0
        assert txn.state is TransactionState.ABORTED
        db.remove_commit_hook(bad_hook)
        # The next commit takes the sequence the undone one would have.
        db.apply(inserts={"r": [(3, 3)]})
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
        assert (2, 2) not in db.relation("r")

    def test_maintainer_view_stays_consistent_despite_later_hook_failure(self, db):
        maintainer = ViewMaintainer(db)  # registered first: runs first
        view = maintainer.define_view("v", BaseRef("r"))
        agg = maintainer.define_view(
            "agg", BaseRef("r").aggregate(["B"], [("count", None, "n")])
        )
        maintainer.define_view("d", BaseRef("r"), policy=MaintenancePolicy.DEFERRED)
        db.apply(inserts={"r": [(5, 1)]})
        before = {
            name: (
                maintainer.view(name).contents.counts(),
                maintainer.view(name).updates_applied,
                maintainer.view(name).last_refresh_sequence,
            )
            for name in ("v", "agg", "d")
        }
        groups = dict(agg.aggregate_state.groups)
        backlog = maintainer.pending_deltas("d")

        def bad_hook(txn_id, deltas):
            raise RuntimeError("later observer crashed")

        db.add_commit_hook(bad_hook)
        with pytest.raises(RuntimeError):
            with db.transact() as txn:
                txn.insert("r", (2, 2))
                txn.delete("r", (5, 1))
        # The maintainer ran before the failing hook, and every view
        # effect it recorded was rolled back with the base delta.
        for name in ("v", "agg", "d"):
            got = maintainer.view(name)
            assert (got.contents.counts(), got.updates_applied,
                    got.last_refresh_sequence) == before[name]
        assert agg.aggregate_state.groups == groups
        assert agg.aggregate_state.accumulator_drift() == []
        assert maintainer.pending_deltas("d") == backlog
        assert maintainer.backlog("d")["commits_since_refresh"] == 1
        check_view_consistency(view, db.instances())
        check_view_consistency(agg, db.instances())
        db.remove_commit_hook(bad_hook)
        assert maintainer.refresh("d")
        maintainer.verify_all()

    def test_the_other_maintainers_roll_back_too(self, db):
        """The complete re-evaluation baseline and the adaptive
        maintainer re-derive their views from the restored base, and
        take their counts and decisions back."""
        adaptive = AdaptiveMaintainer(db, "a", BaseRef("r").select("A > 0"))
        baseline = FullReevaluationMaintainer(db)
        full = baseline.define_view("f", BaseRef("r"))
        armed = []

        def bad_hook(txn_id, deltas):
            if armed:
                raise RuntimeError("later observer crashed")

        db.add_commit_hook(bad_hook)
        rows = {(1, 1): 1}
        for row in ((2, 2), (3, 3)):  # one undone commit per adaptive strategy
            armed.append(True)
            with pytest.raises(RuntimeError):
                db.apply(inserts={"r": [row]})
            armed.clear()
            for view in (adaptive.view, full):
                assert view.contents.counts() == rows
                assert view.updates_applied == len(rows) - 1
            assert baseline.recomputations["f"] == len(rows) - 1
            assert len(adaptive.decisions) == len(rows) - 1
            db.apply(inserts={"r": [row]})
            rows[row] = 1
        assert adaptive.strategy_counts() == {"differential": 1, "full": 1}
        for view in (adaptive.view, full):
            assert view.contents.counts() == rows

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
        with pytest.raises(ViewQuarantinedError, match="watched") as raised:
            with db.transact() as txn:
                txn.insert("r", (2, 2))
        assert raised.value.views == ("watched",)
        assert raised.value.record["error"] == "MaintenanceError"
        # The apply is taken back: the view holds what it held.
        assert (2, 2) not in view.contents
        assert maintainer.stats("watched")["quarantined"] == raised.value.record

    def test_verify_failure_leaves_commit_applied(self, db):
        maintainer = ViewMaintainer(db, auto_verify=True)
        view = maintainer.define_view("v", BaseRef("r"))
        view.contents.add((99, 99))
        with pytest.raises(ViewQuarantinedError) as raised:
            with db.transact() as txn:
                txn.insert("r", (2, 2))
        assert raised.value.views == ("v",)
        assert (2, 2) in db.relation("r")
        # A rebuild lifts the quarantine and drops the corruption.
        assert maintainer.refresh("v")
        assert maintainer.quarantined("v") is None
        maintainer.verify_all()

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

    def test_every_delivery_runs_and_the_first_error_is_raised(self, db):
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", BaseRef("r"))
        maintainer.define_view("w", BaseRef("r").select("A > 0"))
        received = []

        def bad_subscriber(view, delta):
            raise RuntimeError(f"{view.definition.name} subscriber crashed")

        maintainer.subscribe("v", bad_subscriber)
        maintainer.subscribe("w", bad_subscriber)
        maintainer.subscribe("w", lambda view, delta: received.append(delta.inserted))
        txn = db.begin()
        txn.insert("r", (2, 2))
        with pytest.raises(RuntimeError, match="v subscriber"):
            txn.commit()
        assert txn.state is TransactionState.COMMITTED
        assert received == [{(2, 2): 1}]


def _documents(maintainer, names):
    """Every base relation and each named view, as canonical bytes."""
    database = maintainer.database
    relations = {
        name: canonical_json(relation_to_document(database.relation(name)))
        for name in database.relation_names()
    }
    views = {
        name: canonical_json(relation_to_document(maintainer.view(name).contents))
        for name in names
    }
    return relations, views


def _assert_recovers_to_the_live_state(directory, maintainer, definitions):
    """``recover()`` of the log equals the live base relations and every
    view the live maintainer has not quarantined, byte for byte."""
    def setup(recovery, recovered):
        for name, expression in definitions.items():
            recovery.restore_view(recovered, name, expression)

    _, recovered = recover(directory, setup=setup)
    current = [name for name in definitions if maintainer.quarantined(name) is None]
    assert _documents(recovered, current) == _documents(maintainer, current)


class _FlakyIO(WalIO):
    """An fsync that raises while ``failures`` lasts."""

    def __init__(self):
        self.failures = 0

    def fsync(self, stream):
        if self.failures:
            self.failures -= 1
            raise OSError("injected fsync failure")
        super().fsync(stream)


class TestCommitPoint:
    """The write-ahead log and the subscribers agree with the commit."""

    DEFINITIONS = {"v": BaseRef("r").select("A > 0"), "p": BaseRef("r").project(["B"])}

    def _durable(self, db, directory, io=None):
        durability = DurabilityManager(db, directory, io=io)
        maintainer = ViewMaintainer(db)
        for name, expression in self.DEFINITIONS.items():
            maintainer.define_view(name, expression)
        durability.checkpoint(maintainer)
        return durability, maintainer

    def test_a_failed_fsync_undoes_the_commit_and_frees_its_sequence(self, db, tmp_path):
        io = _FlakyIO()
        durability, maintainer = self._durable(db, str(tmp_path), io)
        io.failures = 1
        with pytest.raises(OSError, match="injected"):
            db.apply(inserts={"r": [(2, 2)]})
        assert (2, 2) not in db.relation("r")
        assert (2, 2) not in maintainer.view("v").contents
        assert db.last_sequence() == durability.position == 0
        db.apply(inserts={"r": [(3, 3)]})
        # The next commit takes the sequence the failed one would have.
        assert db.last_sequence() == durability.position == 1
        records = list(WalReader(str(tmp_path)).records())
        assert [record.sequence for record in records] == [1]
        _assert_recovers_to_the_live_state(str(tmp_path), maintainer, self.DEFINITIONS)

    def test_a_raising_subscriber_leaves_the_commit_durable(self, db, tmp_path):
        durability, maintainer = self._durable(db, str(tmp_path))
        db.remove_commit_hook(durability._on_commit)  # the log hook runs last
        db.add_commit_hook(durability._on_commit)

        def bad_subscriber(view, delta):
            raise RuntimeError("subscriber crashed")

        maintainer.subscribe("v", bad_subscriber)
        with pytest.raises(RuntimeError, match="subscriber crashed"):
            db.apply(inserts={"r": [(2, 2)]})
        maintainer.unsubscribe("v", bad_subscriber)
        db.apply(inserts={"r": [(3, 3)]})
        assert db.last_sequence() == durability.position == 2
        _assert_recovers_to_the_live_state(str(tmp_path), maintainer, self.DEFINITIONS)

    def test_a_hook_after_the_log_takes_the_record_back(self, db, tmp_path):
        durability, maintainer = self._durable(db, str(tmp_path))

        def bad_hook(txn_id, deltas):
            raise RuntimeError("later observer crashed")

        db.add_commit_hook(bad_hook)
        with pytest.raises(RuntimeError):
            db.apply(inserts={"r": [(2, 2)]})
        db.remove_commit_hook(bad_hook)
        assert durability.position == 0
        db.apply(inserts={"r": [(3, 3)]})
        assert [r.sequence for r in WalReader(str(tmp_path)).records()] == [1]
        _assert_recovers_to_the_live_state(str(tmp_path), maintainer, self.DEFINITIONS)

    def test_a_writer_that_cannot_cut_back_refuses_appends(self, db, tmp_path):
        class Stuck(_FlakyIO):
            def truncate(self, path, offset):
                raise OSError("injected truncate failure")

        io = Stuck()
        durability, _ = self._durable(db, str(tmp_path), io)
        io.failures = 1
        with pytest.raises(OSError, match="fsync"):
            db.apply(inserts={"r": [(2, 2)]})
        with pytest.raises(ReplicationError, match="refuses appends"):
            db.apply(inserts={"r": [(3, 3)]})
        assert (3, 3) not in db.relation("r")
        assert durability.position == 0


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
        pass, which the first of them runs: a fault in it quarantines
        that view alone.  The commit's trigger runs again without it,
        where the other reader screens on its own, and applies."""
        maintainer = ViewMaintainer(db)
        names = ["proj", "lo", "lo_b"]
        maintainer.define_view("proj", BaseRef("r").project(["B"]))
        maintainer.define_view("lo", BaseRef("r").select("A > 0"))
        maintainer.define_view("lo_b", BaseRef("r").select("A > 0 and B < 100"))
        before = {name: maintainer.stats(name) for name in names}
        contents = maintainer.view("lo").contents.counts()
        kernel_faults.add("<codegen:pass:r>")
        with pytest.raises(ViewQuarantinedError, match="injected") as raised:
            db.apply(inserts={"r": [(5, 5)]})
        assert raised.value.views == ("lo",)
        record = raised.value.record
        assert record == {
            "txn": 1, "seq": 1, "view": "lo", "error": "RuntimeError",
            "message": "injected fault in <codegen:pass:r>",
        }
        assert maintainer.quarantined("lo_b") is None
        after = {name: maintainer.stats(name) for name in names}
        # Each view counts the commit once, though the trigger ran twice.
        for name in ("proj", "lo_b"):
            assert after[name]["transactions_seen"] == before[name]["transactions_seen"] + 1
            assert after[name]["deltas_applied"] == before[name]["deltas_applied"] + 1
            check_view_consistency(maintainer.view(name), maintainer.instances())
        counted = {m: v - before["lo"][m] for m, v in after["lo"].items() if m in before["lo"]}
        assert {m: v for m, v in counted.items() if v} == {
            "transactions_seen": 1, "tuples_screened": 1, "plan_cache_hits": 1,
        }
        assert maintainer.view("lo").contents.counts() == contents
        kernel_faults.clear()
        # A quarantined view is left out of later commits ...
        db.apply(inserts={"r": [(6, 6)]})
        assert (6, 6) not in maintainer.view("lo").contents
        assert (6, 6) in maintainer.view("lo_b").contents
        # ... until a refresh rebuilds it.
        assert maintainer.refresh("lo")
        db.apply(inserts={"r": [(7, 7)]})
        maintainer.verify_all()

    @pytest.mark.parametrize("stacked", [False, True])
    def test_a_fault_before_a_shared_source_is_read_quarantines_only_its_view(
        self, kernel_faults, stacked
    ):
        """``j`` faults screening ``r`` before ``s`` is read at all; the
        views after it that read ``s`` — an ordinary view and an
        assertion — still apply.  Stacked, ``i`` over ``j`` is the first
        reader of ``s`` and goes with ``j``."""
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 1)])
        db.create_relation("s", ["B", "C"], [(1, 1)])
        maintainer = ViewMaintainer(db)
        if stacked:
            maintainer.define_view("j", BaseRef("r").select("A > 0"))
            maintainer.define_view("i", BaseRef("j").join(BaseRef("s")))
        else:
            maintainer.define_view("j", BaseRef("r").join(BaseRef("s")).select("A > 0"))
        maintainer.define_view("m", BaseRef("s").select("C > 0"))
        maintainer.define_view(
            "big", BaseRef("s").select("C > 1000"), policy=MaintenancePolicy.ASSERTION
        )
        kernel_faults.add("<codegen:j:screen:r>")
        with pytest.raises(ViewQuarantinedError) as raised:
            db.apply(inserts={"r": [(2, 2)], "s": [(2, 2)]})
        assert raised.value.views == (("j", "i") if stacked else ("j",))
        assert {maintainer.quarantined(name)["view"] for name in raised.value.views} == {"j"}
        assert (2, 2) in db.relation("r") and (2, 2) in db.relation("s")
        for name in ("m", "big"):
            assert maintainer.quarantined(name) is None
            check_view_consistency(maintainer.view(name), maintainer.instances())
        kernel_faults.clear()
        maintainer.quiesce()
        maintainer.verify_all()

    def test_a_quarantine_in_an_undone_commit_stays_with_its_view(self, db, kernel_faults):
        maintainer = ViewMaintainer(db)
        maintainer.define_view("sel", BaseRef("r").select("A > 0"))
        maintainer.define_view(
            "small", BaseRef("r").select("A > 50"), policy=MaintenancePolicy.ASSERTION
        )
        kernel_faults.add("<codegen:sel:")
        with pytest.raises(IntegrityViolation):
            db.apply(inserts={"r": [(60, 1)]})
        kernel_faults.clear()
        assert (60, 1) not in db.relation("r")
        # Quarantined until refreshed; the next commit stands unremarked,
        # and nothing may stack on the view meanwhile.
        assert maintainer.quarantined("sel")["error"] == "RuntimeError"
        db.apply(inserts={"r": [(2, 2)]})
        with pytest.raises(MaintenanceError, match="quarantined view 'sel'"):
            maintainer.define_view("over", BaseRef("sel").project(["A"]))
        assert maintainer.refresh("sel")
        maintainer.verify_all()

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
        """The fault goes no further than its view: ``agg`` is
        quarantined with its groups untouched, and the views before and
        after it all apply."""
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
        delivered = []
        maintainer.subscribe("sel", lambda view, delta: delivered.append(delta))
        with pytest.raises(ViewQuarantinedError, match="injected") as raised:
            db.apply(inserts={"r": [(5, 5)]})
        assert raised.value.views == ("agg",)
        assert (5, 5) in db.relation("r")  # the commit stands
        # The taken-back run's delivery went with it: one delta, not two.
        assert [dict(delta.inserted) for delta in delivered] == [{(5, 5): 1}]
        after = {name: maintainer.stats(name) for name in names}
        for name in ("sel", "proj", "low", "stacked"):
            assert after[name]["transactions_seen"] == before[name]["transactions_seen"] + 1
            assert after[name]["deltas_applied"] == before[name]["deltas_applied"] + 1
            check_view_consistency(maintainer.view(name), maintainer.instances())
        # The faulted view: what it counted up to the raise is landed,
        # and neither its contents nor its support state moved.
        record = after["agg"].pop("quarantined")
        assert (record["view"], record["error"]) == ("agg", "RuntimeError")
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

        kernel_faults.clear()
        db.apply(inserts={"r": [(6, 6)]})
        final = {name: maintainer.stats(name) for name in names}
        assert final["agg"]["transactions_seen"] == after["agg"]["transactions_seen"]
        received = []
        maintainer.subscribe("agg", lambda view, delta: received.append(delta))
        replica = maintainer.view("agg").contents.counts()
        assert maintainer.refresh("agg")
        (delta,) = received
        for values, count in delta.deleted.items():
            replica[values] -= count
        for values, count in delta.inserted.items():
            replica[values] = replica.get(values, 0) + count
        assert {v: n for v, n in replica.items() if n} == maintainer.view("agg").contents.counts()
        assert (6, 1) in maintainer.view("agg").contents
        db.apply(inserts={"r": [(7, 6)]})
        assert (6, 2) in maintainer.view("agg").contents
        maintainer.verify_all()


def _readers(name, maintainer):
    """``name`` and every view reading it, directly or not, from the
    definitions alone."""
    found = {name}
    while True:
        more = {
            other for other in maintainer.view_names()
            if maintainer.view(other).definition.relation_names & found
        } - found
        if not more:
            return found
        found |= more


#: The assertion of the fault property: no ``r`` row past (5, 5).
NO_CORNER = BaseRef("r").select("A >= 6 and B >= 6")


@settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    expressions=st.lists(spj_expressions(max_operands=2), min_size=1, max_size=3),
    stream=update_streams(max_txns=5),
    fault_at=st.integers(min_value=0, max_value=4),
    fault=st.sampled_from(["kernel", "fsync", "hook", "violation"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_a_fault_at_any_commit_leaves_views_log_and_feed_in_step(
    kernel_faults, expressions, stream, fault_at, fault, seed
):
    """A stream of random views plus one assertion, with one injected
    fault at one commit: a kernel that raises (the view quarantined), a
    failed fsync, a raising hook or a violating row (the commit undone).
    After every commit each view not quarantined equals a full
    recompute, ``recover()`` of the log equals the live state, and a
    replica kept from each view's subscribers equals that view."""
    kernel_faults.clear()
    initial, transactions = stream
    db = Database()
    for name, rows in initial.items():
        columns = ("A", "B") if name == "r" else ("C", "D") if name == "s" else ("E", "F")
        db.create_relation(name, columns, [row for row in rows if min(row) < 6 or name != "r"])
    definitions = {f"v{k}": expression for k, expression in enumerate(expressions)}
    definitions["no_corner"] = NO_CORNER
    with tempfile.TemporaryDirectory() as directory:
        io = _FlakyIO()
        durability = DurabilityManager(db, directory, io=io)
        maintainer = ViewMaintainer(db)
        replicas = {}
        for name, expression in definitions.items():
            policy = MaintenancePolicy.ASSERTION if name == "no_corner" else MaintenancePolicy.IMMEDIATE
            maintainer.define_view(name, expression, policy=policy)
            replica = replicas[name] = maintainer.view(name).contents.counts()

            def follow(view, delta, replica=replica):
                for values, count in delta.deleted.items():
                    replica[values] -= count
                    if not replica[values]:
                        del replica[values]
                for values, count in delta.inserted.items():
                    replica[values] = replica.get(values, 0) + count

            maintainer.subscribe(name, follow)
        durability.checkpoint(maintainer)
        hook_armed = []

        def hook(txn_id, deltas):
            if hook_armed:
                raise ZeroDivisionError("injected hook failure")

        db.add_commit_hook(hook)
        # A kernel fault in the assertion undoes the commit instead.
        victim = random.Random(seed).choice(sorted(definitions))
        for index, ops in enumerate(transactions):
            if index == fault_at:
                if fault == "kernel":
                    kernel_faults.add(f"<codegen:{victim}:")
                elif fault == "fsync":
                    io.failures = 1
                elif fault == "hook":
                    hook_armed.append(True)
                else:
                    ops = [*ops, ("ins", "r", (6, 6))]
            txn = db.begin()
            for op, name, row in ops:
                (txn.insert if op == "ins" else txn.delete)(name, row)
            try:
                txn.commit()
            except ViewQuarantinedError as exc:
                # The victim and what reads it, nothing else.
                assert fault == "kernel"
                assert exc.views == tuple(n for n in definitions if n in _readers(victim, maintainer))
                assert exc.record["view"] == victim
            except (OSError, ZeroDivisionError, IntegrityViolation, RuntimeError):
                assert txn.state is TransactionState.ABORTED
            kernel_faults.clear()
            io.failures = 0
            hook_armed.clear()
            assert len(maintainer.view("no_corner").contents) == 0
            for name in definitions:
                assert (maintainer.quarantined(name) or {"view": victim})["view"] == victim
            healthy = [n for n in definitions if maintainer.quarantined(n) is None]
            instances = maintainer.instances()
            for name in healthy:
                check_view_consistency(maintainer.view(name), instances)
                assert replicas[name] == maintainer.view(name).contents.counts()
            _assert_recovers_to_the_live_state(directory, maintainer, definitions)
        maintainer.quiesce()
        maintainer.verify_all()
        for name in definitions:
            assert replicas[name] == maintainer.view(name).contents.counts()
        durability.close()
