"""Unit tests for the Database container and commit pipeline."""

import gc
import tracemalloc

import pytest

from repro.engine.database import Database
from repro.errors import (
    KeyViolationError,
    MaintenanceError,
    SchemaError,
    UnknownRelationError,
)


@pytest.fixture
def db():
    database = Database()
    database.create_relation("r", ["A", "B"], [(1, 2)])
    return database


class TestSchemaManagement:
    def test_create_and_lookup(self, db):
        assert (1, 2) in db.relation("r")
        assert db.relation_names() == ("r",)

    def test_duplicate_name_rejected(self, db):
        with pytest.raises(SchemaError):
            db.create_relation("r", ["X"])

    def test_duplicate_initial_row_rejected(self):
        db = Database()
        with pytest.raises(SchemaError):
            db.create_relation("r", ["A"], [(1,), (1,)])

    def test_unknown_relation(self, db):
        with pytest.raises(UnknownRelationError):
            db.relation("zzz")

    def test_drop_relation(self, db):
        db.drop_relation("r")
        assert db.relation_names() == ()
        with pytest.raises(UnknownRelationError):
            db.drop_relation("r")

    def test_drop_relation_removes_indexes(self, db):
        relation = db.relation("r")
        db.create_index("r", ["A"])
        db.drop_relation("r")
        assert dict(relation.indexes) == {}

    def test_schema_catalog(self, db):
        catalog = db.schema_catalog()
        assert catalog["r"].names == ("A", "B")

    def test_instances_reflect_live_state(self, db):
        instances = db.instances()
        with db.transact() as txn:
            txn.insert("r", (3, 4))
        # instances maps to the live relation objects.
        assert (3, 4) in instances["r"]


class TestCommitPipeline:
    def test_hooks_called_with_deltas(self, db):
        seen = []
        db.add_commit_hook(lambda txn_id, deltas: seen.append((txn_id, deltas)))
        with db.transact() as txn:
            txn.insert("r", (3, 4))
        assert len(seen) == 1
        assert seen[0][1]["r"].inserted == {(3, 4): 1}

    def test_hooks_called_in_registration_order(self, db):
        order = []
        db.add_commit_hook(lambda *_: order.append("first"))
        db.add_commit_hook(lambda *_: order.append("second"))
        with db.transact() as txn:
            txn.insert("r", (3, 4))
        assert order == ["first", "second"]

    def test_hook_sees_post_state(self, db):
        observed = []
        db.add_commit_hook(
            lambda *_: observed.append(set(db.relation("r").value_tuples()))
        )
        with db.transact() as txn:
            txn.insert("r", (3, 4))
        assert (3, 4) in observed[0]

    def test_remove_hook(self, db):
        calls = []
        hook = lambda *_: calls.append(1)  # noqa: E731
        db.add_commit_hook(hook)
        db.remove_commit_hook(hook)
        with db.transact() as txn:
            txn.insert("r", (3, 4))
        assert calls == []

    def test_remove_unknown_hook_is_noop(self, db):
        db.remove_commit_hook(lambda *_: None)

    def test_empty_transaction_fires_hooks_with_empty_deltas(self, db):
        seen = []
        db.add_commit_hook(lambda txn_id, deltas: seen.append(deltas))
        with db.transact():
            pass
        assert seen == [{}]

    def test_commit_advances_the_position(self, db):
        with db.transact() as txn:
            txn.insert("r", (3, 4))
        assert db.last_sequence() == 1

    def test_empty_commit_does_not_advance_the_position(self, db):
        with db.transact():
            pass
        with db.transact() as txn:
            txn.insert("r", (3, 4))
            txn.delete("r", (3, 4))  # nets to nothing
        assert db.last_sequence() == 0

    def test_commits_retain_no_memory(self, db):
        # The database keeps a position, not a history: once warm, a
        # long stream of commits through a maintained view leaves the
        # traced heap where it was (a retained record per commit would
        # grow it by hundreds of bytes each).
        from repro.algebra.expressions import BaseRef
        from repro.core.maintainer import ViewMaintainer

        ViewMaintainer(db).define_view("v", BaseRef("r").select("A >= 3"))

        def pairs(count):
            for i in range(count):
                with db.transact() as txn:
                    txn.insert("r", (3 + i % 7, 4))
                with db.transact() as txn:
                    txn.delete("r", (3 + i % 7, 4))

        pairs(50)
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            pairs(2000)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 64 * 1024, after - before
        assert db.last_sequence() == 4100

    def test_indexes_maintained_through_commits(self, db):
        index = db.create_index("r", ["A"])
        with db.transact() as txn:
            txn.insert("r", (3, 4))
            txn.delete("r", (1, 2))
        assert index.probe((3,)) == {(3, 4)}
        assert index.probe((1,)) == frozenset()


class TestApplyHelper:
    def test_apply_inserts_and_deletes(self, db):
        deltas = db.apply(inserts={"r": [(3, 4)]}, deletes={"r": [(1, 2)]})
        assert (3, 4) in db.relation("r")
        assert (1, 2) not in db.relation("r")
        assert deltas["r"].inserted == {(3, 4): 1}

    def test_apply_empty(self, db):
        assert db.apply() == {}


class TestCloneData:
    def test_clone_is_deep_for_contents(self, db):
        clone = db.clone_data()
        with db.transact() as txn:
            txn.insert("r", (9, 9))
        assert (9, 9) not in clone.relation("r")

    def test_clone_has_no_hooks(self, db):
        calls = []
        db.add_commit_hook(lambda *_: calls.append(1))
        clone = db.clone_data()
        with clone.transact() as txn:
            txn.insert("r", (9, 9))
        assert calls == []


class TestDdlHooks:
    def test_create_and_drop_relation_events(self, db):
        events = []
        db.add_ddl_hook(lambda event, name: events.append((event, name)))
        db.create_relation("s", ["X"])
        db.drop_relation("s")
        assert ("create_relation", "s") in events
        assert ("drop_relation", "s") in events

    def test_index_events_via_facade(self, db):
        events = []
        db.add_ddl_hook(lambda event, name: events.append((event, name)))
        db.create_index("r", ["A"])
        db.drop_index("r", ["A"])
        assert events == [("create_index", "r"), ("drop_index", "r")]

    def test_no_event_for_noop_index_changes(self, db):
        events = []
        db.add_ddl_hook(lambda event, name: events.append((event, name)))
        db.create_index("r", ["A"])
        db.create_index("r", ["A"])  # already exists
        db.drop_index("r", ["A"])
        assert not db.drop_index("r", ["A"])  # already gone
        assert events == [("create_index", "r"), ("drop_index", "r")]

    def test_drop_relation_is_one_event_fired_before_the_drop(self, db):
        # The one event reaches every dependent of the relation's
        # indexes, constraint and keys; hooks see it all still in place.
        events = []
        db.create_index("r", ["A"])

        def hook(event, name):
            events.append((event, name, tuple(db.relation(name).indexes)))

        db.add_ddl_hook(hook)
        db.drop_relation("r")
        assert events == [("drop_relation", "r", (("A",),))]

    def test_a_hook_that_raises_vetoes_the_drop(self, db):
        relation = db.relation("r")
        index = db.create_index("r", ["B"])
        db.declare_constraint("r", "A >= 0")
        db.declare_key("r", ["A"])

        def veto(event, name):
            if event == "drop_relation":
                raise MaintenanceError(f"{name!r} is in use")

        db.add_ddl_hook(veto)
        with pytest.raises(MaintenanceError, match="in use"):
            db.drop_relation("r")
        assert db.relation("r") is relation
        assert relation.indexes[("B",)] is index
        assert str(db.constraints.get("r")) == "A >= 0"
        assert db.keys.keys_of("r") == (("A",),)
        with pytest.raises(KeyViolationError):
            db.apply(inserts={"r": [(1, 9)]})

    def test_remove_ddl_hook(self, db):
        events = []
        hook = lambda event, name: events.append(event)
        db.add_ddl_hook(hook)
        db.remove_ddl_hook(hook)
        db.remove_ddl_hook(hook)  # no-op when absent
        db.create_index("r", ["A"])
        assert events == []
