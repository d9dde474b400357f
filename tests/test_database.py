"""Unit tests for the Database container and commit pipeline."""

import pytest

from repro.engine.database import Database
from repro.errors import SchemaError, UnknownRelationError


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

    def test_log_records_commits(self, db):
        with db.transact() as txn:
            txn.insert("r", (3, 4))
        assert len(db.log) == 1

    def test_empty_commit_not_logged(self, db):
        with db.transact():
            pass
        assert len(db.log) == 0

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

    def test_drop_relation_reports_its_index_drops(self, db):
        events = []
        db.create_index("r", ["A"])
        db.add_ddl_hook(lambda event, name: events.append((event, name)))
        db.drop_relation("r")
        assert ("drop_index", "r") in events
        assert events[-1] == ("drop_relation", "r")

    def test_remove_ddl_hook(self, db):
        events = []
        hook = lambda event, name: events.append(event)
        db.add_ddl_hook(hook)
        db.remove_ddl_hook(hook)
        db.remove_ddl_hook(hook)  # no-op when absent
        db.create_index("r", ["A"])
        assert events == []
