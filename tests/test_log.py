"""Unit tests for the update log."""

import pytest

from repro.engine.database import Database


@pytest.fixture
def db():
    database = Database()
    database.create_relation("r", ["A"], [(1,), (2,)])
    database.create_relation("s", ["B"], [(1,)])
    return database


class TestLogging:
    def test_sequence_numbers_increase(self, db):
        for i in range(3):
            with db.transact() as txn:
                txn.insert("r", (10 + i,))
        sequences = [record.sequence for record in db.log]
        assert sequences == [1, 2, 3]
        assert db.log.last_sequence() == 3

    def test_record_contents(self, db):
        with db.transact() as txn:
            txn.insert("r", (10,))
            txn.delete("s", (1,))
        (record,) = list(db.log)
        assert record.touched_relations() == ("r", "s")
        assert record.deltas["r"].inserted == {(10,): 1}
        assert record.deltas["s"].deleted == {(1,): 1}

    def test_records_since(self, db):
        for i in range(4):
            with db.transact() as txn:
                txn.insert("r", (10 + i,))
        later = list(db.log.records_since(2))
        assert [r.sequence for r in later] == [3, 4]

    def test_truncate_before(self, db):
        for i in range(4):
            with db.transact() as txn:
                txn.insert("r", (10 + i,))
        dropped = db.log.truncate_before(3)
        assert dropped == 2
        assert [r.sequence for r in db.log] == [3, 4]

    def test_last_sequence_empty(self):
        assert Database().log.last_sequence() == 0

    def test_last_sequence_is_the_position_not_the_newest_retained_record(
        self, db
    ):
        # A recovery or follower boot whose WAL tail is empty skips the
        # counter ahead and replays nothing: the position is still 5.
        db.log.advance_sequence(6)
        assert len(db.log) == 0
        assert db.log.last_sequence() == 5
        with db.transact() as txn:
            txn.insert("r", (10,))
        assert db.log.last_sequence() == 6
        # Dropping every retained record does not rewind it either.
        assert db.log.truncate_before(7) == 1
        assert len(db.log) == 0
        assert db.log.last_sequence() == 6


class TestComposedDelta:
    def test_composes_across_transactions(self, db):
        with db.transact() as txn:
            txn.insert("r", (10,))
        with db.transact() as txn:
            txn.delete("r", (10,))
            txn.insert("r", (11,))
        composed = db.log.composed_delta("r")
        assert composed is not None
        assert composed.inserted == {(11,): 1}
        assert composed.deleted == {}

    def test_untouched_relation_gives_none(self, db):
        with db.transact() as txn:
            txn.insert("r", (10,))
        assert db.log.composed_delta("s") is None

    def test_since_sequence(self, db):
        with db.transact() as txn:
            txn.insert("r", (10,))
        checkpoint = db.log.last_sequence()
        with db.transact() as txn:
            txn.insert("r", (11,))
        composed = db.log.composed_delta("r", since_sequence=checkpoint)
        assert composed.inserted == {(11,): 1}


class TestReplay:
    def test_replay_reproduces_state(self, db):
        import random

        initial = db.clone_data()
        rng = random.Random(3)
        for _ in range(20):
            with db.transact() as txn:
                for _ in range(rng.randint(1, 3)):
                    name = rng.choice(("r", "s"))
                    row = (rng.randint(0, 9),)
                    if rng.random() < 0.5:
                        txn.insert(name, row)
                    else:
                        txn.delete(name, row)
        db.log.replay(initial)
        for name in ("r", "s"):
            assert initial.relation(name) == db.relation(name)
