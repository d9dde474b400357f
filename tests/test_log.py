"""Unit tests for the commit position and log-record replay."""

import pytest

from repro.engine.database import Database
from repro.engine.log import replay_records

from tests.conftest import capture_commits


@pytest.fixture
def db():
    database = Database()
    database.create_relation("r", ["A"], [(1,), (2,)])
    database.create_relation("s", ["B"], [(1,)])
    return database


class TestLogging:
    def test_sequence_numbers_increase(self, db):
        # A hook reads its own commit's sequence: the position moves
        # before the hooks run.
        seen = []
        db.add_commit_hook(lambda *_: seen.append(db.last_sequence()))
        for i in range(3):
            with db.transact() as txn:
                txn.insert("r", (10 + i,))
        assert seen == [1, 2, 3]
        assert db.last_sequence() == 3

    def test_record_contents(self, db):
        records = capture_commits(db)
        with db.transact() as txn:
            txn.insert("r", (10,))
            txn.delete("s", (1,))
        (record,) = records
        assert sorted(record.deltas) == ["r", "s"]
        assert record.deltas["r"].inserted == {(10,): 1}
        assert record.deltas["s"].deleted == {(1,): 1}

    def test_last_sequence_empty(self):
        assert Database().last_sequence() == 0

    def test_last_sequence_is_the_position_not_the_newest_retained_record(
        self, db
    ):
        # A recovery or follower boot whose WAL tail is empty skips the
        # counter ahead and replays nothing: the position is still 5.
        db.advance_sequence(6)
        assert db.last_sequence() == 5
        with db.transact() as txn:
            txn.insert("r", (10,))
        assert db.last_sequence() == 6
        # Skipping to a point already passed does not rewind it.
        db.advance_sequence(3)
        assert db.last_sequence() == 6


class TestReplay:
    def test_replay_reproduces_state(self, db):
        import random

        initial = db.clone_data()
        records = capture_commits(db)
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
        assert replay_records(initial, records) == len(records)
        for name in ("r", "s"):
            assert initial.relation(name) == db.relation(name)
