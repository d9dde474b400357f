"""Unit tests for transactions and the Section 3 net-effect semantics."""

import pytest

from repro.algebra.domains import StringDomain
from repro.algebra.schema import Attribute, RelationSchema
from repro.engine.database import Database
from repro.errors import SchemaError, TransactionError, UnknownRelationError


@pytest.fixture
def db():
    database = Database()
    database.create_relation("r", ["A", "B"], [(1, 2), (3, 4)])
    return database


class TestNetEffect:
    def test_plain_insert(self, db):
        txn = db.begin()
        txn.insert("r", (5, 6))
        deltas = txn.net_deltas()
        assert deltas["r"].inserted == {(5, 6): 1}
        assert deltas["r"].deleted == {}

    def test_insert_existing_is_noop(self, db):
        txn = db.begin()
        txn.insert("r", (1, 2))
        assert txn.net_deltas() == {}

    def test_double_insert_is_single(self, db):
        txn = db.begin()
        txn.insert("r", (5, 6))
        txn.insert("r", (5, 6))
        assert txn.net_deltas()["r"].inserted == {(5, 6): 1}

    def test_delete_existing(self, db):
        txn = db.begin()
        txn.delete("r", (1, 2))
        assert txn.net_deltas()["r"].deleted == {(1, 2): 1}

    def test_delete_absent_is_noop(self, db):
        txn = db.begin()
        txn.delete("r", (9, 9))
        assert txn.net_deltas() == {}

    def test_insert_then_delete_cancels(self, db):
        # The paper: "if a tuple not in the relation is inserted and
        # then deleted within a transaction, it is not represented at
        # all in this set of changes."
        txn = db.begin()
        txn.insert("r", (5, 6))
        txn.delete("r", (5, 6))
        assert txn.net_deltas() == {}

    def test_delete_then_insert_cancels(self, db):
        txn = db.begin()
        txn.delete("r", (1, 2))
        txn.insert("r", (1, 2))
        assert txn.net_deltas() == {}

    def test_update_is_delete_plus_insert(self, db):
        txn = db.begin()
        txn.update("r", (1, 2), (1, 99))
        deltas = txn.net_deltas()
        assert deltas["r"].deleted == {(1, 2): 1}
        assert deltas["r"].inserted == {(1, 99): 1}

    def test_disjointness_invariant(self, db):
        # r, i_r, d_r must be mutually disjoint after any op sequence.
        txn = db.begin()
        ops = [
            ("insert", (5, 6)),
            ("delete", (1, 2)),
            ("insert", (1, 2)),
            ("delete", (5, 6)),
            ("insert", (7, 8)),
            ("delete", (3, 4)),
        ]
        for op, row in ops:
            getattr(txn, op)("r", row)
        deltas = txn.net_deltas()
        if "r" in deltas:
            delta = deltas["r"]
            r_rows = set(db.relation("r").value_tuples())
            assert not (set(delta.inserted) & set(delta.deleted))
            assert not (set(delta.inserted) & r_rows)
            assert set(delta.deleted) <= r_rows

    def test_multi_relation_transaction(self, db):
        db.create_relation("s", ["C"], [(1,)])
        txn = db.begin()
        txn.insert("r", (9, 9))
        txn.delete("s", (1,))
        deltas = txn.net_deltas()
        assert set(deltas) == {"r", "s"}
        assert txn.touched_relations() == ("r", "s")


class TestLifecycle:
    def test_commit_applies_net_effect(self, db):
        txn = db.begin()
        txn.insert("r", (5, 6))
        txn.delete("r", (1, 2))
        txn.commit()
        assert (5, 6) in db.relation("r")
        assert (1, 2) not in db.relation("r")

    def test_commit_returns_deltas(self, db):
        txn = db.begin()
        txn.insert("r", (5, 6))
        deltas = txn.commit()
        assert deltas["r"].inserted == {(5, 6): 1}

    def test_abort_discards(self, db):
        txn = db.begin()
        txn.insert("r", (5, 6))
        txn.abort()
        assert (5, 6) not in db.relation("r")

    def test_committed_transaction_rejects_further_ops(self, db):
        txn = db.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.insert("r", (9, 9))
        with pytest.raises(TransactionError):
            txn.commit()

    def test_aborted_transaction_rejects_commit(self, db):
        txn = db.begin()
        txn.abort()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_read_only_detection(self, db):
        txn = db.begin()
        assert txn.is_read_only()
        txn.insert("r", (5, 6))
        assert not txn.is_read_only()

    def test_unknown_relation(self, db):
        txn = db.begin()
        with pytest.raises(UnknownRelationError):
            txn.insert("zzz", (1,))

    def test_bad_row_shape(self, db):
        txn = db.begin()
        with pytest.raises(SchemaError):
            txn.insert("r", (1,))

    def test_insert_many_delete_many(self, db):
        txn = db.begin()
        txn.insert_many("r", [(5, 6), (7, 8)])
        txn.delete_many("r", [(1, 2), (3, 4)])
        txn.commit()
        assert set(db.relation("r").value_tuples()) == {(5, 6), (7, 8)}


class TestContextManager:
    def test_commits_on_success(self, db):
        with db.transact() as txn:
            txn.insert("r", (5, 6))
        assert (5, 6) in db.relation("r")

    def test_aborts_on_exception(self, db):
        with pytest.raises(RuntimeError):
            with db.transact() as txn:
                txn.insert("r", (5, 6))
                raise RuntimeError("boom")
        assert (5, 6) not in db.relation("r")

    def test_explicit_commit_inside_block_is_respected(self, db):
        with db.transact() as txn:
            txn.insert("r", (5, 6))
            txn.commit()
        assert (5, 6) in db.relation("r")

    def test_explicit_abort_inside_block_is_respected(self, db):
        with db.transact() as txn:
            txn.insert("r", (5, 6))
            txn.abort()
        assert (5, 6) not in db.relation("r")


class TestReplayEquivalence:
    def test_net_effect_equals_sequential_replay(self):
        """τ(r) = r ∪ i_r − d_r must match replaying the op sequence.

        The second attribute is a label, so the oracle (raw rows in a
        Python set) and the transaction (encoded tuples) only agree if
        every row is encoded exactly once on the way in.
        """
        import random

        labels = ["e", "d", "c", "b", "a"]  # codes run against label order
        schema = RelationSchema([Attribute("A"), Attribute("B", StringDomain(labels))])
        db = Database()
        relation = db.create_relation("r", schema, [(1, "b"), (3, "d")])

        def stored():
            return {schema.decode_values(values) for values in relation.value_tuples()}

        rng = random.Random(42)
        for _ in range(50):
            # Snapshot current state; build a random op sequence.
            replay = stored()
            txn = db.begin()
            for _ in range(rng.randint(1, 10)):
                row = (rng.randint(0, 4), rng.choice(labels))
                if rng.random() < 0.5:
                    txn.insert("r", row)
                    replay.add(row)
                else:
                    txn.delete("r", row)
                    replay.discard(row)
            txn.commit()
            assert stored() == replay
