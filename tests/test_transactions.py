"""Unit tests for transactions and the Section 3 net-effect semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BaseRef, ViewMaintainer
from repro.algebra.domains import StringDomain
from repro.algebra.schema import Attribute, RelationSchema
from repro.engine.database import Database
from repro.engine.transactions import TransactionState
from repro.errors import (
    ConstraintViolationError,
    MaintenanceError,
    SchemaError,
    TransactionError,
    UnknownRelationError,
    ViewQuarantinedError,
)
from tests.conftest import call_events


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

    def test_a_relation_re_created_under_an_open_transaction_refuses_it(self, db):
        # The pending batch is over r's old schema: its tuples must not
        # reach the new relation, and p's applied delta is taken back.
        db.create_relation("p", ["C"])
        txn = db.begin()
        txn.insert("p", (9,))
        txn.insert("r", (5, 6))
        db.drop_relation("r")
        db.create_relation("r", ["X", "Y", "Z"])
        with pytest.raises(SchemaError):
            txn.commit()
        assert txn.state is TransactionState.ABORTED
        assert len(db.relation("r")) == 0 and len(db.relation("p")) == 0
        assert db.last_sequence() == 0


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

    def test_a_block_that_commits_and_then_raises_is_not_aborted(self, db):
        # An abort of the committed transaction would raise
        # TransactionError in place of the block's own error.
        with pytest.raises(RuntimeError):
            with db.transact() as txn:
                txn.insert("r", (5, 6))
                txn.commit()
                raise RuntimeError("after the commit")
        assert txn.state is TransactionState.COMMITTED
        assert (5, 6) in db.relation("r")

    def test_a_refused_commit_at_the_end_of_the_block_aborts(self, db):
        db.declare_constraint("r", "A < 5")
        with pytest.raises(ConstraintViolationError):
            with db.transact() as txn:
                txn.insert("r", (5, 6))
        assert txn.state is TransactionState.ABORTED
        assert (5, 6) not in db.relation("r")

    def test_the_id_is_taken_at_the_call(self, db):
        pending = db.transact()
        with db.transact() as later:
            later.insert("r", (5, 6))
        assert (pending.txn_id, later.txn_id) == (1, 2)
        with pending:
            pending.insert("r", (7, 8))
        assert pending.state is TransactionState.COMMITTED


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


class TestEngineGlue:
    """A clock-free law for what the engine itself runs per commit."""

    @staticmethod
    def commit_calls(database: Database) -> int:
        # The harness's own events (its lambda, ``setprofile(None)``)
        # are taken off.
        harness = call_events(lambda: None)
        commit = call_events(
            lambda: database.apply(inserts={"r": [(5, 6)]}, deletes={"r": [(1, 2)]})
        )
        return commit - harness

    @pytest.mark.parametrize("unrelated_key", [False, True])
    def test_a_hookless_update_pays_for_its_rows_not_for_glue(self, db, unrelated_key):
        """A one-delete-one-insert ``Database.apply`` on an indexed
        relation with no hook: 45 Python- and C-level calls on CPython
        3.11, with or without a key declared on another relation; 54
        while ``apply_counts`` looked each row up apart and kept the
        index through a method call per row and a ``key_of`` call; 56
        while ``encode_values`` took two ``len`` per row; 78 and 90
        while ``transact`` was a ``contextlib`` generator, every
        batch built a ``count_map`` proxy, ``net_deltas`` ran a
        comprehension per side, the checks summed the key catalog and
        scanned every foreign key, and the commit re-checked its own
        deltas' schemas."""
        db.create_index("r", ["A"])
        if unrelated_key:
            db.create_relation("k", ["K"], [(1,)])
            db.declare_key("k", ["K"])
        assert self.commit_calls(db) <= 45
        assert set(db.relation("r").value_tuples()) == {(3, 4), (5, 6)}

    @staticmethod
    def batch_calls(rows: int) -> int:
        """A hookless commit deleting ``rows`` stored rows of an indexed
        relation and inserting as many new ones."""
        database = Database()
        database.create_relation("r", ["A", "B"], [(i, i % 7) for i in range(200)])
        database.create_index("r", ["B"])
        inserts = {"r": [(1000 + i, i % 7) for i in range(rows)]}
        deletes = {"r": [(i, i % 7) for i in range(rows)]}
        harness = call_events(lambda: None)
        calls = call_events(lambda: database.apply(inserts=inserts, deletes=deletes))
        relation = database.relation("r")
        assert len(relation) == 200
        assert relation.index_on(["B"])._stale_key(relation) is None
        return calls - harness

    def test_a_batch_pays_a_constant_per_row(self):
        """A clock-free law for batch commits: past the first, each
        deleted-and-inserted pair of rows costs 10 calls on CPython
        3.11 — two ``encode_values`` with one ``len`` each, two
        ``set.add`` into the pending sets, and in the apply one
        ``dict.pop``, one ``list.append`` of the row that left, and
        one ``set.discard`` and one ``set.add`` in the index's buckets.
        (15 while ``apply_counts`` checked, read, deleted and probed
        each row apart and kept the index through ``_insert`` /
        ``_remove`` and a ``key_of`` call per row.)"""
        assert self.batch_calls(100) - self.batch_calls(1) == 99 * 10


class TestInterleavedTransactions:
    def test_a_row_two_open_transactions_insert_commits_once(self, db):
        """A base relation is a set.  Of two open transactions that both
        insert one row, the second commit is refused whole, as two
        deletes of one row are; it used to leave the row with count 2,
        so one later delete left it present."""
        db.create_index("r", ["A"])
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", BaseRef("r").project(["B"]))
        first, second = db.begin(), db.begin()
        first.insert("r", (5, 6))
        second.insert("r", (5, 6))
        second.insert("r", (7, 8))
        first.commit()
        with pytest.raises(MaintenanceError, match="holds it already"):
            second.commit()
        assert second.state is TransactionState.ABORTED
        relation = db.relation("r")
        assert relation.counts() == {(1, 2): 1, (3, 4): 1, (5, 6): 1}
        assert all(index._stale_key(relation) is None for index in relation.indexes.values())
        maintainer.verify_all()
        db.apply(deletes={"r": [(5, 6)]})
        assert (5, 6) not in relation.count_map
        maintainer.verify_all()


# ----------------------------------------------------------------------
# Property: the three ways to run a transaction are one commit
# ----------------------------------------------------------------------
LABELS = ["a", "b", "c", "d"]
GOOD_ROWS = {
    "r": st.tuples(st.integers(0, 6), st.sampled_from(LABELS)),
    "p": st.tuples(st.integers(0, 4)),
    "c": st.tuples(st.integers(0, 4), st.integers(0, 5)),
}
#: Bad arity, a label outside the domain, a string for an integer.
BAD_ROWS = st.sampled_from([(1,), (1, "zz"), ("x", "a"), (1, 2, 3)])
BATCHES = st.fixed_dictionaries(
    {name: st.lists(rows, max_size=3) for name, rows in GOOD_ROWS.items()}
).map(lambda batches: {name: rows for name, rows in batches.items() if rows})


@st.composite
def transactions(draw):
    """``(deletes, inserts)``; one in four holds one bad row somewhere."""
    deletes, inserts = draw(BATCHES), draw(BATCHES)
    if draw(st.integers(0, 3)) == 0:
        side = draw(st.sampled_from([deletes, inserts]))
        rows = side.setdefault(draw(st.sampled_from(sorted(GOOD_ROWS))), [])
        rows.insert(draw(st.integers(0, len(rows))), draw(BAD_ROWS))
    return deletes, inserts


def hooked_database(hook: str) -> Database:
    """``r`` (with a label column, an index and the constraint ``A < 5``),
    ``p`` keyed on ``K`` and ``c`` keyed on ``X`` with ``c(K) → p(K)``;
    ``hook`` names the commit hook: none, one that raises, or one that
    says the commit stands with a view quarantined."""
    database = Database()
    schema = RelationSchema([Attribute("A"), Attribute("B", StringDomain(LABELS))])
    database.create_relation("r", schema, [(1, "a"), (2, "b"), (3, "c")])
    database.create_index("r", ["B"])
    database.declare_constraint("r", "A < 5")
    database.create_relation("p", ["K"], [(0,), (1,), (2,)])
    database.declare_key("p", ["K"])
    database.create_relation("c", ["X", "K"], [(0, 0), (1, 1)])
    database.declare_key("c", ["X"])
    database.declare_foreign_key("c", ["K"], "p", ["K"])

    def raising(txn_id, deltas):
        raise RuntimeError("hook failed")

    def quarantining(txn_id, deltas):
        record = {"txn": txn_id, "seq": 0, "view": "v", "error": "E", "message": ""}
        raise ViewQuarantinedError(("v",), record)

    if hook == "raises":
        database.add_commit_hook(raising)
    elif hook == "quarantines":
        database.add_commit_hook(quarantining)
    return database


def run_apply(database, deletes, inserts):
    database.apply(inserts=inserts, deletes=deletes)


def run_with(database, deletes, inserts):
    with database.transact() as txn:
        for name, rows in deletes.items():
            txn.delete_many(name, rows)
        for name, rows in inserts.items():
            txn.insert_many(name, rows)


def run_explicit(database, deletes, inserts):
    txn = database.begin()
    try:
        for name, rows in deletes.items():
            txn.delete_many(name, rows)
        for name, rows in inserts.items():
            txn.insert_many(name, rows)
        txn.commit()
    except Exception:
        if txn.state is TransactionState.ACTIVE:
            txn.abort()
        raise


def outcome(run, hook, batches):
    """Everything a commit leaves behind, after ``run`` ran ``batches``."""
    database = hooked_database(hook)
    begun = []
    begin = database.begin
    database.begin = database.transact = (
        lambda txn_id=None: begun.append(begin(txn_id)) or begun[-1]
    )
    errors = []
    for deletes, inserts in batches:
        try:
            run(database, deletes, inserts)
        except Exception as exc:  # the type is the outcome
            errors.append(type(exc))
        else:
            errors.append(None)
    relations = {
        name: (
            dict(database.relation(name).count_map),
            {
                attributes: {key: set(rows) for key, rows in index._buckets.items()}
                for attributes, index in database.relation(name).indexes.items()
            },
        )
        for name in database.relation_names()
    }
    return (
        errors,
        [txn.state for txn in begun],
        relations,
        database.next_txn_id,
        database.last_sequence(),
    )


@settings(max_examples=150, deadline=None)
@given(
    hook=st.sampled_from(["none", "raises", "quarantines"]),
    batches=st.lists(transactions(), min_size=1, max_size=4),
)
def test_apply_with_block_and_explicit_commit_agree(hook, batches):
    """``Database.apply``, a ``with db.transact()`` block and an explicit
    ``begin()`` / ``commit()`` run over the same batches (bad rows at
    any position, repeats, insert-then-delete cancellations, constraint,
    key and foreign-key violations, a failing or quarantining hook)
    leave the same relations and indexes, transaction ids, position,
    transaction states and error types."""
    applied = outcome(run_apply, hook, batches)
    assert outcome(run_with, hook, batches) == applied
    assert outcome(run_explicit, hook, batches) == applied
