"""Integrity assertions ([HS78]) as views that must stay empty.

An assertion is declared by its *error predicate*, an SPJ expression
that is empty exactly when the assertion holds, and maintained as an
IMMEDIATE view (``MaintenancePolicy.ASSERTION``): a commit its view
would not stay empty through is undone and raises
:class:`~repro.errors.IntegrityViolation` naming the witnesses.
"""

import random

import pytest

from repro.algebra.expressions import BaseRef
from repro.core.maintainer import MaintenancePolicy, ViewMaintainer
from repro.engine.database import Database
from repro.engine.transactions import TransactionState
from repro.errors import IntegrityViolation, MaintenanceError
from tests.reference import compute_view_delta, filter_delta

ASSERTION = MaintenancePolicy.ASSERTION


@pytest.fixture
def db():
    database = Database()
    # accounts(acct, balance); the invariant: no negative balances.
    database.create_relation("accounts", ["acct", "balance"], [(1, 100), (2, 0)])
    # orders(order_id, acct): every order's account must be "active"
    # (balance >= 1) — modelled below as a join assertion.
    database.create_relation("orders", ["order_id", "acct"], [(10, 1)])
    return database


@pytest.fixture
def maintainer(db):
    return ViewMaintainer(db)


NEGATIVE_BALANCE = BaseRef("accounts").select("balance < 0")
INACTIVE_ORDERS = BaseRef("orders").join(BaseRef("accounts")).select("balance <= 0")


class TestDeclaration:
    def test_declare_compiles(self, maintainer):
        view = maintainer.define_view("non_negative", NEGATIVE_BALANCE, policy=ASSERTION)
        assert len(view.contents) == 0
        assert maintainer.policy("non_negative") is ASSERTION
        assert maintainer.dependencies("non_negative") == {"accounts"}

    def test_declare_rejects_currently_violated(self, db, maintainer):
        """Declaring over a violating state leaves no trace."""
        with db.transact() as txn:
            txn.insert("accounts", (3, -5))
        totals = maintainer.totals.as_dict()
        with pytest.raises(IntegrityViolation) as raised:
            maintainer.define_view("non_negative", NEGATIVE_BALANCE, policy=ASSERTION)
        assert raised.value.witnesses == [(3, -5)]
        assert maintainer.view_names() == ()
        assert maintainer.totals.as_dict() == totals
        # The name is free.
        maintainer.define_view("non_negative", BaseRef("accounts"))

    def test_duplicate_name_rejected(self, maintainer):
        maintainer.define_view("a", NEGATIVE_BALANCE, policy=ASSERTION)
        with pytest.raises(MaintenanceError):
            maintainer.define_view("a", NEGATIVE_BALANCE, policy=ASSERTION)

    def test_drop(self, db, maintainer):
        maintainer.define_view("a", NEGATIVE_BALANCE, policy=ASSERTION)
        maintainer.drop_view("a")
        assert maintainer.view_names() == ()
        db.apply(inserts={"accounts": [(3, -1)]})  # no longer enforced

    def test_nothing_stacks_on_an_assertion(self, maintainer):
        maintainer.define_view("a", NEGATIVE_BALANCE, policy=ASSERTION)
        with pytest.raises(MaintenanceError, match="assertion view 'a'"):
            maintainer.define_view("b", BaseRef("a"))


class TestPreCommitValidation:
    """A commit is checked before it takes effect: one its assertion
    view would not stay empty through is undone."""

    def test_valid_transaction_passes(self, db, maintainer):
        maintainer.define_view("non_negative", NEGATIVE_BALANCE, policy=ASSERTION)
        db.apply(inserts={"accounts": [(3, 50)]})
        assert (3, 50) in db.relation("accounts")

    def test_violating_insert_rejected_before_commit(self, db, maintainer):
        maintainer.define_view("non_negative", NEGATIVE_BALANCE, policy=ASSERTION)
        txn = db.begin()
        txn.insert("accounts", (3, -1))
        with pytest.raises(IntegrityViolation) as raised:
            txn.commit()
        assert raised.value.assertion_name == "non_negative"
        assert raised.value.witnesses == [(3, -1)]
        assert txn.state is TransactionState.ABORTED
        assert (3, -1) not in db.relation("accounts")
        assert db.last_sequence() == 0

    def test_validation_is_side_effect_free(self, db, maintainer):
        maintainer.define_view("non_negative", NEGATIVE_BALANCE, policy=ASSERTION)
        watched = maintainer.define_view("all", BaseRef("accounts"))
        agg = maintainer.define_view(
            "total", BaseRef("accounts").aggregate([], [("sum", "balance", "s")])
        )
        before = [db.relation("accounts").counts(), watched.contents.counts(),
                  agg.contents.counts(), dict(agg.aggregate_state.groups)]
        with pytest.raises(IntegrityViolation):
            db.apply(inserts={"accounts": [(3, -1)]})
        after = [db.relation("accounts").counts(), watched.contents.counts(),
                 agg.contents.counts(), dict(agg.aggregate_state.groups)]
        assert after == before
        assert len(maintainer.view("non_negative").contents) == 0
        maintainer.verify_all()

    def test_update_into_violation_detected(self, db, maintainer):
        maintainer.define_view("non_negative", NEGATIVE_BALANCE, policy=ASSERTION)
        with pytest.raises(IntegrityViolation):
            with db.transact() as txn:
                txn.update("accounts", (1, 100), (1, -100))
        assert (1, 100) in db.relation("accounts")

    def test_screened_updates_skip_evaluation(self, db, maintainer):
        """Updates the §4 filter proves irrelevant to the error
        predicate cost no differential — the [HS78] compile-time
        payoff: the assertion's row counts them ``transactions_skipped``."""
        maintainer.define_view("non_negative", NEGATIVE_BALANCE, policy=ASSERTION)
        db.apply(inserts={"accounts": [(3, 700)]})  # balance < 0 unsatisfiable
        stats = maintainer.stats("non_negative")
        assert stats["transactions_skipped"] == 1
        assert stats["deltas_applied"] == 0

    def test_join_assertion(self, db, maintainer):
        """An assertion spanning two relations: no order may reference
        an account with zero balance."""
        maintainer.define_view("active", INACTIVE_ORDERS, policy=ASSERTION)
        db.apply(inserts={"orders": [(11, 1)]})  # account 1 is active
        with pytest.raises(IntegrityViolation) as raised:
            db.apply(inserts={"orders": [(12, 2)]})  # account 2 has balance 0
        assert raised.value.witnesses == [(12, 2, 0)]
        assert (12, 2) not in db.relation("orders")

    def test_join_assertion_other_side(self, db, maintainer):
        maintainer.define_view("active", INACTIVE_ORDERS, policy=ASSERTION)
        # Draining account 1 to zero while it has an order violates too.
        with pytest.raises(IntegrityViolation):
            with db.transact() as txn:
                txn.update("accounts", (1, 100), (1, 0))
        assert (1, 100) in db.relation("accounts")

    def test_read_only_transaction_passes(self, db, maintainer):
        maintainer.define_view("non_negative", NEGATIVE_BALANCE, policy=ASSERTION)
        db.begin().commit()


class TestPostCommitMonitoring:
    """Advisory enforcement is an ordinary view plus a subscriber: it
    records what committed, and vetoes nothing."""

    @pytest.fixture
    def observed(self, maintainer):
        maintainer.define_view("negative", NEGATIVE_BALANCE)
        observed = []
        maintainer.subscribe("negative", self._record(observed))
        return observed

    @staticmethod
    def _record(observed):
        return lambda view, delta: observed.append(sorted(delta.inserted))

    def test_monitor_records_violations(self, db, observed):
        with db.transact() as txn:
            txn.insert("accounts", (3, -7))
        assert (3, -7) in db.relation("accounts")  # advisory: committed
        assert observed == [[(3, -7)]]

    def test_monitor_quiet_on_clean_commits(self, db, observed):
        with db.transact() as txn:
            txn.insert("accounts", (3, 7))
        assert observed == []

    def test_detach(self, db, maintainer):
        observed = []
        maintainer.define_view("negative", NEGATIVE_BALANCE)
        callback = self._record(observed)
        maintainer.subscribe("negative", callback)
        maintainer.unsubscribe("negative", callback)
        with db.transact() as txn:
            txn.insert("accounts", (3, -7))
        assert observed == []


class TestAgreesWithTheReference:
    """An assertion's witnesses are what the per-tuple reference finds
    the commit's error-predicate delta inserts."""

    def test_random_two_relation_join_assertions(self):
        rng = random.Random(37)
        checked = violated = 0
        for _ in range(120):
            db = Database()
            for name, attributes in (("r", ["A", "B"]), ("s", ["B", "C"])):
                rows = {(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(5)}
                db.create_relation(name, attributes, sorted(rows))
            predicate = (
                BaseRef("r")
                .join(BaseRef("s"))
                .select(f"A < {rng.randint(0, 6)} and C >= {rng.randint(0, 6)}")
            )
            maintainer = ViewMaintainer(db)
            try:
                view = maintainer.define_view("p", predicate, policy=ASSERTION)
            except IntegrityViolation:
                continue  # only a currently-satisfied assertion declares
            txn = db.begin()
            for _ in range(rng.randint(1, 4)):
                name = rng.choice(["r", "s"])
                row = (rng.randint(0, 5), rng.randint(0, 5))
                if row in db.relation(name):
                    txn.delete(name, row)
                else:
                    txn.insert(name, row)
            deltas = txn.net_deltas()
            post = dict(db.instances())
            relevant = {}
            normal_form = view.definition.normal_form
            for name, delta in deltas.items():
                post[name] = post[name].copy()
                delta.apply_to(post[name])
                screened, _ = filter_delta(normal_form, name, delta)
                if not screened.is_empty():
                    relevant[name] = screened
            want = (
                sorted(compute_view_delta(normal_form, post, relevant).inserted)
                if relevant
                else []
            )
            before = {name: db.relation(name).counts() for name in ("r", "s")}
            try:
                txn.commit()
                got = []
            except IntegrityViolation as exc:
                got = exc.witnesses
                violated += 1
                assert {n: db.relation(n).counts() for n in ("r", "s")} == before
            assert got == want
            checked += 1
        assert checked > 30
        assert violated > 5
