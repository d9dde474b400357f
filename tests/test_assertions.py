"""Unit tests for integrity-assertion monitoring ([HS78] extension)."""

import random

import pytest

from repro.algebra.expressions import BaseRef
from repro.engine.database import Database
from repro.errors import MaintenanceError
from repro.extensions.assertions import AssertionMonitor, IntegrityViolation
from tests.reference import compute_view_delta, filter_delta


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
def monitor(db):
    return AssertionMonitor(db)


NEGATIVE_BALANCE = BaseRef("accounts").select("balance < 0")


class TestDeclaration:
    def test_declare_compiles(self, monitor):
        assertion = monitor.declare("non_negative", NEGATIVE_BALANCE)
        assert assertion.relation_names == {"accounts"}
        assert monitor.assertion_names() == ("non_negative",)

    def test_declare_rejects_currently_violated(self, db, monitor):
        with db.transact() as txn:
            txn.insert("accounts", (3, -5))
        with pytest.raises(IntegrityViolation):
            monitor.declare("non_negative", NEGATIVE_BALANCE)

    def test_duplicate_name_rejected(self, monitor):
        monitor.declare("a", NEGATIVE_BALANCE)
        with pytest.raises(MaintenanceError):
            monitor.declare("a", NEGATIVE_BALANCE)

    def test_drop(self, monitor):
        monitor.declare("a", NEGATIVE_BALANCE)
        monitor.drop("a")
        assert monitor.assertion_names() == ()
        with pytest.raises(MaintenanceError):
            monitor.drop("a")


class TestPreCommitValidation:
    def test_valid_transaction_passes(self, db, monitor):
        monitor.declare("non_negative", NEGATIVE_BALANCE)
        txn = db.begin()
        txn.insert("accounts", (3, 50))
        monitor.validate_transaction(txn)  # must not raise
        txn.commit()

    def test_violating_insert_rejected_before_commit(self, db, monitor):
        monitor.declare("non_negative", NEGATIVE_BALANCE)
        txn = db.begin()
        txn.insert("accounts", (3, -1))
        with pytest.raises(IntegrityViolation) as exc:
            monitor.validate_transaction(txn)
        assert (3, -1) in exc.value.witnesses
        txn.abort()
        assert (3, -1) not in db.relation("accounts")

    def test_update_into_violation_detected(self, db, monitor):
        monitor.declare("non_negative", NEGATIVE_BALANCE)
        txn = db.begin()
        txn.update("accounts", (1, 100), (1, -100))
        with pytest.raises(IntegrityViolation):
            monitor.validate_transaction(txn)

    def test_validation_is_side_effect_free(self, db, monitor):
        monitor.declare("non_negative", NEGATIVE_BALANCE)
        before = db.relation("accounts").copy()
        txn = db.begin()
        txn.insert("accounts", (3, -1))
        with pytest.raises(IntegrityViolation):
            monitor.validate_transaction(txn)
        assert db.relation("accounts") == before

    def test_screened_updates_skip_evaluation(self, db, monitor):
        """Updates the §4 filter proves irrelevant to the error
        predicate cost nothing — the [HS78] compile-time payoff."""
        from repro.instrumentation import CostRecorder, recording

        monitor.declare("non_negative", NEGATIVE_BALANCE)
        txn = db.begin()
        txn.insert("accounts", (3, 700))  # balance < 0 unsatisfiable
        recorder = CostRecorder()
        with recording(recorder):
            monitor.validate_transaction(txn)
        assert recorder.get("assertion_checks_screened") == 1
        assert recorder.get("differential_updates") == 0

    def test_a_screened_out_check_copies_only_the_touched_relation(
        self, db, monitor, monkeypatch
    ):
        """Screening reads the deltas alone: a transaction whose deltas
        all screen out costs no copy of a relation it did not touch."""
        from repro.algebra.relation import Relation

        monitor.declare(
            "orders_active_accounts",
            BaseRef("orders").join(BaseRef("accounts")).select("balance <= 0"),
        )
        copied = []
        real = Relation.copy

        def copy(relation):
            copied.append(relation)
            return real(relation)

        monkeypatch.setattr(Relation, "copy", copy)
        txn = db.begin()
        txn.insert("accounts", (3, 700))  # balance <= 0 unsatisfiable
        monitor.validate_transaction(txn)
        assert copied == [db.relation("accounts")]

    def test_a_join_check_leaves_the_live_relations_unindexed(self, db, monitor):
        monitor.declare(
            "orders_active_accounts",
            BaseRef("orders").join(BaseRef("accounts")).select("balance <= 0"),
        )
        txn = db.begin()
        txn.insert("orders", (11, 1))  # account 1 is active: no violation
        monitor.validate_transaction(txn)
        txn.commit()
        monitor.attach()
        with db.transact() as txn:
            txn.insert("orders", (12, 1))
        assert monitor.observed_violations == []
        assert not db.relation("accounts").indexes
        assert not db.relation("orders").indexes

    def test_join_assertion(self, db, monitor):
        """An assertion spanning two relations: no order may reference
        an account with zero balance."""
        predicate = (
            BaseRef("orders")
            .join(BaseRef("accounts"))
            .select("balance <= 0")
        )
        monitor.declare("orders_active_accounts", predicate)
        txn = db.begin()
        txn.insert("orders", (11, 2))  # account 2 has balance 0
        with pytest.raises(IntegrityViolation):
            monitor.validate_transaction(txn)

    def test_join_assertion_other_side(self, db, monitor):
        predicate = (
            BaseRef("orders")
            .join(BaseRef("accounts"))
            .select("balance <= 0")
        )
        monitor.declare("orders_active_accounts", predicate)
        # Draining account 1 to zero while it has an order violates too.
        txn = db.begin()
        txn.update("accounts", (1, 100), (1, 0))
        with pytest.raises(IntegrityViolation):
            monitor.validate_transaction(txn)

    def test_read_only_transaction_passes(self, db, monitor):
        monitor.declare("non_negative", NEGATIVE_BALANCE)
        txn = db.begin()
        monitor.validate_transaction(txn)
        txn.commit()


class TestPostCommitMonitoring:
    def test_monitor_records_violations(self, db, monitor):
        monitor.declare("non_negative", NEGATIVE_BALANCE)
        monitor.attach()
        with db.transact() as txn:
            txn.insert("accounts", (3, -7))
        assert len(monitor.observed_violations) == 1
        txn_id, name, witnesses = monitor.observed_violations[0]
        assert name == "non_negative"
        assert witnesses == [(3, -7)]

    def test_monitor_quiet_on_clean_commits(self, db, monitor):
        monitor.declare("non_negative", NEGATIVE_BALANCE)
        monitor.attach()
        with db.transact() as txn:
            txn.insert("accounts", (3, 7))
        assert monitor.observed_violations == []

    def test_detach(self, db, monitor):
        monitor.declare("non_negative", NEGATIVE_BALANCE)
        monitor.attach()
        monitor.detach()
        with db.transact() as txn:
            txn.insert("accounts", (3, -7))
        assert monitor.observed_violations == []


class TestAgreesWithTheReference:
    """The monitor runs compiled plans; its witnesses are what the
    per-tuple reference finds over the same simulated post-state."""

    def test_random_two_relation_join_assertions(self):
        rng = random.Random(37)
        checked = 0
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
            monitor = AssertionMonitor(db)
            try:
                assertion = monitor.declare("p", predicate)
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
            try:
                monitor.validate_transaction(txn)
                got = []
            except IntegrityViolation as exc:
                got = exc.witnesses
            deltas = txn.net_deltas()
            post = dict(db.instances())
            relevant = {}
            for name, delta in deltas.items():
                post[name] = post[name].copy()
                delta.apply_to(post[name])
                screened, _ = filter_delta(assertion.normal_form, name, delta)
                if not screened.is_empty():
                    relevant[name] = screened
            want = (
                sorted(compute_view_delta(assertion.normal_form, post, relevant).inserted)
                if relevant
                else []
            )
            assert got == want
            txn.abort()
            checked += 1
        assert checked > 30
