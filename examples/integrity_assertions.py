"""Integrity assertions as views that must stay empty ([HS78]).

The paper's conclusions note that irrelevant-update detection "can be
used in those contexts as well" — meaning trigger support and Hammer &
Sarin's integrity assertions.  An assertion is declared by its *error
predicate*, which is empty exactly when the assertion holds, and is
maintained like any other view: ``MaintenancePolicy.ASSERTION``.  This
example declares two over a small banking schema:

* ``non_negative`` — no account balance may drop below zero
  (error predicate: σ_{balance<0}(accounts));
* ``orders_active`` — no order may reference a drained account
  (error predicate: σ_{balance≤0}(orders ⋈ accounts)).

A commit that would leave an assertion's view non-empty is undone — the
base relations and every view as they were — and raises
``IntegrityViolation`` with the witnesses.  Updates the Section 4 filter
proves irrelevant to an error predicate never reach its differential.
Advisory monitoring, which records instead of rejecting, is an ordinary
view plus a subscriber.

Run:  python examples/integrity_assertions.py
"""

from repro import BaseRef, Database
from repro.core.maintainer import MaintenancePolicy, ViewMaintainer
from repro.errors import IntegrityViolation


def main() -> None:
    db = Database()
    db.create_relation(
        "accounts", ["acct", "balance"], [(1, 100), (2, 40), (3, 0)]
    )
    db.create_relation("orders", ["order_id", "acct"], [(10, 1), (11, 2)])

    maintainer = ViewMaintainer(db)
    assertion = MaintenancePolicy.ASSERTION
    maintainer.define_view(
        "non_negative", BaseRef("accounts").select("balance < 0"), policy=assertion
    )
    maintainer.define_view(
        "orders_active",
        BaseRef("orders").join(BaseRef("accounts")).select("balance <= 0"),
        policy=assertion,
    )
    # Advisory: large balances are allowed, but someone wants to hear.
    maintainer.define_view("large", BaseRef("accounts").select("balance >= 80"))
    alerts: list[tuple] = []
    maintainer.subscribe(
        "large", lambda view, delta: alerts.extend(sorted(delta.inserted))
    )
    print("Declared assertions: non_negative, orders_active")

    def attempt(description, build):
        before = db.relation("accounts").counts(), db.relation("orders").counts()
        txn = db.begin()
        build(txn)
        try:
            txn.commit()
        except IntegrityViolation as violation:
            after = db.relation("accounts").counts(), db.relation("orders").counts()
            assert after == before, "a rejected commit changes nothing"
            print(f"  REJECTED  {description}\n            -> {violation}")
        else:
            print(f"  committed {description}")

    print("\nRunning transactions:\n")
    attempt(
        "deposit 50 into account 2",
        lambda txn: txn.update("accounts", (2, 40), (2, 90)),
    )
    attempt(
        "withdraw 200 from account 1 (overdraft!)",
        lambda txn: txn.update("accounts", (1, 100), (1, -100)),
    )
    attempt(
        "order 12 for account 3 (drained!)",
        lambda txn: txn.insert("orders", (12, 3)),
    )
    attempt(
        "order 13 for account 2",
        lambda txn: txn.insert("orders", (13, 2)),
    )
    attempt(
        "drain account 2 to zero while it has orders (violates join assertion)",
        lambda txn: txn.update("accounts", (2, 90), (2, 0)),
    )

    print("\nFinal accounts:")
    print(db.relation("accounts").pretty())
    print("\nFinal orders:")
    print(db.relation("orders").pretty())
    print("\nAdvisory alerts (committed large balances):", alerts)
    assert alerts == [(2, 90)]
    maintainer.verify_all()
    print(
        "\nEvery committed state satisfies both assertions; every "
        "violating commit was undone, with witnesses."
    )


if __name__ == "__main__":
    main()
