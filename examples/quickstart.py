"""Quickstart: the paper's Example 4.1, end to end.

Creates the exact database instance printed in the paper, defines the
view  u = π_{A,D}( σ_{A<10 ∧ C>5 ∧ B=C} (r × s) )  as a maintained
materialized view, and then runs the example's two insertions —
one relevant, one provably irrelevant — showing how the Section 4
filter and the Section 5 differential algorithm cooperate.

Run:  python examples/quickstart.py
"""

from repro import BaseRef, Database, ViewMaintainer, check_view_consistency


def main() -> None:
    # --- Base relations, exactly as printed in Example 4.1 -----------
    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 2), (5, 10), (12, 15)])
    db.create_relation("s", ["C", "D"], [(2, 10), (10, 20)])

    # --- The view definition ------------------------------------------
    expression = (
        BaseRef("r")
        .product(BaseRef("s"))
        .select("A < 10 and C > 5 and B = C")
        .project(["A", "D"])
    )

    maintainer = ViewMaintainer(db)
    view = maintainer.define_view("u", expression)

    print("View definition:", expression)
    print("\nInitial materialization of u:")
    print(view.contents.pretty())

    # --- The paper's two insertions -----------------------------------
    print("\nInserting (9, 10) and (11, 10) into r ...")
    with db.transact() as txn:
        txn.insert("r", (9, 10))    # relevant: 9 < 10 and B = 10 can match C
        txn.insert("r", (11, 10))   # irrelevant: 11 < 10 is false in every state

    print("\nView after the transaction:")
    print(view.contents.pretty())

    stats = maintainer.stats("u")
    print(
        f"\nThe filter screened {stats['tuples_screened']} tuples and proved "
        f"{stats['tuples_irrelevant']} irrelevant;"
    )
    print(
        f"{stats['deltas_applied']} differential update(s) were applied "
        "instead of re-evaluating the view from scratch."
    )

    # --- Independent verification --------------------------------------
    report = check_view_consistency(view, db.instances())
    print("\nConsistency check against full re-evaluation:", report.summary())


if __name__ == "__main__":
    main()
