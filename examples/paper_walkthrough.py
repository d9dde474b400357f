"""A narrated walkthrough of the paper, section by section.

Runs every worked example from "Efficiently Updating Materialized
Views" (Blakeley, Larson & Tompa, SIGMOD 1986) on this implementation,
in the order the paper presents them, printing what the paper says next
to what the code computes.

Run:  python examples/paper_walkthrough.py
"""

from repro import (
    BaseRef,
    Database,
    ViewMaintainer,
    parse_condition,
    to_normal_form,
)
from repro.core.irrelevance import is_irrelevant_update
from repro.core.satisfiability import is_satisfiable
from repro.core.truthtable import enumerate_delta_rows, full_truth_table, render_row


def heading(text):
    print(f"\n{'=' * 72}\n{text}\n{'=' * 72}")


def section_4_example_4_1():
    heading("Section 4, Example 4.1 — relevant and irrelevant updates")
    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 2), (5, 10), (12, 15)])
    db.create_relation("s", ["C", "D"], [(2, 10), (10, 20)])
    expr = (
        BaseRef("r")
        .product(BaseRef("s"))
        .select("A < 10 and C > 5 and B = C")
        .project(["A", "D"])
    )
    nf = to_normal_form(expr, db.schema_catalog())
    print("u =", expr)
    print("\nr:", sorted(db.relation("r").value_tuples()))
    print("s:", sorted(db.relation("s").value_tuples()))

    for tup in ((9, 10), (11, 10)):
        substituted = parse_condition(
            f"{tup[0]} < 10 and C > 5 and {tup[1]} = C"
        )
        sat = is_satisfiable(substituted)
        verdict = is_irrelevant_update(nf, "r", tup, db.relation("r").schema)
        print(
            f"\ninsert {tup} into r:"
            f"\n  C({tup[0]}, {tup[1]}, C) = {substituted}"
            f"\n  satisfiable: {sat}  ->  "
            + ("RELEVANT" if not verdict else "IRRELEVANT (provably, any state)")
        )
    print(
        "\nPaper: (9,10) is relevant; (11,10) is irrelevant regardless of "
        "the database state.  Reproduced."
    )


def section_5_1_select_views():
    heading("Section 5.1 — select views: v' = v ∪ σ_C(i_r) − σ_C(d_r)")
    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 5), (2, 50)])
    m = ViewMaintainer(db, auto_verify=True)
    v = m.define_view("v", BaseRef("r").select("B < 10"))
    print("v = σ_{B<10}(r), initially:", sorted(v.contents.value_tuples()))
    with db.transact() as txn:
        txn.insert("r", (3, 7))
        txn.delete("r", (1, 5))
    print("after insert (3,7), delete (1,5):", sorted(v.contents.value_tuples()))
    print("No base relation was consulted: the delta alone sufficed.")


def section_5_2_project_views():
    heading("Section 5.2, Example 5.1 — project views need counters")
    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 10), (2, 10), (3, 20)])
    m = ViewMaintainer(db, auto_verify=True)
    v = m.define_view("v", BaseRef("r").project(["B"]))
    print("v = π_B(r):")
    print(v.contents.pretty())
    with db.transact() as txn:
        txn.delete("r", (1, 10))
    print("\nafter delete (1,10) — 10 must SURVIVE ((2,10) still supports it):")
    print(v.contents.pretty())
    with db.transact() as txn:
        txn.delete("r", (2, 10))
    print("\nafter delete (2,10) — counter hits zero, 10 leaves:")
    print(v.contents.pretty())


def section_5_3_join_views():
    heading("Section 5.3 — join views and the truth table (p = 3)")
    names = ["r1", "r2", "r3"]
    print("The full 2^p table (row 1 = current view):")
    for i, row in enumerate(full_truth_table(3), start=1):
        bits = " ".join(str(c.value) for c in row)
        print(f"  row {i}:  {bits}   {render_row(row, names)}")
    print("\nTransaction inserts into r1 and r2 only -> evaluate rows 3, 5, 7:")
    for row in enumerate_delta_rows(3, [0, 1]):
        print("  " + render_row(row, names))

    db = Database()
    db.create_relation("r1", ["A", "B"], [(1, 1)])
    db.create_relation("r2", ["B", "C"], [(1, 1), (2, 2)])
    db.create_relation("r3", ["C", "D"], [(1, 1), (2, 2)])
    m = ViewMaintainer(db, auto_verify=True)
    v = m.define_view(
        "v", BaseRef("r1").join(BaseRef("r2")).join(BaseRef("r3"))
    )
    print("\nConcrete instance; view before:", sorted(v.contents.value_tuples()))
    with db.transact() as txn:
        txn.insert("r1", (9, 2))
        txn.insert("r2", (2, 1))
    print("insert (9,2) into r1 and (2,1) into r2; view after:")
    for values in sorted(v.contents.value_tuples()):
        print("  ", values)
    print("(verified against complete re-evaluation)")


def section_5_3_tags():
    heading("Section 5.3, Example 5.4 — mixed transactions and tags")
    print("The join tag table (the generated row kernels combine tags by it):")
    for left, right, joined in (
        ("insert", "insert", "insert"), ("insert", "delete", "ignore"),
        ("insert", "old", "insert"), ("delete", "insert", "ignore"),
        ("delete", "delete", "delete"), ("delete", "old", "delete"),
        ("old", "insert", "insert"), ("old", "delete", "delete"),
        ("old", "old", "old"),
    ):
        print(f"  {left:<6} ⋈ {right:<6} -> {joined}")
    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 10)])
    db.create_relation("s", ["B", "C"], [(10, 5)])
    m = ViewMaintainer(db, auto_verify=True)
    v = m.define_view("v", BaseRef("r").join(BaseRef("s")))
    print("\nview r ⋈ s before:", sorted(v.contents.value_tuples()))
    with db.transact() as txn:
        txn.insert("r", (2, 20))   # i_r
        txn.insert("s", (20, 6))   # i_s  -> i_r ⋈ i_s inserts
        txn.delete("r", (1, 10))   # d_r  -> d_r ⋈ s deletes
    print("after {insert (2,20) r, insert (20,6) s, delete (1,10) r}:")
    print("  ", sorted(v.contents.value_tuples()))


def section_5_4_spj():
    heading("Section 5.4, Example 5.5 / Algorithm 5.1 — SPJ views")
    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 10)])
    db.create_relation("s", ["B", "C"], [(10, 5), (20, 50)])
    m = ViewMaintainer(db, auto_verify=True)
    expr = BaseRef("r").join(BaseRef("s")).select("C > 10").project(["A"])
    v = m.define_view("v", expr)
    print("v = π_A(σ_{C>10}(r ⋈ s)), before:", sorted(v.contents.value_tuples()))
    with db.transact() as txn:
        txn.insert("r", (9, 20))
    print("after insert (9,20) into r:", sorted(v.contents.value_tuples()))
    print("\nThe maintenance plan the update executed:")
    print(m.explain("v", ["r"]))


def section_6_snapshots():
    heading("Section 6 — snapshots [AL80]: deferred refresh")
    from repro.core.maintainer import MaintenancePolicy

    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 5)])
    m = ViewMaintainer(db)
    v = m.define_view(
        "snap", BaseRef("r").select("B >= 5"),
        policy=MaintenancePolicy.DEFERRED,
    )
    with db.transact() as txn:
        txn.insert("r", (2, 9))
    with db.transact() as txn:
        txn.delete("r", (2, 9))
    with db.transact() as txn:
        txn.insert("r", (3, 8))
    pending = m.pending_deltas("snap")
    print(
        "Three transactions committed; composed pending delta on r:",
        {
            "inserted": sorted(pending["r"].inserted),
            "deleted": sorted(pending["r"].deleted),
        },
    )
    print("(the insert/delete pair of (2,9) cancelled across transactions)")
    m.refresh("snap")
    print("after refresh:", sorted(v.contents.value_tuples()))


def main() -> None:
    section_4_example_4_1()
    section_5_1_select_views()
    section_5_2_project_views()
    section_5_3_join_views()
    section_5_3_tags()
    section_5_4_spj()
    section_6_snapshots()
    print("\nDone — every worked example reproduced.")


if __name__ == "__main__":
    main()
