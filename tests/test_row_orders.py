"""Per-row join orders: every truth-table row starts at a delta.

``RowPlanner`` gives each row of a shape its own order — rooted at the
row's lowest DELTA position and grown along the equality links — and
the generated kernels walk the same ``planner.chains`` the reference
evaluator does.  Held here:

* **parity** — over 3-operand chain and star joins and a self-join,
  with one to three relations changed per transaction (inserts, deletes
  and a delete-and-reinsert of one join key), the maintainer equals the
  reference functions on view contents and on every
  ``REFERENCE_PARITY_COUNTERS`` entry, and equals a full recompute;
* **size independence, by counters** — a k = 2 transaction scans,
  probes and index-probes the same amounts at base sizes 10² and 10⁴,
  and a chain whose last relation changes never cross-joins;
* **sharing** — the memo hits a shape's kernels charge are the ones the
  reference planner scores walking the same chains.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import BaseRef, Database, ViewMaintainer
from repro.algebra.expressions import to_normal_form
from repro.core.codegen import compile_shape_kernels
from repro.core.consistency import check_view_consistency
from repro.core.planner import RowPlanner
from repro.instrumentation import CostRecorder, recording
from tests.reference import REFERENCE_PARITY_COUNTERS, ReferenceViews

RELATIONS = {"a": ["A", "B"], "b": ["B", "C"], "c": ["C", "D"]}

VIEWS = {
    # a - b - c, the centre in the middle position ...
    "chain": BaseRef("a").join(BaseRef("b")).join(BaseRef("c")),
    # ... and first: both leaves link to position 0 and to nothing else.
    "star": BaseRef("b").join(BaseRef("a")).join(BaseRef("c")).project(["A", "D"]),
    # One changed relation, two changed occurrences: a k = 2 shape.
    "self": BaseRef("a")
    .product(BaseRef("a").rename({"A": "A2", "B": "B2"}))
    .select("B = A2"),
    # A disjunction: the final DNF re-check reads each order's layout.
    "either": BaseRef("a").join(BaseRef("b")).select("A < 2 or C > 2"),
}

values = st.integers(min_value=0, max_value=4)
initial_rows = st.lists(st.tuples(values, values), max_size=8, unique=True)

#: ("insert", relation, row) | ("delete", relation, pick) |
#: ("rekey", relation, pick, new second value): delete a live row and
#: insert another with the same first attribute in one transaction.
operations = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from("abc"), st.tuples(values, values)),
    st.tuples(st.just("delete"), st.sampled_from("abc"), st.integers(0, 50)),
    st.tuples(st.just("rekey"), st.sampled_from("abc"), st.integers(0, 50), values),
)
streams = st.lists(
    st.lists(operations, min_size=1, max_size=4), min_size=1, max_size=6
)


def _database(a_rows, b_rows, c_rows) -> Database:
    db = Database()
    for (name, attrs), rows in zip(RELATIONS.items(), (a_rows, b_rows, c_rows)):
        db.create_relation(name, attrs, rows)
    return db


def _replay(db: Database, stream) -> None:
    for txn_ops in stream:
        with db.transact() as txn:
            for op in txn_ops:
                kind, name = op[0], op[1]
                live = sorted(db.relation(name).value_tuples())
                if kind == "insert":
                    txn.insert(name, op[2])
                elif live:
                    victim = live[op[2] % len(live)]
                    txn.delete(name, victim)
                    if kind == "rekey":
                        txn.insert(name, (victim[0], op[3]))


class TestParityWithTheReference:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(initial_rows, initial_rows, initial_rows, streams)
    def test_contents_counters_and_recompute(self, a_rows, b_rows, c_rows, stream):
        evidence = []
        for engine in (ViewMaintainer, ReferenceViews):
            db = _database(a_rows, b_rows, c_rows)
            views = engine(db)
            for name, expression in VIEWS.items():
                views.define_view(name, expression)
            recorder = CostRecorder()
            with recording(recorder):
                _replay(db, stream)
            for name in VIEWS:
                check_view_consistency(views.view(name), db.instances())
            evidence.append(
                (
                    {n: dict(views.view(n).contents.counts()) for n in VIEWS},
                    {c: recorder.get(c) for c in REFERENCE_PARITY_COUNTERS},
                )
            )
        assert evidence[0] == evidence[1]


def _counts_of_one_commit(db: Database, inserts) -> dict[str, int]:
    recorder = CostRecorder()
    with recording(recorder):
        db.apply(inserts)
    return {
        name: recorder.get(name)
        for name in ("tuples_scanned", "join_probes", "index_probes")
    }


class TestWorkDoesNotTrackTheBase:
    def _order_counts(self, customers: int) -> dict[str, int]:
        db = Database()
        db.create_relation(
            "customer", ["cust_id", "region"], [(i, i % 5) for i in range(customers)]
        )
        db.create_relation(
            "lineitem",
            ["line_id", "cust_id", "qty"],
            [(i, i % customers, 1 + i % 7) for i in range(10 * customers)],
        )
        maintainer = ViewMaintainer(db)
        maintainer.define_view(
            "activity",
            BaseRef("lineitem").join(BaseRef("customer")).project(["region"]),
        )
        new = customers
        order = {
            "customer": [(new, 3)],
            "lineitem": [(10 * customers + i, new, 2) for i in range(4)],
        }
        # Warm the shape (its indexes are created on first use), then
        # count an identical second order.
        db.apply(order)
        again = {
            "customer": [(new + 1, 3)],
            "lineitem": [(10 * customers + 4 + i, new + 1, 2) for i in range(4)],
        }
        counts = _counts_of_one_commit(db, again)
        maintainer.verify_all()
        return counts

    def test_k2_transaction_costs_the_same_at_any_base_size(self):
        small = self._order_counts(10)  # 10² lineitems
        large = self._order_counts(1_000)  # 10⁴ lineitems
        assert small == large
        # Only DELTA operands are scanned: the customer opening row 0,
        # the four lineitems opening rows 1 and 2 (shared), and the
        # customer again as row 2's hash build.  OLD operands are
        # reached by one lineitem(cust_id) probe and four customer ones.
        assert large == {"tuples_scanned": 6, "join_probes": 9, "index_probes": 5}

    def test_chain_with_its_last_relation_changed_never_cross_joins(self):
        db = Database()
        db.create_relation("a", ["A", "B"], [(i, i % 20) for i in range(400)])
        db.create_relation("b", ["B", "C"], [(i % 20, i % 30) for i in range(60)])
        db.create_relation("c", ["C", "D"], [(i % 30, i) for i in range(90)])
        maintainer = ViewMaintainer(db)
        maintainer.define_view(
            "chain", BaseRef("a").join(BaseRef("b")).join(BaseRef("c"))
        )
        db.apply({"c": [(7, 1_000)]})
        delta = [(7, 1_001), (8, 1_002)]
        counts = _counts_of_one_commit(db, {"c": delta})
        maintainer.verify_all()
        # c -> b -> a, each reached through an index: the only tuples
        # read outside a probe are the delta's own.
        assert counts["tuples_scanned"] <= len(delta)
        assert counts["index_probes"] > 0


class TestSharing:
    def test_kernel_memo_hits_are_the_reference_planners(self):
        db = _database([(1, 2)], [(2, 3)], [(3, 4)])
        nf = to_normal_form(VIEWS["chain"], db.schema_catalog())
        planner = RowPlanner(nf, changed_positions=[0, 1, 2])
        kernels = compile_shape_kernels(planner, "chain")
        assert kernels is not None and kernels.rows_evaluated == 7

        reference = ReferenceViews(db, {"chain": VIEWS["chain"]})
        recorder = CostRecorder()
        with recording(recorder):
            db.apply({"a": [(5, 2)], "b": [(2, 9)], "c": [(9, 9)]})
        assert reference.view("chain").contents
        # Seven rows, three distinct opening deltas: the other four
        # rows each re-use an opening some earlier row evaluated.
        assert recorder.get("subexpression_memo_hits") == 4
        assert kernels.memo_hits == 4
