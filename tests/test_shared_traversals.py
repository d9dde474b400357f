"""Views that share a traversal, held to witnesses that never saw it.

A commit's trigger runs one traversal for the views whose cores are
equal, or whose core implies the traversing view's, and that read the
same deltas through the same screens (``codegen.traversals``).  Two
properties keep that honest:

* every view's contents equal what ``sqlite3`` computes from the base
  rows (``repro.algebra.sqlite_oracle``, which shares no code with the
  kernels), after every commit of a stream over the macrobench
  catalog, over generated groups of views sharing a core, and over
  ``test_row_orders.py``'s chain, star, self-join and DNF views;
* sharing is invisible per view: each view's contents, subscriber
  deltas and always-on row equal those of the same view defined alone,
  and the work counters a recorder is charged fall by exactly the
  traversals shared.
"""

from __future__ import annotations

import ast
import random
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import BaseRef, CostRecorder, Database, ViewMaintainer, recording
from repro.algebra.conditions import Atom, Condition, Conjunction
from repro.algebra.sqlite_oracle import SqliteOracle
from repro.cli import parse_view_expression
from repro.core.codegen import TRIGGER_ROW_COUNTS
from tests import test_row_orders as row_orders
from tests.strategies import SPJ_TABLES, update_streams

#: The counters a traversal charges; a shared one charges them once.
TRAVERSAL = (
    "truth_table_rows", "delta_rows_evaluated",
    "tuples_scanned", "join_probes", "index_probes", "tuples_emitted",
)

CATALOG_SCHEMA = {
    "customer": ["cust_id", "region", "tier"],
    "product": ["prod_id", "price", "category"],
    "lineitem": ["line_id", "cust_id", "prod_id", "qty", "status"],
}

QUICK = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _catalog():
    """The macrobench view specs and keys, read without importing it."""
    path = Path(__file__).resolve().parent.parent / "macrobench" / "catalog.py"
    assigned = {
        node.target.id: ast.literal_eval(node.value)
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.AnnAssign) and node.value is not None
    }
    return assigned["VIEW_SPECS"], assigned["KEYS"]


def _assert_matches_sqlite(db, maintainer, definitions):
    with SqliteOracle(db.instances()) as oracle:
        for name in definitions:
            expected = sorted(oracle.contents(definitions[name], definitions).items())
            got = sorted(maintainer.view(name).contents.count_map.items())
            assert repr(got) == repr(expected), name


# ----------------------------------------------------------------------
# The macrobench catalog against sqlite
# ----------------------------------------------------------------------

@st.composite
def catalog_streams(draw, txns=5):
    """Initial rows and a stream of commits over the catalog schema:
    lineitems in and out, price changes, new customers with their
    lineitems (two relations in one commit)."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    customers = [(c, rng.randrange(4), rng.randrange(3)) for c in range(5)]
    products = [(p, 380 + 10 * rng.randrange(10), rng.randrange(3)) for p in range(5)]
    lines = [(n, rng.randrange(5), rng.randrange(5), rng.randrange(1, 10), rng.randrange(3))
             for n in range(8)]
    initial = {"customer": customers, "product": products, "lineitem": lines}
    live = {name: list(rows) for name, rows in initial.items()}
    stream = []
    next_line, next_cust = 100, 100
    for _ in range(txns):
        inserts, deletes = {}, {}
        kind = rng.choice(["lines", "price", "customer", "drop"])
        if kind == "lines":
            rows = [(next_line + k, rng.choice(live["customer"])[0], rng.choice(live["product"])[0],
                     rng.randrange(1, 10), rng.randrange(3)) for k in range(rng.randint(1, 3))]
            next_line += len(rows)
            inserts["lineitem"] = rows
        elif kind == "price":
            old = live["product"].pop(rng.randrange(len(live["product"])))
            new = (old[0], 380 + 10 * rng.randrange(10), old[2])
            deletes["product"], inserts["product"] = [old], [new]
        elif kind == "customer":
            inserts["customer"] = [(next_cust, rng.randrange(4), rng.randrange(3))]
            inserts["lineitem"] = [(next_line, next_cust, rng.choice(live["product"])[0],
                                    rng.randrange(1, 10), rng.randrange(3))]
            next_cust, next_line = next_cust + 1, next_line + 1
        elif live["lineitem"]:
            deletes["lineitem"] = [live["lineitem"].pop(rng.randrange(len(live["lineitem"])))]
        for name, rows in inserts.items():
            live[name] += [row for row in rows if row not in live[name]]
        for name, rows in deletes.items():
            live[name] = [row for row in live[name] if row not in rows]
        stream.append((inserts, deletes))
    return initial, stream


@QUICK
@given(catalog_streams())
def test_the_macrobench_catalog_matches_sqlite_after_every_commit(stream):
    """The benchmark's six views, twice over (the second copy's cores
    equal the first's, so a commit shares their traversals), plus a
    view whose core implies ``cat_price``'s."""
    specs, keys = _catalog()
    initial, commits = stream
    db = Database()
    for name, attributes in CATALOG_SCHEMA.items():
        db.create_relation(name, attributes, initial[name])
    for name, key in keys.items():
        db.declare_key(name, list(key))
    maintainer = ViewMaintainer(db)
    definitions = {}
    for copy in ("", "_1"):
        for name, spec in specs.items():
            words = [f"{word}{copy}" if word in specs else word for word in spec.split(" ")]
            definitions[name + copy] = parse_view_expression(" ".join(words))
    definitions["cheap_lines"] = parse_view_expression(
        "lineitem join product where status = 0 and price < 420 select line_id, price"
    )
    for name, expression in definitions.items():
        maintainer.define_view(name, expression)
    assert maintainer.shared_traversals(["lineitem"]) == [
        (["open_lines", "open_lines_1"], "open_lines"),
        (["pricey_open", "cat_price", "pricey_open_1", "cat_price_1", "cheap_lines"], "cat_price"),
        (["region_activity", "region_qty", "region_activity_1", "region_qty_1"], "region_activity"),
    ]
    _assert_matches_sqlite(db, maintainer, definitions)
    for inserts, deletes in commits:
        db.apply(inserts=inserts, deletes=deletes)
        _assert_matches_sqlite(db, maintainer, definitions)


# ----------------------------------------------------------------------
# Groups of views over one core
# ----------------------------------------------------------------------

KINDS = ("equal", "implied", "dnf", "aggregate")


@st.composite
def core_groups(draw):
    """``(kind, definitions)``: two or three views over one core of
    ``tests/strategies.py``'s schema — equal cores projected apart, a
    core bounding its last operand and one bounding it tighter, two
    views with one DNF condition, or an aggregate and a projection —
    and a view stacked on the second."""
    names = draw(st.sampled_from([("r",), ("r", "s"), ("r", "s", "t"), ("s", "t")]))
    core = BaseRef(names[0])
    attributes = list(SPJ_TABLES[names[0]])
    atoms = []
    for name in names[1:]:
        link = Atom(attributes[-1], "=", SPJ_TABLES[name][0], draw(st.integers(-1, 1)))
        core = core.join(BaseRef(name))
        attributes += SPJ_TABLES[name]
        atoms.append(link)
    for _ in range(draw(st.integers(0, 2))):
        atoms.append(Atom(draw(st.sampled_from(attributes)), draw(st.sampled_from(["<", ">=", "="])),
                          draw(st.integers(0, 6))))
    if atoms:
        core = core.select(Condition([Conjunction(atoms)]))
    kind = draw(st.sampled_from(KINDS))
    first = sorted(draw(st.lists(st.sampled_from(attributes), min_size=1, max_size=3, unique=True)))
    second = sorted(draw(st.lists(st.sampled_from(attributes), min_size=1, max_size=3, unique=True)))
    if kind == "equal":
        views = {"v0": core.project(first), "v1": core.project(second), "v2": core}
    elif kind == "implied":
        # A bound on the last operand's unlinked attribute, and a
        # tighter one: the solver proves the one implies the other.
        column, bound = SPJ_TABLES[names[-1]][1], draw(st.integers(1, 4))
        views = {"v0": core.select(Condition([Conjunction([Atom(column, ">=", bound + 2)])])).project(first),
                 "v1": core.select(Condition([Conjunction([Atom(column, ">=", bound)])]))}
    elif kind == "dnf":
        left = Atom(attributes[0], "<", draw(st.integers(1, 5)))
        right = Atom(attributes[-1], ">=", draw(st.integers(1, 5)))
        either = Condition([Conjunction([left]), Conjunction([right])])
        views = {"v0": core.select(either).project(first), "v1": core.select(either).project(second)}
    else:
        views = {
            "v0": core.aggregate(first[:1], [("count", None, "n"), ("sum", attributes[0], "t"),
                                             ("avg", attributes[-1], "a"), ("min", attributes[-1], "lo")]),
            "v1": core.project(second),
        }
    views["top"] = BaseRef("v1").project([attributes[0] if kind == "implied" else second[0]])
    return kind, views


def _database(rows):
    db = Database()
    for name, columns in SPJ_TABLES.items():
        db.create_relation(name, columns, rows.get(name, ()))
    return db


def _run(definitions, initial, transactions):
    """Every view of ``definitions`` in one maintainer over one database
    fed ``transactions``: per commit, what a recorder was charged, each
    view's delivered deltas, and the maintainer."""
    db = _database(initial)
    maintainer = ViewMaintainer(db)
    delivered = {}
    for name, expression in definitions.items():
        maintainer.define_view(name, expression)
        delivered[name] = []
        maintainer.subscribe(name, lambda view, delta, log=delivered[name]: log.append(
            (sorted(delta.inserted.items()), sorted(delta.deleted.items()))))
    charged, groups = [], []
    for ops in transactions:
        with recording(CostRecorder()) as recorder:
            txn = db.begin()
            for op, name, row in ops:
                (txn.insert if op == "ins" else txn.delete)(name, row)
            deltas = txn.commit()
        charged.append({name: recorder.get(name) for name in TRAVERSAL})
        groups.append(maintainer.shared_traversals(
            sorted(name for name, delta in deltas.items() if not delta.is_empty())))
        for log in delivered.values():
            log.append("commit")
    return db, maintainer, delivered, charged, groups


@QUICK
@given(core_groups(), update_streams(max_txns=4))
def test_views_sharing_a_traversal_match_sqlite(group, stream):
    _, definitions = group
    initial, transactions = stream
    db, maintainer, _, _, _ = _run(definitions, initial, [])
    for ops in transactions:
        txn = db.begin()
        for op, name, row in ops:
            (txn.insert if op == "ins" else txn.delete)(name, row)
        txn.commit()
        _assert_matches_sqlite(db, maintainer, definitions)


@QUICK
@given(core_groups(), update_streams(max_txns=4))
def test_sharing_is_invisible_per_view(group, stream):
    _, definitions = group
    initial, transactions = stream
    _, together, delivered, charged, groups = _run(definitions, initial, transactions)
    alone = {}
    for name in definitions:
        # A stacked view is defined with what it reads, as it must be.
        needed = {name: definitions[name]}
        if name == "top":
            needed = {"v1": definitions["v1"], "top": definitions["top"]}
        alone[name] = _run(needed, initial, transactions)
    for name in definitions:
        _, maintainer, log, _, _ = alone[name]
        assert together.view(name).contents.count_map == maintainer.view(name).contents.count_map
        assert delivered[name] == log[name]
        ours, theirs = together.stats(name), maintainer.stats(name)
        assert {k: ours.get(k, 0) for k in TRIGGER_ROW_COUNTS} == {
            k: theirs.get(k, 0) for k in TRIGGER_ROW_COUNTS}, name
    # Charged once per traversal: the views alone, less what each view
    # that took another's traversal charged alone.
    for index, shared in enumerate(groups):
        expected = {metric: 0 for metric in TRAVERSAL}
        takers = {name for members, lead in shared for name in members if name != lead}
        for name in definitions:
            if name in takers:
                continue
            own = alone[name][3][index]
            upstream = alone["v1"][3][index] if name == "top" else None
            for metric in TRAVERSAL:
                expected[metric] += own[metric] - (upstream[metric] if upstream else 0)
        assert charged[index] == expected, (index, shared)


def test_a_one_row_lineitem_commit_runs_four_traversals_for_six_views():
    """``region_activity``/``region_qty`` and ``cat_price``/
    ``pricey_open`` share one traversal each, so six row kernels are
    four; ``explain`` names the sharing."""
    specs, keys = _catalog()
    db = Database()
    for name, attributes in CATALOG_SCHEMA.items():
        db.create_relation(name, attributes, [])
    db.apply(inserts={"customer": [(c, c % 4, c % 3) for c in range(8)],
                      "product": [(p, 390 + 10 * p, p % 3) for p in range(8)]})
    maintainer = ViewMaintainer(db)
    for name, spec in specs.items():
        maintainer.define_view(name, parse_view_expression(spec))
    db.apply(inserts={"lineitem": [(1, 2, 3, 7, 0)]})
    kernels = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "row_kernel":
            kernels.append(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        db.apply(inserts={"lineitem": [(2, 5, 4, 9, 0)]})
    finally:
        sys.setprofile(None)
    assert sorted(kernels) == [
        "<codegen:open_lines:shape0>", "<codegen:open_premium:shape0>",
        "<codegen:pricey_open:shape0:shared>", "<codegen:region_activity:shape0:shared>",
    ]
    assert maintainer.shared_traversals(["lineitem"]) == [
        (["pricey_open", "cat_price"], "cat_price"),
        (["region_activity", "region_qty"], "region_activity"),
    ]
    text = maintainer.explain("pricey_open", ["lineitem"])
    assert "shared traversal on this update: pricey_open, cat_price run one" in text
    assert "finish re-checks price > 400" in text
    assert "stored nodes: none" in text
    both = maintainer.explain("region_qty", ["lineitem", "customer"])
    # Two terms, rooted at distinct deltas: no node is read twice.
    assert "  row 0: i_lineitem -> pre_customer [probe cust_id]" in both
    assert "  row 1: i_customer -> lineitem [probe cust_id]" in both
    assert "stored nodes: none" in both
    assert both.endswith("region_activity, region_qty run one, over the plan of "
                         "'region_activity'; this view's finish re-checks nothing")
    assert maintainer.explain("open_lines", ["lineitem"]).endswith(
        "shared traversal on this update: none (no other view it reaches "
        "reads these deltas with this core)")
    maintainer.verify_all()


@QUICK
@given(row_orders.initial_rows, row_orders.initial_rows, row_orders.initial_rows,
       row_orders.streams)
def test_the_row_order_views_match_sqlite(a_rows, b_rows, c_rows, stream):
    """``test_row_orders.py``'s chain, star, self-join and DNF views,
    after every commit of its streams (one to three relations changed,
    a join key deleted and reinserted)."""
    db = row_orders._database(a_rows, b_rows, c_rows)
    maintainer = ViewMaintainer(db)
    for name, expression in row_orders.VIEWS.items():
        maintainer.define_view(name, expression)
    for txn_ops in stream:
        row_orders._replay(db, [txn_ops])
        _assert_matches_sqlite(db, maintainer, row_orders.VIEWS)


def test_a_tighter_bound_takes_the_looser_views_traversal():
    """``D >= 4`` is no atom of ``loose``, but the solver proves it
    implies ``D >= 2``: ``tight`` takes ``loose``'s traversal on an
    ``r`` commit and re-checks its own bound in its finish."""
    db = _database({"r": [(1, 2), (2, 3)], "s": [(2, 5), (3, 1), (3, 4)]})
    maintainer = ViewMaintainer(db)
    definitions = {
        "tight": BaseRef("r").join(BaseRef("s")).select("B = C and D >= 4").project(["A"]),
        "loose": BaseRef("r").join(BaseRef("s")).select("B = C and D >= 2"),
    }
    for name, expression in definitions.items():
        maintainer.define_view(name, expression)
    assert maintainer.shared_traversals(["r"]) == [(["tight", "loose"], "loose")]
    assert maintainer.explain("tight", ["r"]).endswith("this view's finish re-checks D >= 4")
    for inserts, deletes in [({"r": [(3, 3), (4, 2)]}, {}), ({}, {"r": [(1, 2)]}),
                             ({"r": [(5, 3)]}, {"r": [(2, 3)]})]:
        db.apply(inserts=inserts, deletes=deletes)
        _assert_matches_sqlite(db, maintainer, definitions)
