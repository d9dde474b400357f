"""Hash indexes on materialized views (OLD view operands are probed).

A view stacked on another view reaches its upstream operand the way it
reaches a base relation: through a hash index on the link attributes,
bound lazily by its compiled plan (``view.contents.index_on``) and kept
up by the contents relation itself, as any stored relation's are.  The
upstream is a *bag*, so a probed tuple's multiplicity is read from the
live contents.  Pinned here:

* **parity** — over random streams on a stacked pair whose upstream
  holds multiplicities ≥ 2, the reader equals its recompute and every
  view index equals a rebuild after every commit; the generated kernels
  agree with the reference functions (``tests/reference.py``) on
  contents and every work counter — behind the same index probes
  (``index_probe_for``) on ``tuples_scanned`` and ``index_probes`` too;
* **cost by a count** — a commit reaching the OLD view operand scans
  the same number of tuples whatever the upstream view holds;
* **lifecycle** — indexes are built on a plan's first bind (also after
  ``restore_view`` and crash recovery), dropped with their last reader,
  rebuilt in place by ``replace_contents``, and audited by
  ``verify_all``;
* **one path** — no generated kernel chooses between probing and
  hashing a linked OLD operand at run time.
"""

import ast
import gc
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BaseRef, Database, ViewMaintainer, core, instrumentation
from tests.reference import evaluate
from repro.algebra.relation import Delta, HashIndex, Relation
from repro.algebra.schema import RelationSchema
from repro.analysis.findings import F_UNBOUND_OLD_OPERAND
from repro.cli import parse_view_expression
from repro.errors import MaintenanceError
from repro.instrumentation import CostRecorder, recording
from repro.engine.persistence import database_to_document
from repro.replication import DurabilityManager, recover
from repro.replication.checkpoints import Checkpoint
from tests.conftest import call_events
from tests.reference import (
    PROBE_PARITY_COUNTERS,
    REFERENCE_PARITY_COUNTERS,
    ReferenceViews,
)


#: ``p`` drops r's key, so its tuples carry counters ≥ 2; ``st`` joins
#: it to ``t`` through ``E = B``.
BAG_VIEWS = {
    "p": BaseRef("r").project(["B"]),
    "st": BaseRef("t").product(BaseRef("p")).select("E = B"),
}
R_ROWS = [(a, a % 3) for a in range(9)]
T_ROWS = [(0, 0), (1, 1), (2, 5)]


def _bag_database():
    db = Database()
    db.create_relation("r", ["A", "B"], R_ROWS)
    db.create_relation("t", ["E", "F"], T_ROWS)
    return db


def _bag_maintainer(db):
    maintainer = ViewMaintainer(db)
    for name, expression in BAG_VIEWS.items():
        maintainer.define_view(name, expression)
    return maintainer


def _assert_indexes_match_contents(maintainer):
    for name in maintainer.view_names():
        view = maintainer.view(name)
        for attrs, index in view.contents.indexes.items():
            rebuilt = HashIndex(view.contents, attrs)
            assert index._buckets == rebuilt._buckets, (name, attrs)


def _replay(stream, reference=False, index_probes=False):
    """Replay ``stream`` over the bag pair; contents and work counters.

    A transaction is a list of ``(relation, row, delete?)``; a delete
    removes a live row picked by ``row[0]``, so every stream is legal.
    The views are maintained by a maintainer, or with ``reference`` by
    the reference functions (behind index probes with ``index_probes``).
    """
    db = _bag_database()
    views = (
        ReferenceViews(db, BAG_VIEWS, index_probes=index_probes)
        if reference
        else _bag_maintainer(db)
    )
    live = {"r": sorted(R_ROWS), "t": sorted(T_ROWS)}
    recorder = CostRecorder()
    for operations in stream:
        with recording(recorder), db.transact() as txn:
            for name, row, delete in operations:
                if delete:
                    if live[name]:
                        victim = live[name].pop(row[0] % len(live[name]))
                        txn.delete(name, victim)
                elif row not in live[name]:
                    txn.insert(name, row)
                    live[name].append(row)
        if not reference:
            views.verify_all()  # recompute, and each index against a rebuild
            _assert_indexes_match_contents(views)
    contents = {name: views.view(name).contents.counts() for name in BAG_VIEWS}
    return views, contents, recorder.snapshot()


operation_st = st.tuples(
    st.sampled_from(["r", "r", "t"]),
    st.tuples(st.integers(0, 11), st.integers(0, 3)),
    st.booleans(),
)
stream_st = st.lists(
    st.lists(operation_st, min_size=1, max_size=4), min_size=1, max_size=8
)


class TestBagOperandParity:
    def _assert_parity(self, stream):
        maintainer, have, work = _replay(stream)
        _, probed, probed_work = _replay(stream, reference=True, index_probes=True)
        _, want, reference_work = _replay(stream, reference=True)
        assert have == probed == want
        for name in PROBE_PARITY_COUNTERS:
            assert work.get(name, 0) == probed_work.get(name, 0), name
        for name in REFERENCE_PARITY_COUNTERS:
            assert work.get(name, 0) == reference_work.get(name, 0), name
        assert maintainer.codegen_stats().get("codegen_fallback_tuples") == 0

    @settings(max_examples=30, deadline=None)
    @given(stream=stream_st)
    def test_random_streams(self, stream):
        self._assert_parity(stream)

    def test_every_way_of_touching_the_pair(self):
        stream = [
            [("t", (1, 9), False)],  # the other operand: probes p(B)
            [("r", (20, 1), False)],  # upstream's base: a counter rises 3 -> 4
            [("r", (4, 1), True)],  # a counter falls, the tuple stays indexed
            [("r", (21, 3), False), ("t", (3, 0), False)],  # both, a new key
            # (0, 0), (3, 0), (6, 0) by position: key (0,) leaves p ...
            [("r", (0, 0), True), ("r", (2, 0), True), ("r", (3, 0), True)],
            # ... and comes back while t gains a row that joins it.
            [("t", (0, 7), False), ("r", (22, 0), False), ("r", (23, 0), False)],
        ]
        maintainer, have, _ = _replay(stream)
        self._assert_parity(stream)
        assert set(maintainer.view("p").contents.indexes) == {("B",)}
        assert have["p"] == {(0,): 2, (1,): 3, (2,): 3, (3,): 1}


class TestCostIsIndependentOfTheUpstreamView:
    """One ``customer`` insert into the ``open_premium`` shape."""

    def _scanned(self, open_lines):
        db = Database()
        # Customer 0 owns two lines whatever the size; the rest are spread.
        lines = [(0, 0, 9), (1, 0, 9)] + [
            (line_id, 1 + line_id % 50, 9) for line_id in range(2, open_lines)
        ]
        db.create_relation("lineitem", ["line_id", "cust_id", "qty"], lines)
        db.create_relation(
            "customer", ["cust_id", "tier"], [(c, 1) for c in range(1, 51)]
        )
        maintainer = ViewMaintainer(db)
        maintainer.define_view(
            "open_lines",
            parse_view_expression("lineitem where qty >= 5 select line_id, cust_id"),
        )
        premium = maintainer.define_view(
            "open_premium",
            parse_view_expression(
                "open_lines join customer where tier = 2 select line_id, cust_id"
            ),
        )
        assert len(maintainer.view("open_lines").contents) == open_lines
        recorder = CostRecorder()
        with recording(recorder), db.transact() as txn:
            txn.insert("customer", (0, 2))
        assert premium.contents.counts() == {(0, 0): 1, (1, 0): 1}
        return recorder.get("tuples_scanned")

    def test_tuples_scanned_does_not_grow_with_open_lines(self):
        assert self._scanned(10) == self._scanned(1000)


class TestReferenceProbes:
    def test_bag_operand_is_maintained_through_index_probe_for(self):
        db = _bag_database()
        maintainer = _bag_maintainer(db)
        reference_db = _bag_database()
        reference = ReferenceViews(reference_db, BAG_VIEWS, index_probes=True)
        for database in (db, reference_db):
            with database.transact() as txn:
                txn.insert("t", (1, 9))  # p holds (1,) three times
            with database.transact() as txn:
                txn.insert("r", (20, 2))  # (2,) rises 3 -> 4: three stay OLD
                txn.insert("t", (2, 9))
        maintainer.verify_all()
        st_contents = maintainer.view("st").contents
        assert st_contents.counts() == reference.view("st").contents.counts()
        assert st_contents.count_of((1, 9, 1)) == 3
        assert st_contents.count_of((2, 9, 2)) == 4
        assert maintainer.codegen_stats().get("codegen_fallback_tuples") == 0
        for views in (maintainer, reference):
            assert set(views.view("p").contents.indexes) == {("B",)}


class TestLifecycle:
    def test_no_index_until_a_plan_binds_one(self):
        db = _bag_database()
        maintainer = _bag_maintainer(db)
        with db.transact() as txn:
            txn.insert("r", (20, 1))  # reaches st through i_p, not OLD p
        assert not maintainer.view("p").contents.indexes
        with db.transact() as txn:
            txn.insert("t", (1, 9))
        index = maintainer.view("p").contents.indexes[("B",)]
        assert maintainer.view("p").contents.index_on(["B"]) is index
        assert index in maintainer.compiled_plan("st").index_bindings().values()

    def test_restored_views_build_lazily_on_first_bind(self):
        db = _bag_database()
        leader = _bag_maintainer(db)
        with db.transact() as txn:
            txn.insert("t", (1, 9))
        assert leader.view("p").contents.indexes
        restored = ViewMaintainer(db)
        for name, expression in BAG_VIEWS.items():
            restored.restore_view(
                name, expression, leader.view(name).stored_contents()
            )
        assert not restored.view("p").contents.indexes
        with db.transact() as txn:
            txn.insert("t", (2, 9))
        assert set(restored.view("p").contents.indexes) == {("B",)}
        restored.verify_all()
        assert restored.view("st").contents.count_of((2, 9, 2)) == 3

    def test_recovered_views_build_lazily_on_first_bind(self, tmp_path):
        directory = str(tmp_path)
        db = _bag_database()
        durability = DurabilityManager(db, directory)
        maintainer = _bag_maintainer(db)
        with db.transact() as txn:
            txn.insert("t", (1, 9))
        assert maintainer.view("p").contents.indexes
        durability.checkpoint(maintainer)
        with db.transact() as txn:
            txn.insert("r", (20, 1))  # the replayed tail never probes OLD p
        del db, durability, maintainer  # crash

        def restore(recovery, fresh):
            for name, expression in BAG_VIEWS.items():
                recovery.restore_view(fresh, name, expression)

        recovery, recovered = recover(directory, restore)
        assert not recovered.view("p").contents.indexes
        with recovery.database.transact() as txn:
            txn.insert("t", (1, 7))
        assert set(recovered.view("p").contents.indexes) == {("B",)}
        recovered.verify_all()
        assert recovered.view("st").contents.count_of((1, 7, 1)) == 4

    def test_drop_view_drops_upstream_indexes_and_a_sibling_recompiles_once(self):
        db = _bag_database()
        maintainer = _bag_maintainer(db)
        maintainer.define_view(
            "st2", BaseRef("t").product(BaseRef("p")).select("E = B and F > 4")
        )
        with db.transact() as txn:
            txn.insert("t", (1, 9))
        assert maintainer.view("p").contents.indexes
        before = maintainer.stats("st2")

        maintainer.drop_view("st")
        assert not maintainer.view("p").contents.indexes
        assert maintainer.compiled_plan("st2") is None
        with db.transact() as txn:
            txn.insert("t", (2, 9))
        with db.transact() as txn:
            txn.insert("t", (0, 9))
        after = maintainer.stats("st2")
        assert after["plan_cache_invalidations"] == before["plan_cache_invalidations"] + 1
        assert after["plan_cache_misses"] == before["plan_cache_misses"] + 1
        assert set(maintainer.view("p").contents.indexes) == {("B",)}
        maintainer.verify_all()

        maintainer.drop_view("st2")
        assert not maintainer.view("p").contents.indexes

    def test_replace_contents_keeps_a_bound_plan_correct(self):
        db = _bag_database()
        maintainer = _bag_maintainer(db)
        with db.transact() as txn:
            txn.insert("t", (1, 9))
        upstream = maintainer.view("p")
        contents = upstream.contents
        index = contents.index_on(["B"])
        replacement = contents.copy()
        replacement.add((7,), 2)  # a key the old contents never held
        replacement.discard((2,), 3)
        upstream.replace_contents(replacement)
        assert upstream.contents is contents and contents == replacement
        assert contents.index_on(["B"]) is index
        assert index._buckets == HashIndex(replacement, ["B"])._buckets

        # The bound plan reads the live contents: put the recompute back,
        # move a counter through the maintainer, then probe it.
        upstream.replace_contents(evaluate(BAG_VIEWS["p"], db.instances()))
        with db.transact() as txn:
            txn.insert("r", (20, 1))
        with db.transact() as txn:
            txn.insert("t", (1, 7))
        assert maintainer.view("st").contents.count_of((1, 7, 1)) == 4
        assert index in maintainer.compiled_plan("st").index_bindings().values()
        maintainer.verify_all()


class TestApplyIsAllOrNothing:
    def test_failed_apply_leaves_contents_and_indexes_alone(self):
        db = _bag_database()
        maintainer = _bag_maintainer(db)
        view = maintainer.view("p")
        index = view.contents.index_on(["B"])
        contents = view.contents.counts()
        buckets = {key: set(rows) for key, rows in index._buckets.items()}
        updates = view.updates_applied
        # The first delete is covered (and would empty a bucket); the
        # second asks for more copies than the view holds.
        bad = Delta.from_counts(
            view.contents.schema, {(9,): 1}, {(0,): 3, (1,): 4}
        )
        with pytest.raises(MaintenanceError, match="only 3 present"):
            view.apply_delta(bad)
        assert view.contents.counts() == contents
        assert index._buckets == buckets
        assert view.updates_applied == updates
        maintainer.verify_all()


class TestIndexAudit:
    def test_verify_all_reports_a_corrupted_view_index(self):
        db = _bag_database()
        maintainer = _bag_maintainer(db)
        with db.transact() as txn:
            txn.insert("t", (1, 9))
        maintainer.verify_all()
        index = maintainer.view("p").contents.indexes[("B",)]
        index._buckets[(2,)].discard((2,))

        report = maintainer.verify_all(raise_on_mismatch=False)["p"]
        assert not report.is_consistent()
        assert not (report.missing or report.unexpected or report.count_mismatches)
        assert report.stale_indexes == {("B",): (2,)}
        assert "index on (B) stale at key (2,)" in report.summary()
        assert maintainer.verify_all(raise_on_mismatch=False)["st"].is_consistent()
        with pytest.raises(MaintenanceError, match="index on"):
            maintainer.verify_all()


class TestGeneratedSource:
    def _sources(self):
        db = _bag_database()
        maintainer = _bag_maintainer(db)
        maintainer.define_view("j", BaseRef("r").product(BaseRef("t")).select("B = E"))
        maintainer.define_view("cross", BaseRef("r").product(BaseRef("t")))
        return {name: maintainer.kernel_source(name) for name in maintainer.view_names()}

    def test_no_kernel_branches_on_whether_an_index_is_bound(self):
        for name, source in self._sources().items():
            assert "ix is not None" not in source, name
            ast.parse(source)
        sources = self._sources()
        # A linked untagged step is a probe and owns no hash table; only
        # the link-less cross join hashes, and no term hashes a delta.
        assert re.search(r"for b\d+ in index_for\[\d+\]\(", sources["st"])
        assert "_OLD = None" not in sources["st"]
        # The pre-commit bag count: less the inserts, plus the deletes.
        assert re.search(
            r"n(\d+) = o1\.get\(b\1, 0\) - i1\.get\(b\1, 0\) \+ d1\.get\(b\1, 0\)", sources["st"]
        )
        assert all("_DELTA = None" not in source for source in sources.values())
        assert "_OLD = None" in sources["cross"]
        # The probe loop is the lookup alone, up to where it counts the
        # row it emits: no index method is called per probe, and the
        # probed operand being untagged, no tag branch.
        loops = [
            loop.split("te += 1")[0]
            for source in sources.values()
            for loop in source.split("index_for[")[1:]
        ]
        assert loops
        for body in loops:
            assert ".probe(" not in body
            assert " is T_" not in body

    def test_two_compiles_emit_byte_identical_source(self):
        assert self._sources() == self._sources()


class TestMacrobenchCatalog:
    """ROADMAP 1(c) as a test: every single-relation commit of the
    benchmark's views reaches each OLD operand through an index."""

    SCHEMA = {
        "customer": ["cust_id", "region", "tier"],
        "product": ["prod_id", "price", "category"],
        "lineitem": ["line_id", "cust_id", "prod_id", "qty", "status"],
    }

    def _catalog(self):
        path = Path(__file__).resolve().parent.parent / "macrobench" / "catalog.py"
        assigned = {
            node.target.id: ast.literal_eval(node.value)
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.AnnAssign) and node.value is not None
        }
        return assigned["VIEW_SPECS"], assigned["KEYS"]

    def _maintainer(self, rows=None, copies=1):
        """The catalog's views over a fresh database; with ``copies`` of
        2 the catalog is defined a second time under other names."""
        specs, keys = self._catalog()
        assert len(specs) == 6
        db = Database()
        for name, attributes in self.SCHEMA.items():
            db.create_relation(name, attributes, (rows or {}).get(name, ()))
        for name, key in keys.items():
            db.declare_key(name, list(key))
        maintainer = ViewMaintainer(db)
        for copy in range(copies):
            renamed = {name: f"{name}_{copy}" if copy else name for name in specs}
            for name, spec in specs.items():
                words = [renamed.get(word, word) for word in spec.split(" ")]
                maintainer.define_view(renamed[name], parse_view_expression(" ".join(words)))
        return specs, db, maintainer

    def test_no_view_scans_an_old_operand(self):
        specs, db, maintainer = self._maintainer()

        unbound = [
            finding
            for finding in maintainer.analyze().findings
            if finding.code == F_UNBOUND_OLD_OPERAND
        ]
        assert unbound == []
        for name in specs:
            plan = maintainer.peek_plan(name)
            operands = plan.execution_normal_form.occurrences
            for occurrence in operands:
                planner = plan.planner_for([occurrence.position])
                old_steps = [
                    step for chain in planner.chains.values() for step in chain[1:]
                ]
                assert all(step.link_attr_names for step in old_steps), name
                text = maintainer.explain(name, [occurrence.name])
                for step in old_steps:
                    assert f"step {step.number}: probes hash index " in text, name
                if len(operands) == 1:
                    assert "(none: no OLD operand" in text

    def _one_row_commit(self, copies):
        """What a one-row lineitem commit enters, with the kernels
        compiled, the indexes bound and the trigger built by the commit
        before it."""
        specs, db, maintainer = self._maintainer(
            {
                "customer": [(c, c % 4, c % 3) for c in range(8)],
                "product": [(p, 390 + 10 * p, p % 3) for p in range(8)],
            },
            copies,
        )
        db.apply(inserts={"lineitem": [(1, 2, 3, 7, 0)]})
        names = maintainer.view_names()
        seen = {name: maintainer.stats(name)["transactions_seen"] for name in names}

        registry = instrumentation.__file__
        glue = {core.maintainer.__file__, core.compiled.__file__}
        constructors = (Delta.__init__.__code__, Delta.adopt.__func__.__code__)
        counts = {"calls": 0, "registry": 0, "probe charges": 0, "deltas": 0, "glue": 0, "screens": 0}

        def profile(frame, event, arg):
            if event == "c_call":
                counts["calls"] += 1
            if event != "call":
                return
            counts["calls"] += 1
            code = frame.f_code
            caller = frame.f_back.f_code
            counts["glue"] += code.co_filename in glue
            counts["screens"] += code.co_name == "screen_kernel"
            if code.co_filename == registry and caller.co_filename != registry:
                if caller is HashIndex.probe.__code__:
                    counts["probe charges"] += 1
                else:
                    counts["registry"] += 1
            elif code in constructors:
                counts["deltas"] += 1

        # A collection would run other objects' finalizers in here.
        gc.collect()
        gc.disable()
        sys.setprofile(profile)
        try:
            db.apply(inserts={"lineitem": [(2, 5, 4, 9, 0)]})
        finally:
            sys.setprofile(None)
            gc.enable()

        maintained = [
            name for name in names
            if maintainer.stats(name)["transactions_seen"] > seen[name]
        ]
        # lineitem reaches five views; open_premium hears open_lines.
        assert len(maintained) == 6 * copies
        assert all(maintainer.stats(name)["deltas_applied"] == 2 for name in names)
        maintainer.verify_all()
        return counts, db

    def test_one_row_commit_pays_for_no_glue_between_the_kernels(self):
        """A clock-free law for what runs *between* the generated
        kernels: the commit runs its trigger program, which calls the
        reached views' kernels as straight-line code and counts straight
        into each view's row, with no frame of the maintainer or the
        plan per view."""
        counts, db = self._one_row_commit(1)
        # The maintainer's and the plans' modules are entered as often
        # whether the commit reaches 6 views or 12: the commit hook (and
        # its comprehension, before CPython 3.12 inlined them), nothing
        # per view.  (Before trigger programs, ``run_screen``,
        # ``run_rows`` and, for an aggregate, ``run_fold`` per view.)
        doubled, _ = self._one_row_commit(2)
        assert counts["glue"] == doubled["glue"] <= 2
        # repro.instrumentation is entered once per commit: it asks
        # once whether a recorder is active, and the counts go straight
        # into each view's row.  (c849590: once more per maintained
        # view, a settlement; fbd8c76: 99, a ``count`` or ``charge`` per
        # metric.)  The kernels probe index buckets directly and count
        # their probes themselves (42a3db4: 5 ``HashIndex.probe``
        # charges, one per probe).
        assert counts["registry"] == doubled["registry"] == 1
        assert counts["probe charges"] == 0
        # Per maintained view, the view delta — a screened operand the
        # screen took nothing from goes on as it came — plus the
        # transaction's own lineitem delta.  (c849590: 13, a screened
        # copy per operand; fbd8c76: 15 — every stage wrapped its
        # kernel's dicts anew, three times for an aggregate view, and
        # each ``from_counts`` ran ``__init__`` first.)
        assert counts["deltas"] <= 6 + 1
        # Every Python-level and C-level call of the commit: 159 on
        # CPython 3.11 — six views run four pipelined row kernels, two
        # of them shared traversals; 160 while ``encode_values`` took
        # two ``len`` per row; 192 while ``Database.apply`` ran
        # ``transact`` as a ``contextlib`` generator, each batch built a
        # ``count_map`` proxy, the key check summed the catalog and the
        # commit re-checked its own deltas' schemas; 229 while every view ran its own
        # row kernel and each kernel called an apply kernel, one of
        # them the trigger appending its undo
        # record; 228 before commits were all or nothing, 253 while
        # every view ran its own screen kernel
        # and sized its own delta, 265 while a ``_run`` frame walked the views through
        # the stage functions, 344 while ``_maintain`` called the plan's
        # stage methods per view and settled two tallies, 362 while a
        # ``plan.maintain`` frame ran the stages and ``apply_delta``
        # applied, 416 at 42a3db4, 779 at fbd8c76.  A change that brings
        # a per-view maintenance frame, per-view settlements, per-metric calls
        # or per-probe dispatch back fails here by count, not by clock.
        assert counts["calls"] <= 159

        # The probes are still counted, in bulk, for an active recorder:
        # one per traversal that probes — ``open_premium``'s and the two
        # shared ones (5 while each of the five joins probed alone).
        with recording(CostRecorder()) as recorder:
            db.apply(inserts={"lineitem": [(3, 6, 5, 9, 0)]})
        assert recorder.get("index_probes") == 3

    def test_a_lineitem_commit_screens_once_per_fused_pass(self):
        """The five views reading ``lineitem`` hold two screen programs
        (``status = 0 and qty >= 5``, and ``status = 0`` once the join
        equality's never-true probe is left out) that open with the same
        test: one fused pass screens the delta for all of them, and for
        a second copy of the catalog too.  (Five calls, one per reader,
        while every view ran its own screen kernel.)"""
        counts, _ = self._one_row_commit(1)
        doubled, _ = self._one_row_commit(2)
        assert counts["screens"] == doubled["screens"] == 1

    def test_loading_a_relation_makes_no_call_per_row(self):
        """A clock-free law for load cost: ``create_relation`` and a
        checkpoint's ``build_database`` make as many calls for 40 000
        plain-integer rows as for 20 000 — the batch door checks a batch
        in C-level passes, and the count map is one ``dict.fromkeys``.
        (11.0 calls per row when every row went through ``Relation.add``,
        ``coerce_row`` and ``encode_values``.)"""
        counted = []
        for size in (20_000, 40_000):
            rows = [(i, i % 7, -i) for i in range(size)]
            attributes = ["A", "B", "C"]
            creating = call_events(
                lambda: Database().create_relation("r", attributes, rows)
            )
            genesis = Database()
            genesis.create_relation("r", attributes, [list(row) for row in rows])
            checkpoint = Checkpoint(
                {
                    "format": 1,
                    "wal_sequence": 0,
                    "next_txn_id": 1,
                    "database": database_to_document(genesis),
                    "views": {},
                }
            )
            built = []
            booting = call_events(lambda: built.append(checkpoint.build_database()))
            assert built[0].relation("r") == genesis.relation("r")
            counted.append((creating, booting))
        assert counted[0] == counted[1]

    def test_restoring_a_view_makes_no_call_per_stored_row(self):
        """A clock-free law for recovery's view restore: contents over
        the view's stored schema are adopted as a copy of their count map,
        so restoring 40 000 stored rows makes as many calls as 20 000.
        (9.0 calls per row when each was decoded and ``Relation.add``-ed.)"""
        db = Database()
        db.create_relation("r", ["A", "B", "C"], [(1, 2, 3)])
        expression = BaseRef("r").select("B < 5").project(["A", "B"])
        schema = ViewMaintainer(db).define_view("v", expression).contents.schema
        counted = []
        for size in (10, 20_000, 40_000):  # the first compiles the kernel
            contents = Relation.from_rows(schema, [(i, i % 5) for i in range(size)])
            contents.index_on(["B"])  # a live relation's index stays its own
            maintainer = ViewMaintainer(db)
            counted.append(
                call_events(lambda: maintainer.restore_view("v", expression, contents))
            )
            restored = maintainer.view("v").contents
            assert restored.counts() == contents.counts()
            assert not restored.indexes
            contents.add((-1, 0))  # the caller's relation is not the view's
            assert (-1, 0) not in restored
        assert counted[1] == counted[2]

    def test_building_an_index_makes_no_call_per_row(self):
        """A clock-free law for index builds (lazy binds after a restart,
        key declarations): a hash index over 40 000 rows is built with as
        many Python calls as over 20 000, on one attribute and on two,
        with keys unique or shared — the keys are mapped in C.  (One or
        two per row through ``_insert`` and a one-attribute ``key_of``;
        what is left per row is the C-level ``set.add`` of a row whose
        key an earlier row has.)"""
        counted = []
        for size in (20_000, 40_000):
            relation = Relation.from_rows(
                RelationSchema(["A", "B", "C"]),
                [(i, i % 7, i % 3) for i in range(size)],
            )
            built = {}
            for attributes in (["A"], ["B"], ["A", "B"], ["C", "B"]):
                def build(attributes=attributes):
                    built[tuple(attributes)] = HashIndex(relation, attributes)

                events = call_events(build, kinds=("call",))
                counted.append((size, tuple(attributes), events))
            for index in built.values():
                assert sum(map(len, index._buckets.values())) == size
                assert index._stale_key(relation) is None
            assert len(built[("B",)]) == 7
            assert len(built[("C", "B")]) == 21
        assert [events for size, _, events in counted if size == 20_000] == [
            events for size, _, events in counted if size == 40_000
        ]

    def test_defining_a_view_pays_no_per_tuple_interpretation(self):
        """A clock-free law for definition cost: a view is materialized
        by the row kernel of its largest operand's shape, so defining
        the six views calls a handful of functions per base tuple —
        the kernels' own dict and list methods and the aggregate
        grouping — not the reference planner's per-tuple frames."""
        lines, customers, products = 20_000, 2_000, 1_000
        rows = {
            "customer": [(c, c % 4, c % 3) for c in range(customers)],
            "product": [(p, 300 + p % 200, p % 3) for p in range(products)],
            "lineitem": [
                (i, i % customers, 7 * i % products, i % 10, i % 3)
                for i in range(lines)
            ],
        }
        specs, keys = self._catalog()
        db = Database()
        for name, attributes in self.SCHEMA.items():
            db.create_relation(name, attributes, rows[name])
        for name, key in keys.items():
            db.declare_key(name, list(key))
        maintainer = ViewMaintainer(db)
        expressions = {n: parse_view_expression(s) for n, s in specs.items()}
        events = [0]

        def profile(frame, event, arg):
            if event in ("call", "c_call"):
                events[0] += 1

        sys.setprofile(profile)
        try:
            for name, expression in expressions.items():
                maintainer.define_view(name, expression)
        finally:
            sys.setprofile(None)

        maintainer.verify_all()
        assert len(maintainer.view("open_lines")) == 3_334
        # 5.8 on CPython 3.11; 117 through the reference planner, which
        # charged and re-tagged every tuple it touched (b476009).
        assert events[0] <= 10 * (lines + customers + products)
