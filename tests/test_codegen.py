"""Tests for the generated batch kernels (``repro.core.codegen``).

The codegen contract has five legs, each pinned here:

* **equivalence** — a maintainer running the generated kernels and the
  per-tuple reference functions (``tests/reference.py``) agree
  byte-for-byte on view contents *and* on the abstract work counters,
  over random legal update streams covering every truth-table shape
  the views produce (single-relation, two- and three-way joins, counted
  projections, disjunctions needing the final DNF re-check);
* **determinism** — compiling the same view twice emits byte-identical
  kernel source (replicas must agree on the code they run, not just
  its results);
* **invalidation** — a static-irrelevance proof baked into generated
  screen source cannot survive ``declare_constraint`` /
  ``drop_constraint``: the DDL drops the compiled kernels with the
  plan, and the recompiled source changes behavior immediately;
* **fallback** — shapes whose truth table exceeds the row cap run on
  the reference planner, charging ``codegen_fallback_tuples``, with
  identical results and identical work counters; a wide view with few
  changed relations stays on kernels;
* **hostile names** — relation and attribute names never execute: they
  reach generated source only quoted, inside comments.
"""

import ast
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.codegen as codegen
from repro import BaseRef, Database, ViewMaintainer
from repro.core.codegen import CODEGEN_VERSION
from repro.instrumentation import CostRecorder, recording
from tests.reference import REFERENCE_PARITY_COUNTERS, ReferenceViews

# ----------------------------------------------------------------------
# Shared fixtures: three base relations and view shapes spanning the
# truth-table space (k = 1 .. 3 changed operands, all Section 5 cases).
# ----------------------------------------------------------------------
VIEW_SHAPES = {
    "join2": BaseRef("r")
    .product(BaseRef("s"))
    .select("A < 10 and C > 5 and B = C")
    .project(["A", "D"]),
    "join3": BaseRef("r")
    .product(BaseRef("s"))
    .product(BaseRef("t"))
    .select("B = C and D = E"),
    "proj": BaseRef("r").project(["B"]),
    "disj": BaseRef("r").select("A < 3 or B > 6"),
}

#: Work counters the row kernels and the row-cap fallback (the
#: reference planner behind the same index probes) charge identically.
FALLBACK_PARITY_COUNTERS = REFERENCE_PARITY_COUNTERS + (
    "tuples_scanned",
    "index_probes",
)


def _fresh_database():
    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 6), (2, 7), (9, 9)])
    db.create_relation("s", ["C", "D"], [(6, 1), (7, 2), (9, 5)])
    db.create_relation("t", ["E", "F"], [(1, 0), (5, 3)])
    return db


def _run_stream(stream, reference=False):
    """Build the shared catalog, replay ``stream``, return the evidence.

    ``stream`` is a list of transactions; each transaction is a list of
    ``(relation, row, delete?)`` operations.  Deletes target a live row
    (chosen by index) so every stream is legal by construction.  The
    views are maintained by a :class:`ViewMaintainer`, or with
    ``reference`` by the reference functions alone.
    """
    db = _fresh_database()
    if reference:
        maintainer = ReferenceViews(db, VIEW_SHAPES)
    else:
        maintainer = ViewMaintainer(db)
        for name, expression in VIEW_SHAPES.items():
            maintainer.define_view(name, expression)
    live = {
        name: sorted(db.relation(name).value_tuples())
        for name in ("r", "s", "t")
    }
    recorder = CostRecorder()
    with recording(recorder):
        for txn_ops in stream:
            with db.transact() as txn:
                staged = {name: list(rows) for name, rows in live.items()}
                for name, row, delete in txn_ops:
                    if delete:
                        if not staged[name]:
                            continue
                        victim = staged[name].pop(
                            row[0] % len(staged[name])
                        )
                        txn.delete(name, victim)
                    elif row not in staged[name]:
                        txn.insert(name, row)
                        staged[name].append(row)
                live = {
                    name: sorted(rows) for name, rows in staged.items()
                }
    if not reference:
        maintainer.verify_all()
    contents = {
        name: dict(maintainer.view(name).contents.counts())
        for name in VIEW_SHAPES
    }
    return maintainer, recorder.snapshot(), contents


def _assert_same_work(counters, have, want):
    for name in counters:
        assert have.get(name, 0) == want.get(name, 0), (
            name,
            have.get(name, 0),
            want.get(name, 0),
        )


def _assert_parity(stream):
    """Kernels, row-cap fallback and reference functions all agree."""
    m_gen, c_gen, v_gen = _run_stream(stream)
    _, c_ref, v_ref = _run_stream(stream, reference=True)
    assert v_gen == v_ref
    _assert_same_work(REFERENCE_PARITY_COUNTERS, c_gen, c_ref)
    assert m_gen.codegen_stats().get("codegen_plans_compiled") > 0
    assert m_gen.codegen_stats().get("codegen_fallback_tuples") == 0
    assert "codegen_plans_compiled" not in c_ref
    with mock.patch.object(codegen, "MAX_CODEGEN_ROWS", 0):
        _, c_cap, v_cap = _run_stream(stream)
    assert v_gen == v_cap
    _assert_same_work(FALLBACK_PARITY_COUNTERS, c_gen, c_cap)


rows_st = st.tuples(
    st.integers(min_value=-3, max_value=12),
    st.integers(min_value=-3, max_value=12),
)
operation_st = st.tuples(
    st.sampled_from(["r", "r", "s", "t"]), rows_st, st.booleans()
)
#: Transactions of 1-3 operations: multi-relation transactions produce
#: the k >= 2 truth-table shapes.
stream_st = st.lists(
    st.lists(operation_st, min_size=1, max_size=3),
    min_size=1,
    max_size=8,
)


class TestEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(stream=stream_st)
    def test_kernels_match_reference_on_random_streams(self, stream):
        _assert_parity(stream)

    def test_parity_holds_on_a_long_seeded_stream(self):
        rng = random.Random(17)
        stream = [
            [
                (
                    rng.choice(["r", "r", "s", "t"]),
                    (rng.randint(-3, 12), rng.randint(-3, 12)),
                    rng.random() < 0.3,
                )
                for _ in range(rng.randint(1, 3))
            ]
            for _ in range(25)
        ]
        _assert_parity(stream)


class TestSourceDeterminism:
    def _kernel_sources(self):
        db = _fresh_database()
        maintainer = ViewMaintainer(db)
        for name, expression in VIEW_SHAPES.items():
            maintainer.define_view(name, expression)
        return {
            name: maintainer.kernel_source(name) for name in VIEW_SHAPES
        }

    def test_two_compiles_emit_byte_identical_source(self):
        assert self._kernel_sources() == self._kernel_sources()

    def test_source_names_view_and_version(self):
        source = self._kernel_sources()["join2"]
        assert "'join2'" in source
        assert f"codegen v{CODEGEN_VERSION}" in source


class TestConstraintDDL:
    """A baked static-irrelevance proof must die with constraint DDL."""

    def _maintainer(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(20, 1), (30, 2)])
        db.declare_constraint("r", "A >= 20")
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", BaseRef("r").select("A < 10"))
        return db, maintainer

    def test_stale_proof_cannot_survive_drop_constraint(self):
        db, maintainer = self._maintainer()
        # Under the constraint, every r-update is provably irrelevant:
        # the generated screen is a stub that drops the whole batch.
        assert "statically irrelevant" in maintainer.kernel_source("v")
        with db.transact() as txn:
            txn.insert("r", (25, 3))
        assert dict(maintainer.view("v").contents.counts()) == {}

        db.drop_constraint("r")
        # The plan — kernels included — was invalidated: the recompiled
        # source screens per-tuple again and maintenance sees the row.
        assert "statically irrelevant" not in maintainer.kernel_source("v")
        with db.transact() as txn:
            txn.insert("r", (5, 4))
        assert dict(maintainer.view("v").contents.counts()) == {(5, 4): 1}
        maintainer.verify_all()

    def test_declare_constraint_recompiles_to_the_stub(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(20, 1)])
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", BaseRef("r").select("A < 10"))
        assert "statically irrelevant" not in maintainer.kernel_source("v")
        db.declare_constraint("r", "A >= 20")
        assert "statically irrelevant" in maintainer.kernel_source("v")
        maintainer.verify_all()


class TestFallback:
    def test_oversized_shape_falls_back_to_reference_planner(self, monkeypatch):
        monkeypatch.setattr(codegen, "MAX_CODEGEN_ROWS", 0)
        stream = [
            [("r", (1, 6), False), ("s", (8, 8), False)],
            [("r", (2, 7), True)],
        ]
        m_cap, c_cap, v_cap = _run_stream(stream)
        assert c_cap.get("codegen_fallback_tuples", 0) > 0
        assert m_cap.codegen_stats().get("codegen_fallback_tuples") > 0
        monkeypatch.undo()
        _, c_ref, v_ref = _run_stream(stream, reference=True)
        assert v_cap == v_ref
        assert "codegen_fallback_tuples" not in c_ref

    def test_wide_view_with_one_changed_relation_runs_on_kernels(self):
        # No cap on operand count: what the row cap bounds is the truth
        # table, and one changed relation out of twelve is one row.
        width = 12
        names = [f"c{i}" for i in range(width)]

        def build():
            db = Database()
            for i, name in enumerate(names):
                db.create_relation(
                    name, [f"K{i}", f"K{i + 1}"], [(v, v) for v in range(4)]
                )
            expression = BaseRef(names[0])
            for name in names[1:]:
                expression = expression.join(BaseRef(name))
            return db, expression

        def replay(db):
            with db.transact() as txn:
                txn.insert(names[5], (1, 2))
                txn.delete(names[5], (3, 3))
            with db.transact() as txn:
                txn.insert(names[5], (2, 1))

        db, expression = build()
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("wide", expression)
        recorder = CostRecorder()
        with recording(recorder):
            replay(db)
        maintainer.verify_all()
        assert recorder.get("codegen_fallback_tuples") == 0
        assert maintainer.codegen_stats().get("codegen_fallback_tuples") == 0
        assert recorder.get("codegen_batch_rows") > 0
        # Every single-relation shape is generated; only the shape with
        # all twelve relations changed (4 095 rows) is past the row cap.
        source = maintainer.kernel_source("wide")
        assert source.count("# row kernel: shape") == width
        assert source.count("reference-planner fallback") == 1

        db, expression = build()
        reference = ReferenceViews(db, {"wide": expression})
        replay(db)
        assert view.contents.counts() == reference.view("wide").contents.counts()
        assert len(view.contents) > 4  # the inserts joined through


class TestHostileNames:
    """Names are data: quoted into comments, never executed."""

    #: Each would, written raw into a ``#`` comment, end the comment and
    #: start a statement (or break tokenization) in generated source.
    NAMES = [
        "s\n        ge = 1000000  #",
        "s\rimport os",
        "s'\"; raise SystemExit  #",
        "s # not a comment\n\traise ValueError",
        "s\u2028kept = None",
    ]

    @pytest.mark.parametrize("hostile", NAMES)
    def test_hostile_relation_and_attribute_names(self, hostile):
        def build():
            db = Database()
            db.create_relation("r", ["A", "B"], [(1, 6), (2, 7)])
            db.create_relation(hostile, [hostile, "D"], [(6, 1), (7, 2)])
            return db

        join = (
            BaseRef("r")
            .product(BaseRef(hostile))
            .select("A < 10 and D >= 0")
            .project(["A", "D"])
        )
        aggregate = BaseRef(hostile).aggregate(
            ["D"], [("count", None, "n"), ("max", hostile, "m")]
        )
        def replay(db):
            with db.transact() as txn:
                txn.insert(hostile, (9, 3))
                txn.insert("r", (3, 9))
            with db.transact() as txn:
                txn.delete(hostile, (6, 1))

        # Correct maintenance is the stronger of the two acceptable
        # outcomes (the other being a typed refusal at registration).
        db = build()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("j", join)
        maintainer.define_view("g", aggregate)
        for name in ("j", "g"):
            source = maintainer.kernel_source(name)
            assert hostile not in source
            quoted_lines = [
                line for line in source.splitlines() if repr(hostile) in line
            ]
            assert quoted_lines
            assert all(line.lstrip().startswith("#") for line in quoted_lines)
        replay(db)
        maintainer.verify_all()
        reference_db = build()
        reference = ReferenceViews(reference_db, {"j": join, "g": aggregate})
        replay(reference_db)
        for name in ("j", "g"):
            assert (
                maintainer.view(name).contents.counts()
                == reference.view(name).contents.counts()
            )


class TestKernelNamespace:
    """Generated source touches nothing but its inputs and the kernel
    constants: no private attribute of any object, no ambient name."""

    def _sources(self):
        db = _fresh_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("sel", VIEW_SHAPES["disj"])
        maintainer.define_view("join", VIEW_SHAPES["join2"])
        maintainer.define_view("proj", VIEW_SHAPES["proj"])
        maintainer.define_view(
            "stacked", BaseRef("s").product(BaseRef("proj")).select("C = B")
        )
        maintainer.define_view(
            "agg",
            BaseRef("r").aggregate(
                ["B"], [("count", None, "n"), ("sum", "A", "t"), ("max", "A", "m")]
            ),
        )
        return {
            name: maintainer.kernel_source(name)
            for name in ("sel", "join", "stacked", "agg")
        }

    def test_no_private_attribute_and_no_free_name(self):
        ambient = set(codegen._KERNEL_GLOBALS) | set(
            codegen._KERNEL_GLOBALS["__builtins__"]
        )
        for view, source in self._sources().items():
            assert "_counts" not in source
            functions = [
                node
                for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef)
            ]
            assert functions, view
            module_names = {function.name for function in functions}
            for function in functions:
                bound = {arg.arg for arg in function.args.args}
                loaded = set()
                for node in ast.walk(function):
                    if isinstance(node, ast.Attribute):
                        assert not node.attr.startswith("_"), (view, node.attr)
                    elif isinstance(node, ast.Name):
                        if isinstance(node.ctx, ast.Load):
                            loaded.add(node.id)
                        else:
                            bound.add(node.id)
                free = loaded - bound - module_names - ambient
                assert not free, (view, function.name, sorted(free))


class TestStatsSurface:
    def test_codegen_stats_as_dict_keys(self):
        _, counters, _ = _run_stream([[("r", (1, 6), False)]])
        db = _fresh_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", VIEW_SHAPES["join2"])
        stats = maintainer.codegen_stats().as_dict()
        assert set(stats) == {
            "codegen_plans_compiled",
            "codegen_batch_rows",
            "codegen_fallback_tuples",
        }
        assert stats["codegen_plans_compiled"] > 0

    def test_counters_reach_the_recorder(self):
        _, counters, _ = _run_stream(
            [[("r", (1, 6), False)], [("s", (8, 8), False)]]
        )
        assert counters.get("codegen_plans_compiled", 0) > 0
        assert counters.get("codegen_batch_rows", 0) > 0

    def test_unknown_view_kernel_source_fails_loudly(self):
        maintainer = ViewMaintainer(_fresh_database())
        with pytest.raises(Exception):
            maintainer.kernel_source("nope")
