"""Tests for the generated batch kernels (``repro.core.codegen``).

The codegen contract has six legs, each pinned here:

* **equivalence** — a maintainer running the generated kernels and the
  per-tuple reference functions (``tests/reference.py``) agree
  byte-for-byte on view contents *and* on the abstract work counters
  (with the reference behind the same index probes, on how OLD
  operands are reached too),
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
* **wide shapes** — a shape changing every relation of a 7- to
  16-way join runs as one row kernel of k terms with the reference's
  contents and work counters, and nothing ever charges
  ``codegen_fallback_tuples``;
* **hostile names** — relation and attribute names never execute: they
  reach generated source only quoted, inside comments;
* **sharing** — kernels whose sources differ only in their comments
  (twin views over different relations) are compiled once, and each
  still runs under its own view's ``<codegen:view:kind>`` filename; the
  trigger programs of relations whose views are of one shape are one
  program too.
"""

import ast
import importlib.util
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.codegen as codegen
from repro import BaseRef, Database, ViewMaintainer
from repro.cli import parse_view_expression
from repro.core.codegen import CODEGEN_VERSION
from repro.instrumentation import CostRecorder, recording
from tests.reference import (
    PROBE_PARITY_COUNTERS,
    REFERENCE_PARITY_COUNTERS,
    ReferenceViews,
)

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

def _fresh_database():
    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 6), (2, 7), (9, 9)])
    db.create_relation("s", ["C", "D"], [(6, 1), (7, 2), (9, 5)])
    db.create_relation("t", ["E", "F"], [(1, 0), (5, 3)])
    return db


def _run_stream(stream, reference=False, index_probes=False):
    """Build the shared catalog, replay ``stream``, return the evidence.

    ``stream`` is a list of transactions; each transaction is a list of
    ``(relation, row, delete?)`` operations.  Deletes target a live row
    (chosen by index) so every stream is legal by construction.  The
    views are maintained by a :class:`ViewMaintainer`, or with
    ``reference`` by the reference functions alone (behind index probes
    with ``index_probes``).
    """
    db = _fresh_database()
    if reference:
        maintainer = ReferenceViews(db, VIEW_SHAPES, index_probes=index_probes)
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
    """Kernels and reference functions agree, and so does the reference
    behind the maintainer's index probes, on how OLD operands are read."""
    m_gen, c_gen, v_gen = _run_stream(stream)
    _, c_ref, v_ref = _run_stream(stream, reference=True)
    assert v_gen == v_ref
    _assert_same_work(REFERENCE_PARITY_COUNTERS, c_gen, c_ref)
    assert m_gen.codegen_stats().get("codegen_plans_compiled") > 0
    assert m_gen.codegen_stats().get("codegen_fallback_tuples") == 0
    assert "codegen_plans_compiled" not in c_ref
    _, c_probe, v_probe = _run_stream(stream, reference=True, index_probes=True)
    assert v_gen == v_probe
    _assert_same_work(PROBE_PARITY_COUNTERS, c_gen, c_probe)


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


def _chain(width):
    """``c0 ⋈ … ⋈ c{width-1}``: ``c{i}(K{i}, K{i+1})`` holds ``(v, v)``
    for v < 4, so every tuple of one value joins into one view row."""
    names = [f"c{i}" for i in range(width)]
    db = Database()
    for i, name in enumerate(names):
        db.create_relation(name, [f"K{i}", f"K{i + 1}"], [(v, v) for v in range(4)])
    expression = BaseRef(names[0])
    for name in names[1:]:
        expression = expression.join(BaseRef(name))
    stream = [
        # Every relation changes: 2^width − 1 truth-table rows, the all-
        # insert and all-delete rows contributing a view row each.
        [(name, (4, 4), False) for name in names]
        + [(name, (3, 3), True) for name in names],
        [(name, (3, 3), False) for name in names]
        + [(name, (1, 2), False) for name in names[::2]]
        + [(name, (2, 2), True) for name in names[1::2]],
        [(name, (2, 1), False) for name in names],
    ]
    return db, expression, stream


def _self_join(width):
    """``width`` occurrences of ``e(S, T)``, each one's ``T`` the next
    one's ``S``: every commit on ``e`` changes all of them."""
    db = Database()
    db.create_relation("e", ["S", "T"], [(v, v + 1) for v in range(50)])
    expression = BaseRef("e").rename({"S": "X0", "T": "X1"})
    for i in range(1, width):
        expression = expression.join(
            BaseRef("e").rename({"S": f"X{i}", "T": f"X{i + 1}"})
        )
    stream = [
        [("e", (50, 51), False), ("e", (10, 11), True)],
        [("e", (10, 11), False), ("e", (20, 20), False), ("e", (30, 31), True)],
        [("e", (51, 3), False), ("e", (0, 1), True), ("e", (20, 20), True)],
    ]
    return db, expression, stream


def _replay_wide(build, maintained):
    """Replay a wide shape's stream; the views and the work recorded.
    ``maintained`` puts a maintainer or reference views on the fresh
    database."""
    db, expression, stream = build()
    views = maintained(db, expression)
    recorder = CostRecorder()
    with recording(recorder):
        for operations in stream:
            with db.transact() as txn:
                for name, row, delete in operations:
                    (txn.delete if delete else txn.insert)(name, row)
    return views, recorder.snapshot()


class TestWideShapes:
    """Every shape runs on one row kernel of k terms, however wide."""

    @pytest.mark.parametrize(
        "build, terms",
        [
            (lambda: _self_join(7), 7),
            (lambda: _chain(8), 8),
            (lambda: _chain(12), 12),
            (lambda: _self_join(16), 16),
        ],
        ids=["self_join_7", "chain_8", "chain_12", "self_join_16"],
    )
    def test_every_relation_changed_runs_on_kernels(self, build, terms):
        def maintainer(db, expression):
            m = ViewMaintainer(db)
            m.define_view("wide", expression)
            return m

        m, work = _replay_wide(build, maintainer)
        ref, ref_work = _replay_wide(
            build, lambda db, e: ReferenceViews(db, {"wide": e})
        )
        probe, probe_work = _replay_wide(
            build, lambda db, e: ReferenceViews(db, {"wide": e}, index_probes=True)
        )
        # Contents equal a recompute, at every width: the SQL
        # translator names a step per join instead of nesting one.
        m.verify_all()
        contents = m.view("wide").contents.counts()
        assert contents == ref.view("wide").contents.counts()
        assert contents == probe.view("wide").contents.counts()
        assert len(contents) > 1
        _assert_same_work(REFERENCE_PARITY_COUNTERS, work, ref_work)
        _assert_same_work(PROBE_PARITY_COUNTERS, work, probe_work)
        # Every commit of the stream changes every occurrence: k terms
        # each, where the truth table had 2^k − 1 rows.
        commits = len(build()[2])
        assert work["truth_table_rows"] == work["delta_rows_evaluated"] == commits * terms
        assert work.get("codegen_fallback_tuples", 0) == 0
        assert m.codegen_stats().get("codegen_fallback_tuples") == 0

    def test_introspecting_a_wide_view_plans_no_wide_shape(self, monkeypatch):
        # ``explain … source`` lists the shape changing all twenty
        # relations as its twenty terms — no table of 1 048 575 rows —
        # each nesting past ``MAX_NESTING`` loops; ``recommend indexes``
        # reads the single-relation shapes, whose probes are the same.
        import repro.core.compiled as compiled
        from repro.core.planner import MAX_NESTING

        db, expression, _ = _chain(20)
        maintainer = ViewMaintainer(db)
        maintainer.define_view("wide", expression)
        planned = []
        real = compiled.CompiledViewPlan.planner_for

        def planner_for(plan, changed):
            planned.append(len(changed))
            return real(plan, changed)

        monkeypatch.setattr(compiled.CompiledViewPlan, "planner_for", planner_for)
        started = time.perf_counter()
        source = maintainer.kernel_source("wide")
        indexes = maintainer.recommended_indexes("wide")
        assert time.perf_counter() - started < 10
        assert max(planned) == 20
        assert source.count("# row kernel: shape") == 21
        wide = source[source.index(f"# row kernel: shape {tuple(f'c{i}' for i in range(20))!r}"):]
        listed = [line for line in wide.splitlines() if line.startswith("# row ") and "kernel" not in line]
        assert [line.split(":")[0] for line in listed] == [f"# row {i}" for i in range(20)]
        # Twenty loops deep: each term stores a node and loops over it.
        assert 20 > MAX_NESTING and "_append = " in wide
        # Each relation probed on either link attribute, the two ends
        # on their one.
        assert len(indexes) == 2 * 20 - 2

    def test_explaining_a_wide_shape_plans_no_wide_shape(self):
        # The bare ``explain`` and ``explain … changing`` every relation
        # print the screens and the shape's twenty terms, not a table of
        # 1 048 575 rows.
        from repro.cli import Shell

        db, expression, _ = _chain(20)
        shell = Shell(db)
        shell.maintainer.define_view("wide", expression)
        every = ", ".join(f"c{i}" for i in range(20))
        started = time.perf_counter()
        texts = [shell.execute("explain wide"), shell.execute(f"explain wide changing {every}")]
        assert time.perf_counter() - started < 10
        for text in texts:
            assert "rows to evaluate: 20 (one term per changed occurrence)" in text
            assert all(f"  c{i}#{i}: invariant" in text for i in range(20))
            assert "  row 19: i_c19 -> c18 [probe K19]" in text
            assert "  row 0: i_c0 -> pre_c1 [probe K1]" in text
        # A shape of one relation is planned and listed as before.
        text = shell.execute("explain wide changing c3")
        assert "rows to evaluate: 1" in text
        assert "index bindings (OLD-operand probes):" in text

    def test_chunks_compile_through_compile_kernel_as_wrapped(self, monkeypatch):
        # The frozen benchmark tracer replaces ``compile_kernel`` by name
        # with a wrapper of exactly (source, name, filename): a wide
        # shape compiles through it as one module.
        import repro.core.compiled as compiled

        real = codegen.compile_kernel
        names = []

        def wrapped(source, name, filename):
            names.append(name)
            return real(source, name, filename)

        monkeypatch.setattr(codegen, "compile_kernel", wrapped)
        monkeypatch.setattr(compiled, "compile_kernel", wrapped)
        db, expression, stream = _chain(8)
        maintainer = ViewMaintainer(db)
        maintainer.define_view("wide", expression)
        with db.transact() as txn:
            for name, row, delete in stream[0]:
                (txn.delete if delete else txn.insert)(name, row)
        maintainer.verify_all()
        assert names.count("row_kernel") == 2  # evaluate's shape, then all eight

    def test_wide_view_with_one_changed_relation_runs_on_kernels(self):
        # What the row cap bounds is the truth table, and one changed
        # relation out of twelve is one row.
        def replay(db):
            with db.transact() as txn:
                txn.insert("c5", (1, 2))
                txn.delete("c5", (3, 3))
            with db.transact() as txn:
                txn.insert("c5", (2, 1))

        db, expression, _ = _chain(12)
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("wide", expression)
        recorder = CostRecorder()
        with recording(recorder):
            replay(db)
        maintainer.verify_all()
        assert recorder.get("delta_rows_evaluated") == 2
        assert recorder.get("codegen_batch_rows") > 0

        db, expression, _ = _chain(12)
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

    def test_no_string_literal(self):
        # Names live in comments only, so two sources equal once their
        # comments are dropped are one program (codegen.program_key).
        for view, source in self._sources().items():
            literals = [
                node.value
                for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Constant)
                and isinstance(node.value, (str, bytes))
            ]
            assert literals == [], view


def _kernel_code_objects(plan):
    """Every code object of every kernel module a plan runs: each
    module's functions (a kernel and the helpers it calls) and every
    code object nested in them."""
    kernels = [screen.kernel for screen in plan._screen_kernels.values() if screen.kernel]
    kernels += [shape[2] for shape in plan._shapes.values()]
    if plan._aggregate_kernel is not None:
        kernels.append(plan._aggregate_kernel[1])
    pending = [
        value.__code__
        for kernel in kernels
        for value in kernel.__globals__.values()
        if callable(value) and hasattr(value, "__code__")
    ]
    while pending:
        code = pending.pop()
        yield code
        pending += [c for c in code.co_consts if hasattr(c, "co_filename")]


class TestProgramSharing:
    """Kernels that differ only in their comments share one compile."""

    #: Relation names a comment quotes: a ``#`` of its own, a quote and
    #: a newline, which ``repr`` escapes.
    RELATIONS = ("plain", "has#hash", "it's", "new\nline")

    @staticmethod
    def _twins(name):
        return {
            f"{name} sel": BaseRef(name).select("A < 25").project(["A"]),
            f"{name} cnt": BaseRef(name).aggregate(["B"], [("count", None, "n")]),
        }

    def test_twin_views_compile_as_often_as_one(self, kernel_compiles):
        db = Database()
        for name in self.RELATIONS:
            db.create_relation(name, ["A", "B"], [(10, 1), (30, 2), (20, 1)])
        maintainer = ViewMaintainer(db)
        for view, expression in self._twins(self.RELATIONS[0]).items():
            maintainer.define_view(view, expression)
        one = len(kernel_compiles)
        assert one > 0
        for name in self.RELATIONS[1:]:
            for view, expression in self._twins(name).items():
                maintainer.define_view(view, expression)
        assert len(kernel_compiles) == one
        for k, name in enumerate(self.RELATIONS):
            with db.transact() as txn:
                txn.insert(name, (k, 3))
                txn.delete(name, (30, 2))
            with db.transact() as txn:
                txn.insert(name, (24, 1))
                txn.delete(name, (10, 1))
        # The commits compiled one program more: the trigger every
        # relation's commits run, bound to each relation's kernels.
        assert len(kernel_compiles) == one + 1
        assert "def trigger(" in kernel_compiles[-1]
        maintainer.verify_all()
        for view in maintainer.view_names():
            codes = list(_kernel_code_objects(maintainer.compiled_plan(view)))
            assert len(codes) > 1
            for code in codes:
                assert code.co_filename.startswith(f"<codegen:{view}:"), (
                    view, code.co_name, code.co_filename
                )

    def test_a_different_literal_is_a_different_program(self, kernel_compiles):
        db = Database()
        db.create_relation("r", ["A", "B"], [(10, 1), (25, 2)])
        maintainer = ViewMaintainer(db)
        maintainer.define_view("lt25", BaseRef("r").select("A < 25"))
        first = len(kernel_compiles)
        maintainer.define_view("also_lt25", BaseRef("r").select("A < 25"))
        assert len(kernel_compiles) == first
        maintainer.define_view("lt26", BaseRef("r").select("A < 26"))
        assert len(kernel_compiles) > first
        db.apply(inserts={"r": [(25, 3)]})
        assert maintainer.view("lt25").contents.counts() == {(10, 1): 1}
        assert maintainer.view("lt26").contents.counts() == {
            (10, 1): 1, (25, 2): 1, (25, 3): 1
        }
        maintainer.verify_all()

    def test_catalog_wide_triggers_are_one_program(self, monkeypatch, kernel_compiles):
        """Two maintainers over the benchmark's ``catalog_wide`` catalog
        emit byte-identical trigger text for the same changed relations,
        and the triggers of its 100 aux relations, one per relation, are
        one compiled program (compiled one by one, they cost 1.9 MB of
        ``peak_rss_mb``)."""
        macrobench = Path(__file__).resolve().parent.parent / "macrobench"
        modules = {}
        for name in ("config", "catalog", "gen"):
            spec = importlib.util.spec_from_file_location(name, macrobench / f"{name}.py")
            modules[name] = importlib.util.module_from_spec(spec)
            monkeypatch.setitem(sys.modules, name, modules[name])  # gone after
            spec.loader.exec_module(modules[name])
        workload = modules["config"].WORKLOADS["catalog_wide"]
        gen = modules["gen"]
        texts: dict[tuple[str, ...], list[str]] = {}
        generate = codegen.generate_trigger_source

        def kept(views, arrived, *args):
            source, bound = generate(views, arrived, *args)
            texts.setdefault(tuple(arrived), []).append(source)
            return source, bound

        monkeypatch.setattr(codegen, "generate_trigger_source", kept)
        for _ in range(2):
            db = Database()
            for name, attributes in gen.SCHEMAS.items():
                db.create_relation(name, list(attributes), [])
            for k in range(workload.aux_relations):
                db.create_relation(f"aux{k}", list(gen.AUX_SCHEMA), [(0, 50, 3)])
            maintainer = ViewMaintainer(db)
            for name, spec in modules["catalog"].view_specs(workload).items():
                maintainer.define_view(name, parse_view_expression(spec))
            db.apply(inserts={"lineitem": [(1, 1, 1, 9, 0)]})
            for k in range(workload.aux_relations):
                db.apply(inserts={f"aux{k}": [(1, 10, 3)]})
            assert maintainer.stats(f"aux{k}_cnt")["deltas_applied"] == 1
        assert len(texts) == 1 + workload.aux_relations
        assert all(first == second for first, second in texts.values())
        aux = {codegen.program_key(t[0]) for key, t in texts.items() if key[0].startswith("aux")}
        assert len(aux) == 1
        # Compiled once each: the lineitem trigger's program and the aux one.
        assert sum("def trigger(" in source for source in kernel_compiles) == 2

    def test_the_cache_keeps_no_more_than_its_bound(self, kernel_compiles):
        bound = codegen.PROGRAM_CACHE_SIZE
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 1)])
        maintainer = ViewMaintainer(db)
        for k in range(bound + 1):
            maintainer.define_view(f"v{k}", BaseRef("r").select(f"A < {k + 2}"))
        assert len(set(map(codegen.program_key, kernel_compiles))) > bound
        assert codegen._program.cache_info().currsize <= bound
        db.apply(inserts={"r": [(3, 1)]})
        maintainer.verify_all()


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
