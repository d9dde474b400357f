"""The static view analyzer: paper-grounded verdicts, end to end.

Covers every finding class on concrete views (the paper's Example 4.1
and the Theorem 4.2 simultaneous-substitution setting among them),
strict registration, determinism of the rendered reports, the CLI
``analyze`` verb, plan-cache invalidation on constraint DDL, and a
Hypothesis property tying the static-irrelevance verdict to the
runtime per-tuple screen it replaces.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.conditions import Atom, Condition, Conjunction
from repro.algebra.expressions import BaseRef, to_normal_form
from repro.analysis import (
    CODE_SEVERITIES,
    F_DEAD_DISJUNCT,
    F_DEAD_TRUTH_ROWS,
    F_DUPLICATE_VIEW,
    F_LOOSE_BOUND,
    F_REDUNDANT_ATOM,
    F_STATIC_IRRELEVANCE,
    F_SUBSUMED_VIEW,
    F_UNBOUND_OLD_OPERAND,
    F_UNSATISFIABLE_CONDITION,
    Finding,
    Severity,
    analyze_definition,
)
from repro.cli import ShellError, run_analyze
from repro.core.irrelevance import RelevanceFilter, is_statically_irrelevant
from repro.core.maintainer import ViewMaintainer
from repro.engine.database import Database
from repro.errors import (
    ConstraintError,
    ConstraintViolationError,
    StrictAnalysisError,
    UnknownViewError,
)
from repro.instrumentation import CostRecorder, recording
from repro.workloads.scenarios import example_4_1
from tests.strategies import SPJ_TABLES, spj_expressions

EXAMPLES_SPEC = Path(__file__).resolve().parent.parent / "examples" / "analyze_views.txt"


def codes(findings) -> set[str]:
    return {f.code for f in findings}


def example_4_1_expression():
    return (
        BaseRef("r")
        .product(BaseRef("s"))
        .select("A < 10 and C > 5 and B = C")
        .project(["A", "D"])
    )


class TestExample41:
    """Section 4, Example 4.1 through the static analyzer."""

    def test_paper_view_is_satisfiable_with_no_errors(self):
        scenario = example_4_1()
        maintainer = ViewMaintainer(scenario.database)
        view = maintainer.define_view("u", scenario.expression)
        findings = analyze_definition(view.definition)
        assert all(f.severity is not Severity.ERROR for f in findings)
        assert F_UNSATISFIABLE_CONDITION not in codes(findings)
        assert F_REDUNDANT_ATOM not in codes(findings)
        assert F_DEAD_DISJUNCT not in codes(findings)

    def test_join_equality_propagates_an_unwritten_bound(self):
        # B = C and C > 5 entail B >= 6, but no screen states a bound
        # on B — exactly the implied-bound-tightening diagnostic.
        scenario = example_4_1()
        maintainer = ViewMaintainer(scenario.database)
        view = maintainer.define_view("u", scenario.expression)
        loose = [
            f
            for f in analyze_definition(view.definition)
            if f.code == F_LOOSE_BOUND
        ]
        assert loose, "expected a loose_bound finding for B"
        assert any("B lower" in f.subject for f in loose)
        assert all(f.severity is Severity.INFO for f in loose)

    def test_constraint_makes_r_statically_irrelevant(self):
        # Example 4.1's irrelevant insertion (11, 10) generalized: once
        # A >= 10 is a declared invariant of r, *every* legal update to
        # r is irrelevant (C ∧ K_r is unsatisfiable), so the compiled
        # plan drops r's screening entirely.
        db = Database()
        db.create_relation("r", ["A", "B"], [(12, 15)])
        db.create_relation("s", ["C", "D"], [(2, 10), (10, 20)])
        db.declare_constraint("r", "A >= 10")
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("u", example_4_1_expression())
        report = maintainer.analyze()
        found = codes(report.for_view("u"))
        assert F_STATIC_IRRELEVANCE in found
        assert F_DEAD_TRUTH_ROWS in found
        irrelevance = [
            f for f in report.for_view("u") if f.code == F_STATIC_IRRELEVANCE
        ]
        assert [f.subject for f in irrelevance] == ["r"]

        plan = maintainer.compiled_plan("u")
        assert plan is not None
        assert plan.static_irrelevant == frozenset({"r"})

        # Acceptance criterion: a legal update to r executes *zero*
        # per-tuple screening — the whole delta is statically dropped.
        recorder = CostRecorder()
        with recording(recorder):
            with db.transact() as txn:
                txn.insert("r", (11, 10))
        assert recorder.get("filter_tuples_checked") == 0
        assert recorder.get("static_tuples_dropped") == 1
        assert maintainer.stats("u")["tuples_static_dropped"] == 1
        assert view.contents.counts() == {}

        # Updates to the unconstrained relation still screen per tuple.
        recorder = CostRecorder()
        with recording(recorder):
            with db.transact() as txn:
                txn.insert("s", (3, 4))
        assert recorder.get("filter_tuples_checked") >= 1


class TestExample42Simultaneous:
    """The Theorem 4.2 setting: every operand statically constrained."""

    @pytest.fixture
    def maintainer(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(12, 15)])
        db.create_relation("s", ["C", "D"], [(3, 10)])
        db.declare_constraint("r", "A >= 10")
        db.declare_constraint("s", "C <= 5")
        maintainer = ViewMaintainer(db)
        maintainer.define_view("u", example_4_1_expression())
        return maintainer

    def test_both_relations_proved_irrelevant(self, maintainer):
        report = maintainer.analyze()
        irrelevance = sorted(
            f.subject
            for f in report.for_view("u")
            if f.code == F_STATIC_IRRELEVANCE
        )
        assert irrelevance == ["r", "s"]
        plan = maintainer.compiled_plan("u")
        assert plan.static_irrelevant == frozenset({"r", "s"})
        # Every delta term is dead: one per occurrence, 2 of 2 (the
        # truth table counted its 2^2 - 1 = 3 rows).
        dead = [
            f for f in report.for_view("u") if f.code == F_DEAD_TRUTH_ROWS
        ]
        assert len(dead) == 1
        assert "2 of 2 delta terms" in dead[0].message

    def test_constrained_emptiness_is_not_unsatisfiability(self, maintainer):
        # The condition itself is satisfiable — only *legal* states
        # never feed the view — so check (a) must not fire.
        report = maintainer.analyze()
        assert F_UNSATISFIABLE_CONDITION not in codes(report.findings)

    def test_simultaneous_legal_updates_screen_nothing(self, maintainer):
        db = maintainer.database
        view = maintainer.view("u")
        before = view.contents.counts()
        recorder = CostRecorder()
        with recording(recorder):
            with db.transact() as txn:
                txn.insert("r", (11, 10))
                txn.insert("s", (4, 9))
        assert recorder.get("filter_tuples_checked") == 0
        assert recorder.get("static_tuples_dropped") == 2
        assert view.contents.counts() == before


class TestFindingClasses:
    """Each diagnostic class fires on a minimal dedicated view."""

    @pytest.fixture
    def db(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [])
        db.create_relation("s", ["C", "D"], [])
        return db

    def test_unsatisfiable_condition_is_the_sole_error(self, db):
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("v", BaseRef("r").select("A < 5 and A > 7"))
        findings = analyze_definition(view.definition)
        assert [f.code for f in findings] == [F_UNSATISFIABLE_CONDITION]
        assert findings[0].severity is Severity.ERROR

    def test_dead_disjunct(self, db):
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view(
            "v", BaseRef("r").select("B > 0 or (A < 3 and A > 7)")
        )
        findings = analyze_definition(view.definition)
        dead = [f for f in findings if f.code == F_DEAD_DISJUNCT]
        assert len(dead) == 1
        assert F_UNSATISFIABLE_CONDITION not in codes(findings)

    def test_redundant_atom(self, db):
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("v", BaseRef("r").select("A < 5 and A < 10"))
        redundant = [
            f
            for f in analyze_definition(view.definition)
            if f.code == F_REDUNDANT_ATOM
        ]
        assert len(redundant) == 1
        assert "A < 10" in redundant[0].message

    def test_loose_bound_reports_the_entailed_constant(self, db):
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view(
            "v", BaseRef("r").select("A <= 100 and B <= A - 30")
        )
        loose = [
            f
            for f in analyze_definition(view.definition)
            if f.code == F_LOOSE_BOUND and "B upper" in f.subject
        ]
        assert len(loose) == 1
        assert "70" in loose[0].message

    def test_duplicate_and_subsumed_views(self, db):
        maintainer = ViewMaintainer(db)
        # A > 4 iff A >= 5 over the integers: provably the same view.
        maintainer.define_view("a", BaseRef("r").select("A > 4").project(["A"]))
        maintainer.define_view("b", BaseRef("r").select("A >= 5").project(["A"]))
        # Strictly tighter condition, same columns: subsumed by both.
        maintainer.define_view("c", BaseRef("r").select("A > 9").project(["A"]))
        report = maintainer.analyze()
        duplicates = [f for f in report.findings if f.code == F_DUPLICATE_VIEW]
        assert [(f.view, f.subject) for f in duplicates] == [("a", "b")]
        subsumed = {
            (f.view, f.subject)
            for f in report.findings
            if f.code == F_SUBSUMED_VIEW
        }
        assert ("c", "a") in subsumed
        assert ("c", "b") in subsumed

    def test_unbound_old_operand_on_a_linkless_join(self, db):
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view(
            "v", BaseRef("r").join(BaseRef("s")).select("A < 5")
        )
        plan = maintainer.compiled_plan("v")
        findings = analyze_definition(view.definition, plan=plan)
        unbound = [f for f in findings if f.code == F_UNBOUND_OLD_OPERAND]
        assert unbound, "a join with no equality links must flag both operands"

    def test_closed_vocabulary(self):
        with pytest.raises(ValueError):
            Finding("not_a_code", "v", "s", "m")
        assert all(code == code.lower() for code in CODE_SEVERITIES)


class TestStrictMode:
    def test_strict_rejects_unsatisfiable_definitions(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 1)])
        maintainer = ViewMaintainer(db)
        with pytest.raises(StrictAnalysisError) as excinfo:
            maintainer.define_view(
                "bad", BaseRef("r").select("A < 5 and A > 7"), strict=True
            )
        assert excinfo.value.view_name == "bad"
        assert [f.code for f in excinfo.value.findings] == [
            F_UNSATISFIABLE_CONDITION
        ]
        # Nothing was registered or materialized.
        with pytest.raises(UnknownViewError):
            maintainer.view("bad")
        assert maintainer.view_names() == ()

    def test_strict_passes_warn_level_findings(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 1)])
        maintainer = ViewMaintainer(db, strict=True)
        view = maintainer.define_view("v", BaseRef("r").select("A < 5 and A < 10"))
        assert view.contents.counts() == {(1, 1): 1}


class TestConstraintEnforcement:
    def test_declaring_over_violating_rows_is_rejected(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 2), (50, 60)])
        with pytest.raises(ConstraintError):
            db.declare_constraint("r", "A < 10")
        assert db.constraints.get("r") is None

    def test_violating_insert_aborts_cleanly(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 2)])
        db.declare_constraint("r", "A < 10")
        with pytest.raises(ConstraintViolationError):
            with db.transact() as txn:
                txn.insert("r", (99, 1))
        assert db.relation("r").counts() == {(1, 2): 1}
        with db.transact() as txn:
            txn.insert("r", (5, 5))
        assert (5, 5) in db.relation("r")


class TestPlanCacheIntegration:
    def test_constraint_ddl_invalidates_static_proofs(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(12, 15)])
        db.create_relation("s", ["C", "D"], [(2, 10)])
        maintainer = ViewMaintainer(db)
        maintainer.define_view("u", example_4_1_expression())
        plan = maintainer.compiled_plan("u")
        assert plan is not None
        assert plan.static_irrelevant == frozenset()

        # Declaring the constraint fires a DDL event: the cached plan
        # (whose proofs assumed no invariant on r) must be dropped.
        db.declare_constraint("r", "A >= 10")
        assert maintainer.compiled_plan("u") is None

        with db.transact() as txn:
            txn.insert("s", (3, 4))
        replan = maintainer.compiled_plan("u")
        assert replan is not None
        assert replan is not plan
        assert replan.static_irrelevant == frozenset({"r"})

        # Dropping the constraint removes the premise — and the plan.
        db.drop_constraint("r")
        assert maintainer.compiled_plan("u") is None
        with db.transact() as txn:
            txn.insert("s", (4, 5))
        assert maintainer.compiled_plan("u").static_irrelevant == frozenset()


class TestDeterminism:
    def test_report_rendering_is_stable(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 1)])
        db.declare_constraint("r", "A <= 20")
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", BaseRef("r").select("A > 50 and A > 10"))
        maintainer.define_view("w", BaseRef("r").select("A > 50"))
        first = maintainer.analyze()
        second = maintainer.analyze()
        assert first.format() == second.format()
        assert first.as_json() == second.as_json()
        assert json.loads(first.as_json())["counts"] == {
            "error": 0,
            "warn": first.count(Severity.WARN),
            "info": first.count(Severity.INFO),
        }

    def test_examples_catalog_is_byte_identical_across_runs(self):
        runs = []
        for _ in range(2):
            lines: list[str] = []
            code = run_analyze([str(EXAMPLES_SPEC)], emit=lines.append)
            runs.append((code, "\n".join(lines)))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0, "the shipped examples must stay ERROR-free"
        assert "statically_irrelevant_relation" in runs[0][1]


class TestCliAnalyze:
    def test_exit_1_on_error_findings(self, tmp_path):
        spec = tmp_path / "bad.txt"
        spec.write_text(
            "create table r (A, B)\n"
            "create view empty as r where A < 3 and A > 7 select A\n"
        )
        lines: list[str] = []
        assert run_analyze([str(spec)], emit=lines.append) == 1
        assert "unsatisfiable_condition" in lines[0]

    def test_json_report_is_valid_and_counted(self, tmp_path):
        spec = tmp_path / "ok.txt"
        spec.write_text(
            "create table r (A, B)\n"
            "# comments and blanks are skipped\n"
            "\n"
            "-- like this one too\n"
            "create view v as r where A < 5 and A < 9 select A\n"
        )
        lines: list[str] = []
        assert run_analyze([str(spec)], as_json=True, emit=lines.append) == 0
        doc = json.loads(lines[0])
        assert doc["views"] == ["v"]
        assert doc["counts"]["warn"] == len(
            [f for f in doc["findings"] if f["severity"] == "warn"]
        )

    def test_source_flag_appends_generated_kernels(self, tmp_path):
        spec = tmp_path / "ok.txt"
        spec.write_text(
            "create table r (A, B)\n"
            "create view v as r where A < 5 select A\n"
        )
        lines: list[str] = []
        assert (
            run_analyze([str(spec)], show_source=True, emit=lines.append)
            == 0
        )
        text = "\n".join(lines)
        assert "kernel source for view 'v'" in text
        assert "def screen_kernel" in text

    def test_errors_carry_file_and_line(self, tmp_path):
        spec = tmp_path / "broken.txt"
        spec.write_text("create table r (A, B)\nnot a command\n")
        with pytest.raises(ShellError, match=r"broken\.txt:2"):
            run_analyze([str(spec)])

    def test_unreadable_file_is_a_shell_error(self, tmp_path):
        with pytest.raises(ShellError, match="cannot read"):
            run_analyze([str(tmp_path / "missing.txt")])


constraint_atoms = st.tuples(
    st.sampled_from(["<", "<=", "=", ">=", ">"]),
    st.integers(min_value=0, max_value=6),
)


@given(expression=spj_expressions(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_static_irrelevance_agrees_with_runtime_screening(expression, data):
    """A statically-irrelevant verdict is sound against Algorithm 4.1.

    Whenever the analyzer's Theorem 4.1 proof says no legal update to R
    can affect the view, the runtime per-tuple screen must agree on
    every constraint-satisfying tuple — the verdict licenses skipping
    that screen entirely, so a single disagreement would be a missed
    view update.
    """
    db = Database()
    for name, attrs in sorted(SPJ_TABLES.items()):
        db.create_relation(name, list(attrs), [])
    nf = to_normal_form(expression, db.schema_catalog())
    if not nf.relation_names:
        return
    relation = data.draw(st.sampled_from(sorted(set(nf.relation_names))))
    attrs = SPJ_TABLES[relation]
    attr = data.draw(st.sampled_from(sorted(attrs)))
    op, bound = data.draw(constraint_atoms)
    constraint = Condition([Conjunction([Atom(attr, op, bound)])])

    verdict = is_statically_irrelevant(nf, relation, constraint)
    rows = data.draw(
        st.lists(
            st.tuples(*[st.integers(min_value=-2, max_value=8)] * len(attrs)),
            min_size=1,
            max_size=8,
        )
    )
    legal = [
        row
        for row in rows
        if constraint.evaluate(dict(zip(attrs, row)))
    ]
    if not verdict or not legal:
        return
    screen = RelevanceFilter(nf, relation, db.relation(relation).schema)
    for row in legal:
        assert not screen.is_relevant(row), (
            f"static proof said no legal {relation} update matters, but "
            f"{row} screened as relevant under {constraint}"
        )
