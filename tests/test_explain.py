"""Unit tests for the plan-explanation facility."""

import pytest

from repro.algebra.expressions import BaseRef, to_normal_form
from repro.core.maintainer import ViewMaintainer
from repro.core.planner import RowPlanner
from repro.engine.database import Database


@pytest.fixture
def db():
    database = Database()
    database.create_relation("r", ["A", "B"], [(1, 2)])
    database.create_relation("s", ["B", "C"], [(2, 3)])
    database.create_relation("t", ["C", "D"], [(3, 4)])
    return database


@pytest.fixture
def maintainer(db):
    m = ViewMaintainer(db)
    m.define_view(
        "v",
        BaseRef("r")
        .join(BaseRef("s"))
        .join(BaseRef("t"))
        .select("A < 10 and D >= 2")
        .project(["A", "D"]),
    )
    return m


class TestPlannerDescribe:
    def test_mentions_rows_and_order(self, db):
        nf = to_normal_form(
            BaseRef("r").join(BaseRef("s")), db.schema_catalog()
        )
        text = RowPlanner(nf, [0]).lower().describe()
        assert "rows to evaluate: 1" in text
        assert "i_r ⋈ s" in text
        assert "  row 0: i_r -> s [probe B]" in text

    def test_each_row_gets_its_own_order(self, db):
        nf = to_normal_form(
            BaseRef("r").join(BaseRef("s")), db.schema_catalog()
        )
        text = RowPlanner(nf, [0, 1]).lower().describe()
        # One term per changed relation: s is read pre-commit right of
        # r's delta, r as stored left of s's.
        assert "  row 0: i_r -> pre_s [probe B]" in text
        assert "  row 1: i_s -> r [probe B]" in text
        assert "  row 2:" not in text
        assert "operand order" not in text

    def test_full_evaluation_mode(self, db):
        nf = to_normal_form(BaseRef("r"), db.schema_catalog())
        text = RowPlanner(nf, []).lower().describe()
        assert "full evaluation" in text
        assert "rows to evaluate: 1" in text

    def test_hash_links_and_filters_reported(self, db):
        nf = to_normal_form(
            BaseRef("r").join(BaseRef("s")).select("A < 5 and C > 1"),
            db.schema_catalog(),
        )
        text = RowPlanner(nf, [0]).lower().describe()
        assert "hash-join on" in text
        assert "prefiltered" in text

    def test_cross_join_flagged(self, db):
        db.create_relation("u", ["X"], [(1,)])
        nf = to_normal_form(
            BaseRef("r").product(BaseRef("u")), db.schema_catalog()
        )
        text = RowPlanner(nf, [0]).lower().describe()
        assert "cross join" in text

    def test_dnf_final_pass_flagged(self, db):
        nf = to_normal_form(
            BaseRef("r").select("A < 1 or B > 5"), db.schema_catalog()
        )
        text = RowPlanner(nf, [0]).lower().describe()
        assert "full DNF condition re-check" in text


class TestMaintainerExplain:
    def test_explain_changed_relations(self, maintainer):
        text = maintainer.explain("v", ["r", "s"])
        assert "changed occurrences: ['r', 's']" in text
        assert "rows to evaluate: 2 (one term per changed occurrence)" in text

    def test_explain_uninvolved_relation(self, maintainer):
        text = maintainer.explain("v", ["zzz"])
        assert "no maintenance needed" in text

    def test_explain_unknown_view(self, maintainer):
        from repro.errors import UnknownViewError

        with pytest.raises(UnknownViewError):
            maintainer.explain("nope", ["r"])

    def test_projection_listed(self, maintainer):
        assert "projection: A, D" in maintainer.explain("v", ["r"])


class TestCompiledPlanExplain:
    def test_screening_split_shown(self, maintainer):
        text = maintainer.explain("v", ["r"])
        assert "compiled plan for view 'v'" in text
        assert "relevance screens" in text
        assert "invariant [" in text
        assert "variant evaluable [" in text

    def test_invariant_vs_variant_atoms(self, db):
        m = ViewMaintainer(db)
        m.define_view(
            "w",
            BaseRef("r").join(BaseRef("s")).select("A < 10 and C > 1"),
        )
        text = m.explain("w", ["r"])
        # Substituting an r-tuple grounds A < 10 (variant evaluable)
        # while C > 1 stays invariant across the whole batch.
        assert "invariant [C > 1]" in text
        assert "variant evaluable [A < 10]" in text

    def test_index_bindings_listed(self, maintainer):
        text = maintainer.explain("v", ["r"])
        assert "index bindings" in text
        assert "probes hash index" in text
        assert "will be created on first use" in text

    def test_a_listed_probe_is_never_denied(self, db):
        # The plan probes s(B), so no line may say it has no index
        # probes or report an evaluator switch the kernels do not have.
        m = ViewMaintainer(db)
        m.define_view("j", BaseRef("r").join(BaseRef("s")))
        text = m.explain("j", ["r"])
        assert "step 1: probes hash index s(B)" in text
        assert "index probes: none" not in text
        assert "subexpression sharing" not in text

    def test_existing_index_shown_as_bound(self, db, maintainer):
        db.create_index("s", ["B"])
        text = maintainer.explain("v", ["r"])
        assert "s(B) [bound]" in text

    def test_view_operand_flagged(self, db):
        m = ViewMaintainer(db)
        m.define_view("base_v", BaseRef("r").select("A < 10"))
        m.define_view(
            "stacked",
            BaseRef("base_v").join(BaseRef("t")).select("B = C"),
        )
        probe = "probes hash index base_v(B)"
        assert f"{probe} [will be created on first use]" in m.explain("stacked", ["t"])
        with db.transact() as txn:
            txn.insert("t", (2, 9))
        assert f"{probe} [bound]" in m.explain("stacked", ["t"])

    def test_screens_only_for_changed_relations(self, maintainer):
        text = maintainer.explain("v", ["r"])
        assert "  r#" in text
        assert "  s#" not in text
