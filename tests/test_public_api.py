"""Contract tests for the package's public surface."""

import re
from pathlib import Path

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_key_entry_points_present(self):
        for name in (
            "Database",
            "ViewMaintainer",
            "BaseRef",
            "parse_condition",
            "is_satisfiable",
            "is_irrelevant_update",
            "compute_view_delta",
            "check_view_consistency",
        ):
            assert name in repro.__all__


class TestQuickstartDocstring:
    def test_readme_quickstart_flow(self):
        """The exact flow documented in the package docstring/README."""
        from repro import BaseRef, Database, ViewMaintainer

        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 2), (5, 10), (12, 15)])
        db.create_relation("s", ["C", "D"], [(2, 10), (10, 20)])

        maintainer = ViewMaintainer(db)
        view = maintainer.define_view(
            "u",
            BaseRef("r").product(BaseRef("s"))
            .select("A < 10 and C > 5 and B = C")
            .project(["A", "D"]),
        )
        with db.transact() as txn:
            txn.insert("r", (9, 10))
            txn.insert("r", (11, 10))
        assert view.contents.counts() == {(5, 20): 1, (9, 20): 1}
        stats = maintainer.stats("u")
        assert stats["tuples_screened"] == 2
        assert stats["tuples_irrelevant"] == 1
        assert stats["deltas_applied"] == 1


class TestDoctests:
    def test_module_doctests_pass(self):
        """Run the doctest examples embedded in key modules."""
        import doctest

        import repro.algebra.conditions
        import repro.algebra.schema
        import repro.algebra.tuples
        import repro.bench.reporting
        import repro.core.graph
        import repro.core.normalize
        import repro.core.satisfiability
        import repro.core.substitution
        import repro.core.truthtable

        for module in (
            repro.algebra.conditions,
            repro.algebra.schema,
            repro.algebra.tuples,
            repro.bench.reporting,
            repro.core.graph,
            repro.core.normalize,
            repro.core.satisfiability,
            repro.core.substitution,
            repro.core.truthtable,
        ):
            failures, _ = doctest.testmod(module)
            assert failures == 0, module.__name__


class TestApiReference:
    def test_docs_api_names_what_exists_and_all_of_core(self):
        """docs/api.md keeps no row for a deleted maintainer method and
        misses no name `repro.core` exports."""
        import repro.core
        from repro.core.maintainer import ViewMaintainer

        text = (Path(__file__).parent.parent / "docs" / "api.md").read_text()
        documented = set(re.findall(r"`maintainer\.(\w+)", text))
        assert documented, "docs/api.md lists no maintainer methods"
        missing = sorted(n for n in documented if not hasattr(ViewMaintainer, n))
        assert not missing, f"docs/api.md names absent ViewMaintainer attributes: {missing}"
        undocumented = sorted(
            n for n in repro.core.__all__ if not re.search(rf"\b{n}\b", text)
        )
        assert not undocumented, f"docs/api.md misses repro.core names: {undocumented}"
