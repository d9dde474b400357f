"""Which layer may import what, read from the source with ``ast``.

Three rules:

* the system — the layers a ``repro.cli`` verb runs, and the metrics
  registry — imports none of the apparatus kept beside it (benchmark
  reporting, baselines, extensions, workload generators, the
  simulator);
* one engine: ``src/`` runs the compiled kernels and nothing else.  The
  per-tuple reference they are held to lives with the tests
  (``tests/reference.py``); no module of ``src/`` imports it, or
  ``tests`` at all, or defines one of its evaluators again;
* one ground truth that shares nothing with that engine: the SQL
  translator (``algebra/sqlite_oracle.py``) imports the standard
  library only.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from repro.algebra.expressions import BaseRef
from repro.engine.database import Database
from repro.extensions.union_views import UnionView

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

SYSTEM = (
    "algebra/",
    "core/",
    "engine/",
    "replication/",
    "server/",
    "cluster/",
    "scheduler/",
    "analysis/",
    "instrumentation.py",
)
APPARATUS = (
    "repro.bench",
    "repro.baselines",
    "repro.extensions",
    "repro.workloads",
    "repro.simulation",
)
#: The per-tuple evaluators, which live in ``tests/reference.py`` only.
REFERENCE_LIBRARY = {
    "compute_view_delta",
    "filter_delta",
    "execute_planner",
    "build_operands",
    "changed_positions_for",
    "evaluate_normal_form",
    "evaluate_rows",
    "screen_delta",
    "index_probe_for",
    "RowWalker",
    # The tree evaluator and the tag algebra it runs on.  ``evaluate``
    # is left out: ``CompiledViewPlan.evaluate`` defines it too.
    "compile_condition",
    "select_relation",
    "project_relation",
    "join_relations",
    "rename_relation",
    "product_relations",
    "aggregate_relation",
    "tagged_select",
    "tagged_project",
    "tagged_join",
    "tagged_product",
    "counted_projection_distributes",
    "TaggedRelation",
    "JOIN_TAG_TABLE",
    "UNARY_TAG_TABLE",
    "combine_join_tags",
    "unary_tag",
    "old_operand",
    "delta_operand",
    "pre_commit_operand",
    "stored_operand",
    "tagged_items",
    "truth_table_delta",
}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(
            path.read_text(encoding="utf-8")
        )


def _imports(tree: ast.AST):
    """Every ``(module, name)`` a module imports, anywhere in it; a
    plain ``import m`` is ``(m, None)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield node.module, alias.name


def test_the_system_imports_no_apparatus():
    offenders = sorted(
        (module, imported)
        for module, tree in _modules()
        if module.startswith(SYSTEM)
        for imported, _ in _imports(tree)
        if imported.startswith(APPARATUS)
    )
    assert offenders == []


def test_no_module_in_src_imports_or_defines_the_reference_library():
    offenders = sorted(
        (module, name)
        for module, tree in _modules()
        for name in [
            imported
            for imported, _ in _imports(tree)
            if imported == "tests" or imported.startswith("tests.")
        ]
        + [name for _, name in _imports(tree) if name in REFERENCE_LIBRARY]
        + [
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name in REFERENCE_LIBRARY
        ]
        + [
            target.id
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and target.id in REFERENCE_LIBRARY
        ]
    )
    assert offenders == []


def test_the_sql_oracle_imports_the_standard_library_only():
    tree = ast.parse((SRC / "algebra" / "sqlite_oracle.py").read_text("utf-8"))
    imported = {module.split(".")[0] for module, _ in _imports(tree)}
    assert imported - {"__future__"} <= sys.stdlib_module_names
    assert "sqlite3" in imported
    # sqlite3 is imported when an oracle is made, not with the module.
    assert not any(
        isinstance(node, ast.Import) and any(a.name == "sqlite3" for a in node.names)
        for node in tree.body
    )


def test_the_shell_does_not_import_sqlite():
    """``import repro.cli`` (what ``serve`` and the benchmark host run)
    leaves ``sqlite3`` to the first check that needs it."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, repro.cli; print('sqlite3' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert loaded.stdout.strip() == "False"


def test_the_row_planner_has_no_interpreter_knobs():
    tree = ast.parse((SRC / "core" / "planner.py").read_text("utf-8"))
    (init,) = [
        node
        for top in tree.body
        if isinstance(top, ast.ClassDef) and top.name == "RowPlanner"
        for node in top.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]
    assert [arg.arg for arg in init.args.args] == [
        "self", "normal_form", "changed_positions"
    ]


def test_only_the_codec_the_shell_and_the_cluster_genesis_declare_keys():
    """The catalog is database state: a rebuilt database gets its keys
    from the document it is built from, so nothing in ``src/`` but the
    codec, the shell's declare verbs and the sharded simulation's
    genesis is told them again.  (``self.keys.declare_*`` is the
    database recording its own declaration in its ``KeyCatalog``.)"""
    declarers = set()
    for module, tree in _modules():
        for top in tree.body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("declare_key", "declare_foreign_key")
                    and not (
                        isinstance(node.func.value, ast.Attribute)
                        and node.func.value.attr == "keys"
                    )
                ):
                    declarers.add((module, getattr(top, "name", None)))
    assert declarers == {
        ("engine/persistence.py", "database_from_document"),
        ("cli.py", "Shell"),
        ("simulation/sharded.py", "cluster_workload"),
    }


def test_a_union_view_adds_no_commit_hook_of_its_own():
    tree = ast.parse((SRC / "extensions" / "union_views.py").read_text("utf-8"))
    assert not any(
        isinstance(node, ast.Attribute) and node.attr == "add_commit_hook"
        for node in ast.walk(tree)
    )
    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 2)])
    view = UnionView(db, "u", [BaseRef("r").project(["A"])])
    assert db._commit_hooks == [view._maintainer._on_commit]


def test_only_the_kernel_generator_may_call_compile(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "lint_determinism", ROOT / "tools" / "lint_determinism.py"
    )
    assert spec is not None and spec.loader is not None
    lint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint)
    source = 'code = compile("1 + 1", "<text>", "eval")\n'
    for relative in ("src/repro/engine/sneaky.py", "src/repro/core/codegen.py"):
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    sneaky = lint.check_file(tmp_path / "src/repro/engine/sneaky.py", tmp_path)
    assert len(sneaky) == 1
    assert sneaky[0].startswith("src/repro/engine/sneaky.py:1: compile()")
    assert lint.check_file(tmp_path / "src/repro/core/codegen.py", tmp_path) == []
