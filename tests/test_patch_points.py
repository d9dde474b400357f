"""The frozen benchmark's pins on ``src/``, checked from tier-1.

``macrobench/`` may not change between benchmark rounds, so what it
reaches into the program for must keep resolving: the entry points
``macrobench/tracer.py`` replaces by name (a renamed or re-shaped one
raises at install time, and one a commit no longer passes through
records no span) and the counter names ``macrobench/layers.py`` reads
out of the recorder bags.  Both files are only read or run here.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

from repro.instrumentation import METRICS

ROOT = Path(__file__).resolve().parent.parent
MACROBENCH = ROOT / "macrobench"

#: The names ``layers.per_layer`` gives its recorder bags.
COUNTER_BAGS = {"counters", "maintainer", "codegen"}


def test_tracer_installs_over_every_patched_entry_point():
    # A subprocess: the wrappers replace methods on the live classes.
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(MACROBENCH)!r}]\n"
        "import tracer\n"
        "tracer.install_core(tracer.Tracer())\n"
        "tracer.install_server(tracer.Tracer())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr


def test_an_in_process_commit_passes_every_traced_engine_entry_point():
    """One ``Database.apply`` with an insert and a delete records one
    span on each engine entry point the tracer wraps: one inlined or
    bypassed would leave its ``engine.*`` row reading 0 with no error."""
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(MACROBENCH)!r}]\n"
        "import tracer\n"
        "from repro.engine.database import Database\n"
        "spans = tracer.Tracer()\n"
        "tracer.install_core(spans)\n"
        "db = Database()\n"
        "db.create_relation('r', ['A', 'B'], [(1, 2)])\n"
        "spans.enabled = True\n"
        "db.apply(inserts={'r': [(3, 4)]}, deletes={'r': [(1, 2)]})\n"
        "spans.enabled = False\n"
        "print(json.dumps(spans.report()['calls']))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    calls = json.loads(done.stdout)
    for name in (
        "Database.apply",
        "Transaction.insert_many",
        "Transaction.delete_many",
        "Transaction.net_deltas",
        "Database.net_effect_violation",
        "Transaction.commit",
    ):
        assert calls.get(name) == 1, (name, calls)


def test_layer_rows_read_only_declared_metrics():
    tree = ast.parse((MACROBENCH / "layers.py").read_text(encoding="utf-8"))
    read = {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id in COUNTER_BAGS
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
    }
    assert len(read) > 20, "layers.py no longer subscripts its counter bags"
    assert sorted(read - METRICS.keys()) == []
