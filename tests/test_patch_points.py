"""The frozen benchmark's pins on ``src/``, checked from tier-1.

``macrobench/`` may not change between benchmark rounds, so what it
reaches into the program for must keep resolving: the entry points
``macrobench/tracer.py`` replaces by name (a renamed or re-shaped one
raises at install time) and the counter names ``macrobench/layers.py``
reads out of the recorder bags.  Both files are only read here.
"""

import ast
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
