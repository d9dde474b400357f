#!/usr/bin/env python3
"""Docs lint: the counter catalogue and the charge sites agree.

Work counters are free-form strings: ``charge("name")`` anywhere under
``src/`` creates one, and the catalogue in the module docstring of
``src/repro/instrumentation.py`` is the only place a reader can learn
what it counts.  The two drift silently — a new counter ships
undocumented, a deleted one lingers in the docs.  This lint pins them
together in both directions: every ``charge("...")`` literal in
``src/`` must appear, double-backtick-quoted, in the catalogue (the
docstring text from "The catalogue:" to "Usage::"), and every counter
named there must still be charged somewhere.

Usage (CI runs this from the repository root)::

    python tools/check_counter_docs.py

Exits 1 listing the undocumented counters, the documented ghosts, and
any ``charge(`` call whose first argument is not a string literal (the
lint could not see its name).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CATALOGUE = SRC / "repro" / "instrumentation.py"


def charged_counters() -> tuple[dict[str, list[str]], list[str]]:
    """Counter name → charge sites, plus the sites with no literal name."""
    charged: dict[str, list[str]] = {}
    opaque: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "charge"
            ):
                continue
            site = f"{path.relative_to(ROOT)}:{node.lineno}"
            first = node.args[0] if node.args else None
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                charged.setdefault(first.value, []).append(site)
            else:
                opaque.append(site)
    return charged, opaque


def documented_counters() -> set[str]:
    """Double-backtick-quoted identifiers in the catalogue section.

    Family prefixes (``wal_*``), calls (``compile()``) and paths
    (``docs/...``) do not match the identifier pattern and are skipped;
    ``MAX_CODEGEN_ROWS`` is upper-case and skipped likewise.
    """
    docstring = ast.get_docstring(
        ast.parse(CATALOGUE.read_text(encoding="utf-8")), clean=False
    )
    assert docstring is not None
    section = docstring[
        docstring.index("The catalogue:") : docstring.index("Usage::")
    ]
    return set(re.findall(r"``([a-z][a-z0-9_]*)``", section))


def main() -> int:
    charged, opaque = charged_counters()
    documented = documented_counters()
    failures = [
        f"{site}: charge() with a non-literal counter name" for site in opaque
    ]
    for name in sorted(charged.keys() - documented):
        failures.append(
            f"{charged[name][0]}: counter {name!r} is charged but missing "
            f"from the catalogue in {CATALOGUE.relative_to(ROOT)}"
        )
    for ghost in sorted(documented - charged.keys()):
        failures.append(
            f"{CATALOGUE.relative_to(ROOT)}: catalogue documents {ghost!r}, "
            "which nothing under src/ charges"
        )
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        return 1
    print(
        f"counter docs OK: {len(charged)} counters charged at "
        f"{sum(len(sites) for sites in charged.values())} sites, all in "
        f"{CATALOGUE.relative_to(ROOT)}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
