#!/usr/bin/env python3
"""AST lint: no ambient time or randomness inside ``src/repro``.

The whole repository is built around determinism — the simulation
harness replays identical runs from a seed, compiled plans are
byte-for-byte reproducible across replicas, and the static analyzer's
reports must be byte-identical for the same input.  Ambient
nondeterminism breaks all of that silently, so this lint forbids, in
``src/repro``:

* ``time.time`` / ``time.time_ns`` / ``time.monotonic`` /
  ``time.monotonic_ns`` / ``time.perf_counter`` /
  ``time.perf_counter_ns`` — wall/monotonic clock reads;
* module-level ``random.*`` calls — the shared global RNG
  (constructing a seeded ``random.Random(seed)`` or an explicit
  ``random.SystemRandom`` instance is fine);
* ``datetime.datetime.now`` / ``utcnow`` / ``today`` and
  ``datetime.date.today`` — ambient dates;
* ``eval`` / ``exec`` / ``compile`` — dynamic code execution, allowed
  only in the sanctioned kernel generator (``src/repro/core/codegen.py``), whose
  generated source is itself required to be byte-for-byte
  deterministic.

The sanctioned seams are allowlisted: the simulation clock
(``SimClock`` owns virtual time) and the benchmark harness (its whole
point is measuring real wall-clock).  Everything else must take a
clock or an RNG as an argument.

Usage (CI runs this from the repository root)::

    python tools/lint_determinism.py [ROOT]

Exits 1 with ``file:line: message`` diagnostics on violations.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Files allowed to read ambient time: the virtual-clock seam and the
#: wall-clock benchmark harness.  Paths are relative to ROOT.
ALLOWLIST = frozenset(
    {
        Path("src/repro/simulation/clock.py"),
        Path("src/repro/bench/harness.py"),
    }
)

FORBIDDEN_TIME = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
    }
)

#: random.<attr> calls that *construct an explicit generator* are fine;
#: everything else on the module (random, randint, choice, shuffle, …)
#: draws from the hidden global RNG.
ALLOWED_RANDOM_ATTRS = frozenset({"Random", "SystemRandom"})

FORBIDDEN_DATETIME = frozenset({"now", "utcnow", "today"})

#: The one module allowed to ``compile()``/``exec`` source it built:
#: the batch-kernel generator.  Everywhere else, dynamic execution
#: hides code from this lint (and from review) — banned.
DYNAMIC_EXEC_ALLOWLIST = frozenset({Path("src/repro/core/codegen.py")})

FORBIDDEN_DYNAMIC = frozenset({"eval", "exec", "compile"})


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for an attribute chain of Names, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def check_file(path: Path, root: Path) -> list[str]:
    """All determinism violations in one file, as ``file:line: msg``."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:  # a broken file is its own violation
        return [f"{path}:{exc.lineno or 0}: syntax error: {exc.msg}"]

    relative = path.relative_to(root)
    violations: list[str] = []

    def report(node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        violations.append(f"{relative}:{line}: {message}")

    allow_dynamic = relative in DYNAMIC_EXEC_ALLOWLIST
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if (
            not allow_dynamic
            and isinstance(node.func, ast.Name)
            and node.func.id in FORBIDDEN_DYNAMIC
        ):
            report(
                node,
                f"{node.func.id}() compiles or runs dynamic code; only the "
                "kernel generator (core/codegen.py) may do that",
            )
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        head, _, tail = dotted.partition(".")
        if head == "time" and tail in FORBIDDEN_TIME:
            report(
                node,
                f"{dotted}() reads the ambient clock; take a clock "
                "argument (see simulation/clock.py) instead",
            )
        elif head == "random" and tail and "." not in tail:
            if tail not in ALLOWED_RANDOM_ATTRS:
                report(
                    node,
                    f"{dotted}() uses the global RNG; construct a seeded "
                    "random.Random(seed) and pass it explicitly",
                )
        elif dotted in (
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        ) or (
            head in ("datetime", "date") and tail in FORBIDDEN_DATETIME
        ):
            report(
                node,
                f"{dotted}() reads the ambient date; pass timestamps in "
                "explicitly",
            )
    return violations


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path.cwd()
    source_root = root / "src" / "repro"
    if not source_root.is_dir():
        print(f"error: {source_root} is not a directory", file=sys.stderr)
        return 2
    violations: list[str] = []
    for path in sorted(source_root.rglob("*.py")):
        if path.relative_to(root) in ALLOWLIST:
            continue
        violations.extend(check_file(path, root))
    for violation in violations:
        print(violation)
    if violations:
        print(
            f"{len(violations)} determinism violation(s); ambient time and "
            "the global RNG are banned in src/repro (see "
            "tools/lint_determinism.py)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
