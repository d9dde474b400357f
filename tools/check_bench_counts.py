#!/usr/bin/env python3
"""CI gate: a per-layer count moves only when the pull request says so.

``macrobench/compare.py`` prints one ``count mismatch`` line for every
count-type per-layer metric (tuples screened, scanned and probed, kernel
batch rows, …) that differs between two smoke runs.  Abstract work per
transaction must not move by accident, and a change that moves it on
purpose must name what it moves, in a commit-message trailer::

    Bench-counts-moved: <workload> <metric>

This script reads the comparison's output and the trailers of
``<base>..HEAD`` and fails on a mismatch line no trailer names, on a
trailer no mismatch line answers, on a failed run, and when the
comparison did not reach its summary line.  The permission lives in the
commits it covers and nowhere else, so it cannot outlive them.

Usage (CI runs this from the repository root)::

    python tools/check_bench_counts.py cmp.txt <base-revision>
"""

from __future__ import annotations

import subprocess
import sys

TRAILER = "Bench-counts-moved"


def moved_by_trailers(base: str) -> set[tuple[str, ...]]:
    """``(workload, metric)`` of every trailer in ``base..HEAD``."""
    log = subprocess.run(
        [
            "git",
            "log",
            f"--format=%(trailers:key={TRAILER},valueonly)",
            f"{base}..HEAD",
        ],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return {tuple(line.split()) for line in log.splitlines() if line.strip()}


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[-1])
    with open(sys.argv[1], encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    problems = [line for line in lines if "failed of" in line]
    if not any("counts identical" in line or "problem(s)" in line for line in lines):
        problems.append("compare.py did not reach its summary line")
    mismatched = {
        tuple(line.split()[:2]): line for line in lines if "count mismatch:" in line
    }
    allowed = moved_by_trailers(sys.argv[2])
    for key in sorted(mismatched.keys() - allowed):
        problems.append(
            f"no `{TRAILER}: {' '.join(key)}` trailer for: {mismatched[key]}"
        )
    for key in sorted(allowed - mismatched.keys()):
        problems.append(
            f"trailer `{TRAILER}: {' '.join(key)}` names a count that did not move"
        )
    for problem in problems:
        print(problem)
    if not problems:
        print(f"counts: {len(mismatched)} moved, each named by a trailer")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
