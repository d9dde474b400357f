#!/usr/bin/env python3
"""Profile one macrobench workload in process, generated kernels included.

The macrobench tracer attributes a commit's time to layers and stops at
the kernel boundary: everything inside a generated function is one
``codegen.kernel_us`` number.  This tool runs the same transactions
under ``cProfile`` instead, where a generated kernel is a frame like any
other (``<codegen:cat_price:aggregate>:…(fold_kernel)``), and prints the
functions sorted by self time.  The workload — base rows, views,
operation stream — comes from the benchmark's own generator and harness,
imported read-only the way ``tests/test_patch_points.py`` reads them;
``oltp_served`` is its stream run in process (no server, no WAL).

``cProfile`` charges every Python call and nothing inside C code, so the
shares it prints overstate call-heavy code.  Use it to find a candidate;
measure the change with ``macrobench/run.py``.

Usage (from the repository root)::

    python tools/profile_workload.py oltp_inproc --txns 5000
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
TOP = 30  # rows of the table printed


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "macrobench")]
    import config
    from gen import Stream
    from harness import InProcHost, Phase

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(config.WORKLOADS))
    parser.add_argument("--txns", type=int, default=5000,
                        help="write transactions to profile (default 5000)")
    args = parser.parse_args()

    workload = config.WORKLOADS[args.workload]
    stream = Stream(workload, SEED)
    host = InProcHost(workload, stream, None)
    host.setup(1)
    # As run.py does: one operation of every class first, so that no
    # kernel is compiled inside the profile.
    host.run_chunk(stream.warmup() + stream.take(workload.chunk_ops), Phase(), 0)
    ops = stream.take_txns(args.txns)
    phase = Phase()
    profiler = cProfile.Profile()
    profiler.enable()
    host.run_chunk(ops, phase, 0)
    profiler.disable()
    host.verify()

    print(
        f"{workload.name}: {phase.txns} transactions, "
        f"{len(ops) - phase.txns} reads, seed {SEED}"
    )
    pstats.Stats(profiler).strip_dirs().sort_stats("tottime").print_stats(TOP)
    return 0


if __name__ == "__main__":
    sys.exit(main())
