#!/usr/bin/env python3
"""Profile one macrobench workload, generated kernels included.

The macrobench tracer attributes a commit's time to layers and stops at
the kernel boundary: everything inside a generated function is one
``codegen.kernel_us`` number.  This tool runs the same transactions
under ``cProfile`` instead, where a generated kernel is a frame like any
other (``<codegen:cat_price:aggregate>:…(fold_kernel)``), and prints the
function calls made per transaction (Python and built-in, the stream's
reads included — a count that repeats exactly for a fixed ``--txns`` and
seed) and then the functions sorted by self time.  The workload — base
rows, views, operation stream — comes from the benchmark's own generator
and harness, imported read-only the way ``tests/test_patch_points.py``
reads them.

By default the stream is run *in process* (``oltp_served`` too: no
server, no WAL).  ``--served`` profiles the other side of the wire
instead: the benchmark's real ``serve_entry.py`` child — recovery, asyncio
loop, sessions, WAL, changefeed — runs under ``cProfile`` while this
process plays the benchmark's writer and subscriber, and the system
calls the served path is made of (``socket.send``, ``epoll.poll``,
``fsync``) and its JSON encodes are printed per committed transaction
ahead of the self-time table.  The counts cover the child's whole life
(set-up, warm-up, the stream's reads, the gate's queries), so a few
dozen system calls are not the transactions' — under 0.01 per
transaction at the default ``--txns`` — and neither are the set-up's
JSON encodes: every WAL record scanned is re-encoded to check its
checksum, once by recovery and once by the writer's open, which is
``2 * wal_tail`` encodes (4 000 for ``oltp_served``) before the first
request.

``--setup`` profiles the set-up instead of the stream: the harness's
own ``build_database`` and ``define_views``, which is what ``setup_s``
times, and prints the function calls per base tuple — exact for a fixed
workload and seed, like the per-transaction count.

``cProfile`` charges every Python call and nothing inside C code, so the
shares it prints overstate call-heavy code.  Use it to find a candidate;
measure the change with ``macrobench/run.py``.

Usage (from the repository root)::

    python tools/profile_workload.py oltp_inproc --txns 5000
    python tools/profile_workload.py oltp_served --served
    python tools/profile_workload.py oltp_inproc --setup
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
TOP = 30  # rows of the table printed

#: Label -> (file suffix, function name) as ``pstats`` keys them; a
#: built-in's "file" is ``~`` and its name is its repr.
PER_TXN_CALLS = {
    "socket.send": ("~", "<method 'send' of '_socket.socket' objects>"),
    "epoll.poll": ("~", "<method 'poll' of 'select.epoll' objects>"),
    "posix.fsync": ("~", "<built-in method posix.fsync>"),
    "json encodes": ("json/encoder.py", "encode"),
}


def profile_in_process(workload, stream, txns: int):
    from harness import InProcHost, Phase

    host = InProcHost(workload, stream, None)
    host.setup(1)
    # As run.py does: one operation of every class first, so that no
    # kernel is compiled inside the profile.
    host.run_chunk(stream.warmup() + stream.take(workload.chunk_ops), Phase(), 0)
    ops = stream.take_txns(txns)
    phase = Phase()
    seen = host.maintainer.totals.get("transactions_seen")
    profiler = cProfile.Profile()
    profiler.enable()
    host.run_chunk(ops, phase, 0)
    profiler.disable()
    maintained = host.maintainer.totals.get("transactions_seen") - seen
    host.verify()
    stats = pstats.Stats(profiler)
    print(
        f"{workload.name}: {phase.txns} transactions, "
        f"{len(ops) - phase.txns} reads, seed {SEED}"
    )
    # Exact for a fixed --txns and seed: counts, not timings.
    calls = stats.total_calls
    print(f"function calls per transaction: {calls / phase.txns:.1f}   ({calls} calls)")
    print(
        f"calls per maintained view:      {calls / max(maintained, 1):.1f}   "
        f"({maintained} view maintenances)"
    )
    return stats


def profile_setup(workload, stream, txns: int):
    import catalog
    from harness import build_database, define_views

    rows, schemas = stream.base_rows(), stream.schemas()
    specs = catalog.view_specs(workload)
    profiler = cProfile.Profile()
    profiler.enable()
    database = build_database(rows, schemas)
    maintainer = define_views(database, specs)
    profiler.disable()
    maintainer.verify_all()
    tuples = sum(map(len, rows.values()))
    stats = pstats.Stats(profiler)
    print(f"{workload.name} set-up: {tuples} base tuples, {len(specs)} views, seed {SEED}")
    calls = stats.total_calls
    print(f"function calls per base tuple: {calls / tuples:.1f}   ({calls} calls)")
    return stats


def profile_served_child(workload, stream, txns: int):
    import harness
    from harness import Phase, ServedHost

    with tempfile.TemporaryDirectory() as scratch:
        profile_path = os.path.join(scratch, "serve_child.prof")

        class ProfiledServedHost(ServedHost):
            """``ServedHost`` whose child runs under ``python -m cProfile``."""

            def _spawn(self, directory: str) -> None:
                popen = harness.subprocess.Popen

                def profiled(command, **kwargs):
                    python, *rest = command
                    return popen(
                        [python, "-m", "cProfile", "-o", profile_path, *rest], **kwargs
                    )

                with mock.patch.object(harness.subprocess, "Popen", profiled):
                    super()._spawn(directory)

        host = ProfiledServedHost(workload, stream, False)
        try:
            host.setup(1)
            warm, phase = Phase(), Phase()
            host.run_chunk(stream.warmup() + stream.take(workload.chunk_ops), warm, 0)
            host.end_phase(warm)
            ops = stream.take_txns(txns)
            host.run_chunk(ops, phase, warm.txns)
            host.end_phase(phase)
            host.verify()  # stops the child gracefully: the profile is written
        finally:
            host.close()
        stats = pstats.Stats(profile_path)
    committed = warm.txns + phase.txns
    print(
        f"{workload.name} (served child): {committed} transactions "
        f"({warm.txns} warm-up), {len(ops) - phase.txns} reads, "
        f"{phase.failed + warm.failed} failed, seed {SEED}"
    )
    print("calls per committed transaction, over the child's whole life:")
    for label, (suffix, name) in PER_TXN_CALLS.items():
        calls = sum(
            entry[1]
            for (filename, _, function), entry in stats.stats.items()  # type: ignore[attr-defined]
            if function == name and filename.endswith(suffix)
        )
        print(f"  {label:<14}{calls / committed:7.2f}   ({calls} calls)")
    return stats


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "macrobench")]
    import config
    from gen import Stream

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(config.WORKLOADS))
    parser.add_argument("--txns", type=int, default=5000,
                        help="write transactions to profile (default 5000)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--served", action="store_true",
                      help="profile the serve child of a served workload, not the stream in process")
    mode.add_argument("--setup", action="store_true",
                      help="profile building the database and defining the views, not the stream")
    args = parser.parse_args()

    workload = config.WORKLOADS[args.workload]
    if args.served and not workload.served:
        parser.error(f"{workload.name} has no serve child; --served needs a served workload")
    stream = Stream(workload, SEED)
    if args.setup:
        profile = profile_setup
    else:
        profile = profile_served_child if args.served else profile_in_process
    profile(workload, stream, args.txns).strip_dirs().sort_stats("tottime").print_stats(TOP)
    return 0


if __name__ == "__main__":
    sys.exit(main())
