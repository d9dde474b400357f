#!/usr/bin/env python3
"""Profile one macrobench workload, generated kernels included.

The macrobench tracer attributes a commit's time to layers and stops at
the kernel boundary: everything inside a generated function is one
``codegen.kernel_us`` number.  This tool runs the same transactions
under ``cProfile`` instead, where a generated kernel is a frame like any
other (``<codegen:cat_price:aggregate>:…(fold_kernel)``), and prints the
function calls made per transaction (Python and built-in, the stream's
reads included — a count that repeats exactly for a fixed ``--txns`` and
seed) and then the functions sorted by self time.  In process it also
prints the bytes retained per transaction, taken with ``tracemalloc``
over a second, unprofiled pass of as many transactions of the same
stream, so the call counts are not moved by it.  The workload — base
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
transaction at the default ``--txns``.

``--setup`` profiles the set-up instead of the stream, that is, what
``setup_s`` times.  In process that is the harness's own
``build_database`` and ``define_views``, and the tool prints the
function calls per base tuple.  On a served workload it is the child's
restart: ``cli.build_served_state`` (checkpoint load, view restore, WAL
replay and the WAL writer's open, as ``serve`` runs them), run on a
directory made by the harness's own ``ServedHost._prepare``, and the
tool prints the function calls per WAL record replayed, the WAL records
decoded against the tail's length (one scan decodes each once) and,
since loading the checkpoint is a share of the calls too, the calls per
checkpointed tuple (base rows plus the views' stored rows).  The counts
are exact for a fixed workload and seed, like the per-transaction
count.  Both set-ups then print the kernel modules
``repro.core.codegen`` compiled and how many distinct programs (sources
without their comments) those were; an in-process stream run prints the
trigger programs the maintainer built (one per set of changed relations
the stream committed) and how many distinct programs those were, and
beside them the screen passes run per transaction: ``screen_kernel``
calls, one per distinct screen program or fused pass per source delta,
and the row traversals: ``row_kernel`` calls, one per view that
survived its screens, or one per group of views sharing a traversal.
Last it prints the calls per transaction made outside the trigger
program (the engine's and the maintainer's glue, the harness and the
reads), counted with ``sys.setprofile`` over a third pass of ``--txns``
more transactions: a clock-free number for the glue alone.  Over the
same pass it prints the base rows committed per transaction (the rows
of the base deltas a commit applies) and those calls per base row, so
that a per-row cost shows apart from a per-commit one.

``cProfile`` charges every Python call and nothing inside C code, so the
shares it prints overstate call-heavy code.  Use it to find a candidate;
measure the change with ``macrobench/run.py``.

Usage (from the repository root)::

    python tools/profile_workload.py oltp_inproc --txns 5000
    python tools/profile_workload.py oltp_served --served
    python tools/profile_workload.py oltp_inproc --setup
    python tools/profile_workload.py oltp_served --setup
    python tools/profile_workload.py catalog_wide --setup
    python tools/profile_workload.py catalog_wide --txns 200
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import json
import os
import pstats
import sys
import tempfile
import tracemalloc
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
    with trigger_sources() as triggers:
        host.setup(1)
        # As run.py does: one operation of every class first, so that no
        # kernel or trigger is compiled inside the profile.
        host.run_chunk(stream.warmup() + stream.take(workload.chunk_ops), Phase(), 0)
    ops = stream.take_txns(txns)
    phase = Phase()
    seen = host.maintainer.totals.get("transactions_seen")
    profiler = cProfile.Profile()
    profiler.enable()
    host.run_chunk(ops, phase, 0)
    profiler.disable()
    maintained = host.maintainer.totals.get("transactions_seen") - seen
    retained, retained_txns = bytes_retained(host, stream.take_txns(txns))
    outside, outside_txns, base_rows = calls_outside_trigger(host, stream.take_txns(txns))
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
    print(
        f"bytes retained per transaction: {retained / max(retained_txns, 1):.1f}   "
        f"({retained} B over {retained_txns} more transactions)"
    )
    print_compiles(triggers, "trigger programs built")
    # One call per distinct screen program, or fused pass, per source delta.
    passes = sum(row[1] for key, row in stats.stats.items() if key[2] == "screen_kernel")
    print(f"screen passes per transaction:  {passes / phase.txns:.2f}   ({passes} screen kernel calls)")
    # One call per traversal: views sharing one run one row kernel.
    traversals = sum(row[1] for key, row in stats.stats.items() if key[2] == "row_kernel")
    print(f"row traversals per transaction: {traversals / phase.txns:.2f}   ({traversals} row kernel calls)")
    print(
        f"calls per transaction outside the trigger: {outside / max(outside_txns, 1):.1f}   "
        f"({outside} calls over {outside_txns} more transactions)"
    )
    print(
        f"base rows committed per transaction: {base_rows / max(outside_txns, 1):.1f}   "
        f"({base_rows} rows)"
    )
    print(f"calls per base row outside the trigger: {outside / max(base_rows, 1):.1f}")
    return stats


def bytes_retained(host, ops) -> tuple[int, int]:
    """Heap growth over one more, unprofiled pass of the stream.

    Taken with ``tracemalloc`` around ``ops`` after a full collection on
    both sides, leaving out what the harness itself keeps (its latency
    samples).  What remains is what the system holds on to: the rows the
    stream added, and anything kept per commit.  Returns ``(bytes,
    transactions)``.
    """
    from harness import Phase

    outside = [tracemalloc.Filter(False, str(ROOT / "macrobench" / "*"))]
    phase = Phase()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(outside)
        host.run_chunk(ops, phase, 0)
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(outside)
    finally:
        tracemalloc.stop()
    grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    return grown, phase.txns


def calls_outside_trigger(host, ops) -> tuple[int, int, int]:
    """Calls made outside the trigger program, over one more pass of the
    stream: the engine's and the maintainer's glue around it, plus the
    harness and the stream's reads, as in the profiled count.

    A ``sys.setprofile`` hook counts every Python and built-in call and
    how deep it is inside trigger frames, which run under the bare
    ``<codegen>`` file name (kernels are renamed ``<codegen:view:kind>``);
    a call at depth 0 counts (the trigger's own call among them), and
    everything the trigger runs does not.  The same hook counts the
    rows of each base delta a commit applies (an ``apply_counts`` call
    with ``base`` set).  Exact for a fixed ``--txns`` and seed, with
    ``gc`` off so no finalizer runs inside.  Returns ``(calls,
    transactions, base rows)``.
    """
    from harness import Phase

    from repro.algebra.relation import apply_counts

    trigger = "<codegen>"
    applying = apply_counts.__code__
    counts = {"calls": 0, "depth": 0, "rows": 0}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            inside = code.co_filename == trigger
            counts["calls"] += not counts["depth"]
            counts["depth"] += inside
            if code is applying and frame.f_locals["base"]:
                arguments = frame.f_locals
                counts["rows"] += len(arguments["inserted"]) + len(arguments["deleted"])
        elif event == "return":
            counts["depth"] -= frame.f_code.co_filename == trigger
        elif event == "c_call":
            counts["calls"] += not counts["depth"]

    phase = Phase()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        host.run_chunk(ops, phase, 0)
    finally:
        sys.setprofile(None)
        gc.enable()
    return counts["calls"], phase.txns, counts["rows"]


@contextlib.contextmanager
def kernel_compiles():
    """Collect the source of every module ``repro.core.codegen`` compiles.

    The compiled-program cache starts empty, as in a fresh process: a
    served set-up's directory was prepared by defining the same views
    here first.
    """
    from repro.core import codegen

    codegen._program.cache_clear()
    sources: list[str] = []

    def counted(source, filename, mode):
        sources.append(source)
        return compile(source, filename, mode)

    with mock.patch.object(codegen, "compile", counted, create=True):
        yield sources


@contextlib.contextmanager
def trigger_sources():
    """Collect the source of every trigger program the maintainer builds
    (one per set of changed relations, or refreshed backlog)."""
    from repro.core import codegen

    sources: list[str] = []
    generate = codegen.generate_trigger_source

    def kept(*args):
        source, bound = generate(*args)
        sources.append(source)
        return source, bound

    with mock.patch.object(codegen, "generate_trigger_source", kept):
        yield sources


def print_compiles(sources: list[str], what: str = "kernel modules compiled") -> None:
    from repro.core.codegen import program_key

    distinct = len(set(map(program_key, sources)))
    print(f"{what}: {len(sources)} (distinct sources: {distinct})")


def profile_setup(workload, stream, txns: int):
    import catalog
    from harness import build_database, define_views

    rows, schemas = stream.base_rows(), stream.schemas()
    specs = catalog.view_specs(workload)
    profiler = cProfile.Profile()
    with kernel_compiles() as sources:
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
    print_compiles(sources)
    return stats


def profile_served_setup(workload, stream, txns: int):
    from harness import ServedHost

    from repro.cli import build_served_state

    host = ServedHost(workload, stream, False)
    try:
        directory = host._prepare()
        base_rows, view_rows = checkpointed_tuples(directory)
        options = [f"{name}={spec}" for name, spec in host.specs.items()]
        profiler = cProfile.Profile()
        with kernel_compiles() as sources:
            profiler.enable()
            _, maintainer, replayed, durability = build_served_state(
                directory, options
            )
            profiler.disable()
        durability.close()
        maintainer.verify_all()
    finally:
        host.close()
    stats = pstats.Stats(profiler)
    print(
        f"{workload.name} set-up (recovery + WAL open): {replayed} WAL records "
        f"on the checkpoint, {len(options)} views, seed {SEED}"
    )
    calls = stats.total_calls
    print(f"function calls per WAL record: {calls / max(replayed, 1):.1f}   ({calls} calls)")
    decoded = sum(
        entry[1]
        for (filename, _, function), entry in stats.stats.items()  # type: ignore[attr-defined]
        if function == "decode_line" and filename.endswith("wal.py")
    )
    print(f"WAL records decoded per restart: {decoded}   (tail: {replayed} records)")
    tuples = base_rows + view_rows
    print(
        f"function calls per checkpointed tuple: {calls / max(tuples, 1):.1f}   "
        f"({base_rows} base rows + {view_rows} view rows)"
    )
    print_compiles(sources)
    return stats


def checkpointed_tuples(directory: str) -> tuple[int, int]:
    """Rows the newest checkpoint in ``directory`` holds: base rows, and
    the rows of the views' stored contents."""
    from repro.replication.checkpoints import latest_checkpoint_path

    with open(latest_checkpoint_path(directory), encoding="utf-8") as stream:
        doc = json.load(stream)
    base = sum(len(rel["rows"]) for rel in doc["database"]["relations"].values())
    views = sum(len(view["relation"]["rows"]) for view in doc["views"].values())
    return base, views


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
                      help="profile the set-up, not the stream: building the database and "
                           "defining the views, or, on a served workload, the child's recovery")
    args = parser.parse_args()

    workload = config.WORKLOADS[args.workload]
    if args.served and not workload.served:
        parser.error(f"{workload.name} has no serve child; --served needs a served workload")
    stream = Stream(workload, SEED)
    if args.setup:
        profile = profile_served_setup if workload.served else profile_setup
    else:
        profile = profile_served_child if args.served else profile_in_process
    profile(workload, stream, args.txns).strip_dirs().sort_stats("tottime").print_stats(TOP)
    return 0


if __name__ == "__main__":
    sys.exit(main())
