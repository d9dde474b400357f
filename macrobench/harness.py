"""Hosts, the closed-loop load generator, and the correctness gate.

A *host* is where the database lives: ``InProcHost`` builds a ``Database``
and ``ViewMaintainer`` in this process; ``ServedHost`` prepares a durability
directory, spawns ``serve_entry.py`` on it and talks to it over TCP with one
writer connection and one subscriber connection.  Both expose the same four
steps — ``setup``, ``run_chunk``, ``recording``, ``verify`` —
so ``run_workload`` drives every workload with one loop.

All load is closed loop: the single writer issues its next operation only
after the previous one returned (in process) or was acknowledged (served).
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable, Iterator

import catalog
import config
from gen import Stream
from hostspeed import HostSpeed, SetupClock
from tracer import Tracer, install_core

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(HERE, "_work")


class CheckFailed(Exception):
    """A correctness check of the gate did not hold."""


def pin_to_last_cpu() -> str:
    """Confine this process, and the children it spawns, to one CPU.

    The last CPU the process may run on: interrupts and other tenants
    favour the first.  Left to itself the scheduler of a small VM keeps
    writer, subscriber and server on CPU 0 with everything else on the
    machine; spreading them over two CPUs is faster while the machine is
    quiet but several times noisier whenever CPU 0 is busy, and a closed
    loop with one writer has nothing to run in parallel anyway.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[-1]})
    return f"benchmark and database host on cpu {cpus[-1]} of {len(cpus)}"


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

class Phase:
    """Latency samples and per-segment throughput of one timed phase.

    A phase is a run of *slices* — one ``run_chunk`` call each, a few
    milliseconds when the host's speed is being probed — and
    ``slices_per_segment`` consecutive slices form a *segment*, the unit
    throughput is taken over.  Samples are kept as measured.  ``host`` holds
    one factor per slice — how much slower than reference speed the host ran
    it (``hostspeed.py``) — and ``percentile_us`` / ``rates`` report times at
    reference host speed.  Without factors (warm-up, traced run) they report
    the raw values.
    """

    KINDS = ("commit", "feed", "query")
    #: Samples a group holds before a percentile is taken of it.
    GROUP_SAMPLES = 100

    def __init__(self) -> None:
        self.commit_ns: list[int] = []
        self.feed_ns: list[int] = []
        self.query_ns: list[int] = []
        #: (write transactions, elapsed ns) per slice.
        self.slices: list[tuple[int, int]] = []
        self.slices_per_segment = 1
        #: Per kind, the length of its sample list at the end of each slice.
        self.ends: dict[str, list[int]] = {kind: [] for kind in self.KINDS}
        self.host: list[float] = []
        self.attempted = 0
        self.failed = 0

    @property
    def txns(self) -> int:
        return sum(txns for txns, _ in self.slices)

    @property
    def wall_ns(self) -> int:
        return sum(ns for _, ns in self.slices)

    def end_slice(self, txns: int, elapsed_ns: int, kinds: tuple[str, ...] = KINDS) -> None:
        self.slices.append((txns, elapsed_ns))
        for kind in kinds:
            self.ends[kind].append(len(getattr(self, kind + "_ns")))

    def _factors(self) -> list[float]:
        return self.host or [1.0] * len(self.slices)

    def percentile_us(self, kind: str, q: float) -> float:
        """The ``q`` quantile of ``kind``'s latencies, in microseconds.

        Taken within each group of ``GROUP_SAMPLES`` consecutive samples
        (whole slices, so a little more; a last, smaller group is left
        out), then the median over the groups: a disturbance that the host
        factor misses moves the groups it falls in, and the median ignores
        them while they are the fewer.
        """
        samples = getattr(self, kind + "_ns")
        groups: list[float] = []
        group: list[float] = []
        start = 0
        for end, factor in zip(self.ends[kind], self._factors()):
            group.extend(value / factor for value in samples[start:end])
            start = end
            if len(group) >= self.GROUP_SAMPLES:
                groups.append(quantile(group, q))
                group = []
        if not groups:  # a run too short to fill one group
            if not group:
                return 0.0
            groups.append(quantile(group, q))
        return statistics.median(groups) / 1000.0

    def rates(self) -> list[float]:
        """Committed write txns per second, segment by segment."""
        per = self.slices_per_segment
        scaled = [(txns, ns / factor) for (txns, ns), factor in zip(self.slices, self._factors())]
        return [
            sum(txns for txns, _ in scaled[i:i + per]) * 1e9
            / sum(ns for _, ns in scaled[i:i + per])
            for i in range(0, len(scaled), per)
        ]

    @property
    def segments(self) -> int:
        return -(-len(self.slices) // self.slices_per_segment)

    def throughput(self) -> float:
        """Median over segments of committed write txns per second."""
        return statistics.median(self.rates())

    def segment_spread(self) -> float:
        """IQR of segment throughput over its median: the run's own noise."""
        rates = self.rates()
        if len(rates) < 4:
            return 0.0
        q1, _, q3 = statistics.quantiles(rates, n=4)
        return (q3 - q1) / statistics.median(rates)


def quantile(samples: list, q: float):
    """The ``q`` quantile of a non-empty list."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(phase: Phase, setups: list[float], rss_mb: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "commit_txn_per_s": phase.throughput(),
        "commit_p50_us": phase.percentile_us("commit", 0.50),
        "commit_p90_us": phase.percentile_us("commit", 0.90),
        "feed_p50_us": phase.percentile_us("feed", 0.50),
        "feed_p90_us": phase.percentile_us("feed", 0.90),
        "query_p50_us": phase.percentile_us("query", 0.50),
        "peak_rss_mb": rss_mb,
    }


def diagnostics(phase: Phase) -> dict[str, float]:
    return {
        "loadgen.commit_p99_us": quantile(phase.commit_ns or [0], 0.99) / 1000.0,
        "loadgen.feed_p99_us": quantile(phase.feed_ns or [0], 0.99) / 1000.0,
        "loadgen.segment_spread": phase.segment_spread(),
        "loadgen.commit_samples": len(phase.commit_ns),
        "loadgen.feed_samples": len(phase.feed_ns),
        "loadgen.query_samples": len(phase.query_ns),
    }


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def call(action: Callable[[], Any]) -> Any:
    return action()


#: Runs one step of a set-up: ``call``, or a ``SetupClock``'s ``step``.
Step = Callable[[Callable[[], Any]], Any]


def build_database(
    rows: dict[str, list], schemas: dict[str, tuple[str, ...]], step: Step = call
):
    """A fresh ``Database`` holding ``rows`` (keys declared, no views)."""
    from repro import Database

    database = Database()
    for name, attributes in schemas.items():
        step(lambda: database.create_relation(name, list(attributes), rows[name]))
    for name, key in catalog.KEYS.items():
        step(lambda: database.declare_key(name, list(key)))
    return database


def define_views(database, specs: dict[str, str], step: Step = call):
    from repro import ViewMaintainer
    from repro.cli import parse_view_expression

    maintainer = step(lambda: ViewMaintainer(database))
    for name, spec in specs.items():
        step(lambda: maintainer.define_view(name, parse_view_expression(spec)))
    return maintainer


def decoded_rows(relation) -> Counter:
    """Relation contents as a bag of decoded rows."""
    decode = relation.schema.decode_values
    return Counter({tuple(decode(values)): count for values, count in relation.items()})


def check_base(database, stream: Stream, where: str) -> None:
    """The database's base relations equal the generator's model."""
    for name, rows in stream.base_rows().items():
        have = decoded_rows(database.relation(name))
        if have != Counter(rows):
            raise CheckFailed(
                f"{where}: base relation {name!r} differs from the generated "
                f"stream's model ({len(have)} rows against {len(rows)})"
            )


def maintainer_counts(all_stats: dict[str, dict[str, int]]) -> Counter:
    total: Counter = Counter()
    for stats in all_stats.values():
        total.update(stats)
    return total


# ----------------------------------------------------------------------
# In-process host
# ----------------------------------------------------------------------

class InProcHost:
    """``Database`` + ``ViewMaintainer`` in this process; no WAL, no wire."""

    flush_policy = "none (no WAL)"
    clients = "1 writer (function calls)"

    def __init__(self, workload: config.Workload, stream: Stream, tracer: Tracer | None):
        self.workload = workload
        self.stream = stream
        self.tracer = tracer
        self.specs = catalog.view_specs(workload)
        self.database = None
        self.maintainer = None
        self._last_event_ns = 0
        if tracer is not None:
            install_core(tracer)
            self._read = tracer.wrap("read_view", self._read)

    def setup(self, repeats: int, meter: HostSpeed | None = None) -> list[float]:
        """Build the database and define every view, ``repeats`` times."""
        rows, schemas = self.stream.base_rows(), self.stream.schemas()
        times: list[float] = []
        # A cheap set-up is repeated up to three times as often, within two
        # seconds, for a steadier median.
        most = 3 * repeats if repeats > 1 else 1
        while len(times) < repeats or (len(times) < most and sum(times) < 2.0):
            self.database = self.maintainer = None
            gc.collect()
            clock = SetupClock(meter)
            self.database = build_database(rows, schemas, clock.step)
            self.maintainer = define_views(self.database, self.specs, clock.step)
            for name in self.specs:
                clock.step(lambda: self.maintainer.subscribe(name, self._on_delta))
            times.append(clock.seconds())
        return times

    def _on_delta(self, view, delta) -> None:
        self._last_event_ns = perf_counter_ns()

    def _read(self) -> list:
        contents = self.maintainer.view(catalog.READ_TARGET).contents
        decode = contents.schema.decode_values
        return [(decode(values), count) for values, count in sorted(contents.items())]

    def run_chunk(self, ops: list, phase: Phase, first_txn: int) -> None:
        apply, read, now = self.database.apply, self._read, perf_counter_ns
        commit_ns, feed_ns, query_ns = phase.commit_ns, phase.feed_ns, phase.query_ns
        tracer = self.tracer
        txns = 0
        begun = now()
        for op in ops:
            if op[0] == "read":
                t0 = now()
                read()
                query_ns.append(now() - t0)
            else:
                if tracer is not None:
                    tracer.txn = first_txn + txns
                self._last_event_ns = 0
                t0 = now()
                apply(op[2], op[1])
                t1 = now()
                commit_ns.append(t1 - t0)
                if self._last_event_ns:
                    feed_ns.append(self._last_event_ns - t0)
                txns += 1
        phase.end_slice(txns, now() - begun)
        phase.attempted += len(ops)

    # -- traced phase ---------------------------------------------------
    @contextlib.contextmanager
    def recording(self) -> Iterator[dict[str, Any]]:
        """Record spans and counters; the yielded dict is filled on exit."""
        from repro.instrumentation import CostRecorder, recording

        capture: dict[str, Any] = {}
        maintainer = maintainer_counts(self.maintainer.all_stats())
        codegen = Counter(self.maintainer.codegen_stats().as_dict())
        recorder = CostRecorder()
        self.tracer.reset()
        self.tracer.enabled = True
        try:
            with recording(recorder):
                yield capture
        finally:
            self.tracer.enabled = False
        capture["counters"] = Counter(recorder.snapshot())
        capture["maintainer"] = maintainer_counts(self.maintainer.all_stats()) - maintainer
        capture["codegen"] = Counter(self.maintainer.codegen_stats().as_dict()) - codegen
        capture["report"] = self.tracer.report()

    def end_phase(self, phase: Phase) -> None:
        """Nothing to drain: subscribers run inside the commit."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def verify(self) -> None:
        reports = self.maintainer.verify_all(raise_on_mismatch=False)
        bad = [r.summary() for r in reports.values() if not r.is_consistent()]
        if bad:
            raise CheckFailed("views differ from a full recompute: " + "; ".join(bad))
        check_base(self.database, self.stream, "in process")

    def close(self) -> None:
        self.database = self.maintainer = None


# ----------------------------------------------------------------------
# Served host
# ----------------------------------------------------------------------

class Subscriber(threading.Thread):
    """The subscriber connection: one changefeed per view, read until EOF."""

    def __init__(self, port: int, views: list[str]) -> None:
        super().__init__(name="macrobench-subscriber", daemon=True)
        from repro.server import protocol

        self._protocol = protocol
        self._socket = socket.create_connection(("127.0.0.1", port), timeout=30)
        self._stream = self._socket.makefile("rb")
        #: seq -> receipt time of the last event carrying it.
        self.received_ns: dict[int, int] = {}
        self.events: list[tuple[str, int, dict]] = []
        self.error: BaseException | None = None
        self._closing = False
        for request_id, view in enumerate(views, start=1):
            self._socket.sendall(
                protocol.encode_frame({"id": request_id, "op": "subscribe", "view": view})
            )
            reply = self._read()
            if not reply or not reply.get("ok"):
                raise CheckFailed(f"subscribe to {view!r} failed: {reply!r}")
        self._socket.settimeout(None)

    def _read(self) -> dict | None:
        return self._protocol.read_frame_blocking(
            self._stream, self._protocol.DEFAULT_MAX_FRAME_BYTES
        )

    def run(self) -> None:
        received, events, now = self.received_ns, self.events, perf_counter_ns
        try:
            while True:
                frame = self._read()
                if frame is None:
                    return
                at = now()
                seq = frame["seq"]
                received[seq] = at
                events.append((frame["view"], seq, frame["delta"]))
        except (OSError, ValueError) as exc:  # shutdown() while blocked in recv
            if not self._closing:
                self.error = exc

    def stop(self) -> None:
        self._closing = True
        with contextlib.suppress(OSError):  # already disconnected
            self._socket.shutdown(socket.SHUT_RDWR)
        self.join(10)
        self._stream.close()
        self._socket.close()


class ServedHost:
    """A child ``serve`` process on a checkpoint + WAL directory."""

    flush_policy = f'sync="{config.FLUSH_POLICY}" (fsync per commit)'
    clients = "1 writer connection + 1 subscriber connection"

    def __init__(self, workload: config.Workload, stream: Stream, trace: bool,
                 spans_path: str | None = None):
        self.workload = workload
        self.stream = stream
        self.trace = trace
        self.spans_path = spans_path
        self.specs = catalog.view_specs(workload)
        self.work = os.path.join(WORK_ROOT, f"{workload.name}-{os.getpid()}")
        self.child: subprocess.Popen | None = None
        self.client = None
        self.subscriber: Subscriber | None = None
        self.initial: dict[str, Counter] = {}
        self._sent: list[tuple[int, int]] = []  # (seq, send time) of this phase
        self.last_acked_seq = 0

    # -- set-up ---------------------------------------------------------
    def _prepare(self) -> str:
        """Input generation: a checkpoint plus a WAL tail, written in process."""
        from repro import DurabilityManager

        shutil.rmtree(self.work, ignore_errors=True)
        seed_dir = os.path.join(self.work, "seed")
        os.makedirs(seed_dir)
        database = build_database(self.stream.base_rows(), self.stream.schemas())
        maintainer = define_views(database, self.specs)
        with DurabilityManager(database, seed_dir, sync=config.FLUSH_POLICY) as durability:
            durability.checkpoint(maintainer)
            for op in self.stream.take_txns(self.workload.wal_tail):
                if op[0] == "txn":
                    database.apply(op[2], op[1])
        return seed_dir

    def _spawn(self, directory: str) -> None:
        """Start the child on ``directory``; returns at its "serving" line."""
        self.report_path = os.path.join(directory, "macrobench_report.json")
        command = [
            sys.executable, os.path.join(HERE, "serve_entry.py"), directory,
            "--trace", str(int(self.trace)), "--report", self.report_path,
        ]
        if self.spans_path:
            command += ["--spans", self.spans_path]
        for name, spec in self.specs.items():
            command += ["--view", f"{name}={spec}"]
        self.child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        line = self.child.stdout.readline()
        if not line.startswith("serving "):
            raise CheckFailed(f"serve child did not come up: {line!r}")
        self.port = int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
        self.directory = directory

    def _stop_child(self) -> None:
        child, self.child = self.child, None
        if child is None:
            return
        if child.poll() is None:
            child.send_signal(signal.SIGINT)  # run_serve drains and closes the WAL
            try:
                child.wait(30)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        child.stdout.close()

    def setup(self, repeats: int, meter: HostSpeed | None = None) -> list[float]:
        """Spawn → "serving" line (checkpoint load + WAL replay), ``repeats`` times."""
        from repro.server.client import ViewClient

        seed_dir = self._prepare()
        times = []
        for i in range(repeats):
            self._stop_child()
            directory = os.path.join(self.work, f"run{i}")
            shutil.copytree(seed_dir, directory)
            clock = SetupClock(meter)
            clock.step(lambda: self._spawn(directory))
            times.append(clock.seconds())
        self.client = ViewClient(port=self.port, timeout=60)
        self.subscriber = Subscriber(self.port, list(self.specs))
        # Nothing is written between the subscriptions and these reads, so
        # initial contents + every later event must equal the final contents.
        self.initial = {name: self._query_bag(name) for name in self.specs}
        self.subscriber.start()
        return times

    def _query_bag(self, target: str) -> Counter:
        result = self.client.query(target)
        return Counter(
            {tuple(row): count for row, count in zip(result["rows"], result["counts"])}
        )

    # -- load -----------------------------------------------------------
    def run_chunk(self, ops: list, phase: Phase, first_txn: int) -> None:
        from repro.server.protocol import ServerError

        txn, query, now = self.client.txn, self.client.query, perf_counter_ns
        commit_ns, query_ns, sent = phase.commit_ns, phase.query_ns, self._sent
        txns = 0
        begun = now()
        for op in ops:
            try:
                if op[0] == "read":
                    t0 = now()
                    query(catalog.READ_TARGET)
                    query_ns.append(now() - t0)
                else:
                    t0 = now()
                    result = txn(op[2], op[1])
                    commit_ns.append(now() - t0)
                    sent.append((result["seq"], t0))
                    txns += 1
            except ServerError:
                phase.failed += 1
        phase.end_slice(txns, now() - begun, ("commit", "query"))
        phase.attempted += len(ops)

    def end_phase(self, phase: Phase) -> None:
        """Wait for the changefeed to drain, then pair sends with receipts."""
        sent, self._sent = self._sent, []
        if sent:
            self.last_acked_seq = sent[-1][0]
        self._await_events()
        received = self.subscriber.received_ns
        # ``sent`` runs parallel to ``phase.commit_ns``, so a transaction's
        # feed sample belongs to the slice its commit sample is in.
        start = 0
        for end in phase.ends["commit"]:
            for seq, t0 in sent[start:end]:
                at = received.get(seq)
                if at is not None:
                    phase.feed_ns.append(at - t0)
            phase.ends["feed"].append(len(phase.feed_ns))
            start = end

    def _await_events(self) -> None:
        """Every event the server sent has arrived (else the gate fails)."""
        deadline = time.monotonic() + 10
        while True:
            sent = self.client.stats()["counters"].get("server_events_sent", 0)
            if sent == len(self.subscriber.events):
                return
            if time.monotonic() > deadline or not self.subscriber.is_alive():
                raise CheckFailed(
                    f"subscriber holds {len(self.subscriber.events)} events, "
                    f"the server sent {sent}"
                )
            time.sleep(0.01)

    # -- traced phase ---------------------------------------------------
    def _signal_child(self, signum: int) -> None:
        self.child.send_signal(signum)
        time.sleep(0.1)  # the handler runs on the child's next loop iteration

    @contextlib.contextmanager
    def recording(self) -> Iterator[dict[str, Any]]:
        """Have the child record spans; the yielded dict is filled on exit.

        Counters are differences of the server's ``stats`` op, which is
        called outside the recorded interval.  The span report itself is
        written by the child when it stops (``child_report``).
        """
        capture: dict[str, Any] = {}
        first = self.client.stats()
        self._signal_child(signal.SIGUSR1)
        try:
            yield capture
        finally:
            self._signal_child(signal.SIGUSR2)
        last = self.client.stats()

        def maintenance(stats: dict) -> Counter:
            return maintainer_counts({n: v["maintenance"] for n, v in stats["views"].items()})

        capture["counters"] = Counter(last["counters"]) - Counter(first["counters"])
        capture["maintainer"] = maintenance(last) - maintenance(first)
        capture["codegen"] = Counter(last["codegen"]) - Counter(first["codegen"])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.child.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise CheckFailed("child has no VmHWM line in /proc")

    # -- correctness gate -----------------------------------------------
    def verify(self) -> None:
        # 1. Subscriber: sequences never go back, and initial contents plus
        #    every event reproduce what the server now answers.
        subscriber = self.subscriber
        if subscriber.error is not None:
            raise CheckFailed(f"subscriber connection failed: {subscriber.error!r}")
        replicas = {name: Counter(bag) for name, bag in self.initial.items()}
        last = 0
        for view, seq, delta in subscriber.events:
            if seq < last:
                raise CheckFailed(f"event sequence went back from {last} to {seq}")
            last = seq
            replica = replicas[view]
            replica.update(tuple(row) for row in delta["inserted"])
            replica.subtract(tuple(row) for row in delta["deleted"])
        served = {name: self._query_bag(name) for name in self.specs}
        for name, replica in replicas.items():
            if +replica != served[name] or any(c < 0 for c in replica.values()):
                raise CheckFailed(f"changefeed replica of {name!r} differs from the view")
        # 2. Every served view equals a full recompute from the final base
        #    relations (the generator's model, checked against the WAL below).
        truth = define_views(
            build_database(self.stream.base_rows(), self.stream.schemas()), self.specs
        )
        for name in self.specs:
            if decoded_rows(truth.view(name).contents) != served[name]:
                raise CheckFailed(f"served view {name!r} differs from a full recompute")
        # 3. After a graceful stop a fresh Recovery reaches the last acked seq
        #    and the base state the stream's model predicts.
        self._close_connections()
        self._stop_child()
        from repro.replication.recovery import Recovery

        recovery = Recovery(self.directory)
        recovery.replay()
        if recovery.last_sequence != self.last_acked_seq:
            raise CheckFailed(
                f"recovery reached seq {recovery.last_sequence}, last acked "
                f"was {self.last_acked_seq}"
            )
        check_base(recovery.database, self.stream, "after recovery")

    def child_report(self) -> dict[str, Any]:
        """The stopped child's span reports (``setup`` and ``run``)."""
        with open(self.report_path, encoding="utf-8") as stream:
            return json.load(stream)

    def _close_connections(self) -> None:
        if self.subscriber is not None:
            self.subscriber.stop()
            self.subscriber = None
        if self.client is not None:
            self.client.close()
            self.client = None

    def close(self) -> None:
        try:
            self._close_connections()
        finally:
            if self.child is not None and self.child.poll() is None:
                self.child.kill()  # only on an error path; verify() stops it gracefully
            self._stop_child()
            shutil.rmtree(self.work, ignore_errors=True)
            with contextlib.suppress(OSError):  # other runs may share the root
                os.rmdir(WORK_ROOT)
