"""Span tracing recorded from the benchmark's side of each layer boundary.

Nothing under ``src/`` knows about spans.  ``install_core`` and
``install_server`` replace the *public* entry points of each layer with
wrappers that record ``(name, start, end, parent, txn)`` into in-memory
columns; a boundary reachable only through a private name gets no span
and its time stays in its parent's self time.  The wrappers are installed
only for the traced run (end-to-end metrics are measured without them) and
record only while ``Tracer.enabled`` is set.

A span's self time is its duration minus the durations of its direct
children.  ``Tracer.report`` sums self time per span name, which
``layer_rows`` maps onto the per-layer metric names of ``config.PER_LAYER``.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter_ns
from typing import Any, Callable

#: Span name -> the per-layer self-time row it is charged to.
LAYER_OF: dict[str, str] = {
    "protocol.decode_payload": "server.decode_us",
    "protocol.encode_frame": "server.encode_us",
    "ViewServer.dispatch:txn": "server.dispatch_self_us",
    "ViewServer.dispatch:other": "server.dispatch_self_us",
    "ViewServer.dispatch:query": "server.query_us",
    "subscriber_callback": "server.feed_us",
    "Changefeed.append": "server.feed_us",
    "Session.send_frame@feed": "server.feed_us",
    # The response frame's enqueue (outside dispatch) is part of the wire:
    # outbox queue, writer task, socket.
    "Session.send_frame": "server.wire_us",
    "RefreshScheduler.tick": "scheduler.tick_us",
    "hook:DurabilityManager": "wal.append_self_us",
    "WalWriter.append": "wal.append_self_us",
    "WalIO.fsync": "wal.fsync_us",
    "Database.apply": "engine.txn_build_us",
    "Transaction.insert_many": "engine.txn_build_us",
    "Transaction.delete_many": "engine.txn_build_us",
    "Transaction.insert": "engine.txn_build_us",
    "Transaction.delete": "engine.txn_build_us",
    "Transaction.update": "engine.txn_build_us",
    "Transaction.net_deltas": "engine.net_effect_us",
    "Database.net_effect_violation": "engine.key_check_us",
    "Transaction.commit": "engine.commit_self_us",
    "hook:ViewMaintainer": "maintainer.dispatch_self_us",
    "CompiledViewPlan.screen": "screen.self_us",
    "CompiledViewPlan.compute_delta": "differential.self_us",
    "LazyOperandEntry.__getitem__": "differential.self_us",
    "CompiledViewPlan.fold_aggregate": "aggregates.fold_self_us",
    "kernel:screen_kernel": "codegen.kernel_us",
    "kernel:row_kernel": "codegen.kernel_us",
    "kernel:fold_kernel": "codegen.kernel_us",
    "MaterializedView.apply_delta": "views.apply_us",
    "read_view": "views.read_us",
}

#: Spans of the child's set-up, reported on their own (not per transaction).
SETUP_SPANS = ("Recovery.__init__", "Recovery.replay")

_FEED_ROOT = "subscriber_callback"


class Tracer:
    """In-memory span columns plus the wrappers that fill them."""

    def __init__(self) -> None:
        self.enabled = False
        #: Identifier shared by the spans of one operation.
        self.txn = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span."""
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.txn_of = array("i")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        stack = self._stack
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.txn_of.append(self.txn)
        self.end.append(0)
        stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span per call while the tracer is enabled."""
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return traced

    def wrap_method(self, cls: type, attr: str, name: str | None = None) -> None:
        setattr(cls, attr, self.wrap(name or f"{cls.__name__}.{attr}", getattr(cls, attr)))

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def report(self) -> dict[str, Any]:
        """Self time, total time and call count per span name.

        ``Session.send_frame`` is keyed ``...@feed`` when a subscriber
        callback is among its ancestors (changefeed fan-out) and plainly
        otherwise (the response frame).
        """
        n = len(self.start)
        names, parent = self.names, self.parent
        feed_id = self._name_ids.get(_FEED_ROOT, -1)
        send_id = self._name_ids.get("Session.send_frame", -1)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        children = [0] * n
        in_feed = [False] * n
        root_ns = 0
        for i in range(n):
            p = parent[i]
            if p < 0:
                root_ns += duration[i]
            else:
                children[p] += duration[i]
                in_feed[i] = in_feed[p]
            if self.name[i] == feed_id:
                in_feed[i] = True
        self_ns: dict[str, int] = {}
        total_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        for i in range(n):
            nid = self.name[i]
            key = names[nid]
            if nid == send_id and in_feed[i]:
                key += "@feed"
            self_ns[key] = self_ns.get(key, 0) + duration[i] - children[i]
            total_ns[key] = total_ns.get(key, 0) + duration[i]
            calls[key] = calls.get(key, 0) + 1
        return {
            "self_ns": self_ns,
            "total_ns": total_ns,
            "calls": calls,
            "root_ns": root_ns,
            "spans": n,
        }

    def dump(self, path: str) -> None:
        """Write every span as columns (name ids index into ``names``)."""
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "start_ns": self.start.tolist(),
                    "end_ns": self.end.tolist(),
                    "parent": self.parent.tolist(),
                    "txn": self.txn_of.tolist(),
                },
                stream,
            )


def layer_rows(report: dict[str, Any]) -> tuple[dict[str, int], int]:
    """Self time per layer row (ns), and the ns no row claimed."""
    rows: dict[str, int] = {}
    unmapped = 0
    for name, ns in report["self_ns"].items():
        row = LAYER_OF.get(name)
        if row is None:
            if name not in SETUP_SPANS:
                unmapped += ns
            continue
        rows[row] = rows.get(row, 0) + ns
    return rows, unmapped


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------

def install_core(tracer: Tracer) -> None:
    """Wrap the engine, maintainer, plan, kernel and view entry points."""
    from repro.core import codegen, compiled
    from repro.core.compiled import CompiledViewPlan
    from repro.core.differential import LazyOperandEntry
    from repro.core.views import MaterializedView
    from repro.engine.database import Database
    from repro.engine.transactions import Transaction

    for attr in (
        "insert_many", "delete_many", "insert", "delete", "update",
        "net_deltas", "commit",
    ):
        tracer.wrap_method(Transaction, attr)
    tracer.wrap_method(Database, "apply")
    tracer.wrap_method(Database, "net_effect_violation")
    for attr in ("screen", "compute_delta", "fold_aggregate"):
        tracer.wrap_method(CompiledViewPlan, attr)
    tracer.wrap_method(LazyOperandEntry, "__getitem__")
    tracer.wrap_method(MaterializedView, "apply_delta")

    compile_kernel = codegen.compile_kernel

    def traced_compile(source: str, name: str, filename: str) -> Callable:
        return tracer.wrap(f"kernel:{name}", compile_kernel(source, name, filename))

    # compiled.py imported the name, so both bindings are replaced.
    codegen.compile_kernel = traced_compile
    compiled.compile_kernel = traced_compile

    # Commit hooks (the maintainer's and the WAL's) are registered through
    # the public add_commit_hook, so that is where they get their spans.
    add_hook, remove_hook = Database.add_commit_hook, Database.remove_commit_hook
    traced_hooks: dict[Any, Callable] = {}

    def add_commit_hook(self: Database, hook: Callable) -> None:
        owner = getattr(hook, "__self__", None)
        label = f"hook:{type(owner).__name__}" if owner is not None else "hook:function"
        traced_hooks[hook] = tracer.wrap(label, hook)
        add_hook(self, traced_hooks[hook])

    def remove_commit_hook(self: Database, hook: Callable) -> None:
        remove_hook(self, traced_hooks.pop(hook, hook))

    Database.add_commit_hook = add_commit_hook  # type: ignore[method-assign]
    Database.remove_commit_hook = remove_commit_hook  # type: ignore[method-assign]


def install_server(tracer: Tracer) -> None:
    """Wrap the wire, server, changefeed, scheduler, WAL and recovery."""
    from repro.core.maintainer import ViewMaintainer
    from repro.replication.recovery import Recovery
    from repro.replication.wal import WalIO, WalWriter
    from repro.scheduler import RefreshScheduler
    from repro.server import protocol
    from repro.server.server import Changefeed, ViewServer
    from repro.server.session import Session

    protocol.encode_frame = tracer.wrap("protocol.encode_frame", protocol.encode_frame)
    decode_id = tracer.name_id("protocol.decode_payload")
    decode_payload = protocol.decode_payload

    def traced_decode(payload: bytes) -> dict[str, Any]:
        if not tracer.enabled:
            return decode_payload(payload)
        idx = tracer.begin(decode_id)
        try:
            doc = decode_payload(payload)
            # The request id names the operation from here on, this span
            # included.
            request_id = doc.get("id")
            if isinstance(request_id, int):
                tracer.txn = tracer.txn_of[idx] = request_id
            return doc
        finally:
            tracer.finish(idx)

    protocol.decode_payload = traced_decode

    dispatch = ViewServer.dispatch
    dispatch_ids = {
        op: tracer.name_id(f"ViewServer.dispatch:{op}") for op in ("txn", "query", "other")
    }

    async def traced_dispatch(self: ViewServer, session: Any, doc: Any) -> Any:
        if not tracer.enabled:
            return await dispatch(self, session, doc)
        op = doc.get("op")
        idx = tracer.begin(dispatch_ids.get(op, dispatch_ids["other"]))
        try:
            # Handlers are synchronous, so no other request's spans can
            # interleave with this one's.
            return await dispatch(self, session, doc)
        finally:
            tracer.finish(idx)

    ViewServer.dispatch = traced_dispatch  # type: ignore[method-assign]

    subscribe = ViewMaintainer.subscribe

    def traced_subscribe(self: ViewMaintainer, name: str, callback: Callable) -> None:
        subscribe(self, name, tracer.wrap(_FEED_ROOT, callback))

    ViewMaintainer.subscribe = traced_subscribe  # type: ignore[method-assign]

    tracer.wrap_method(Session, "send_frame")
    tracer.wrap_method(Changefeed, "append")
    tracer.wrap_method(RefreshScheduler, "tick")
    tracer.wrap_method(WalWriter, "append")
    tracer.wrap_method(WalIO, "fsync")
    tracer.wrap_method(Recovery, "__init__")
    tracer.wrap_method(Recovery, "replay")
