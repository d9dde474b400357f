"""Tests for contextvar-based cost recording and the metrics registry.

The recorder must be *isolated*: nested ``recording`` blocks route to
the innermost recorder, and concurrent threads or asyncio tasks (the
view-server's sessions) each see only their own recorder.  The registry
must be *single*: every counter is declared once, incremented once per
event, and every read surface agrees on it.
"""

from __future__ import annotations

import ast
import asyncio
import re
import threading
from pathlib import Path

import pytest

from repro import BaseRef, Database, MaintenancePolicy, ViewMaintainer
from repro.core import codegen
from repro.errors import ReproError, UnknownMetricError
from repro.instrumentation import (
    METRICS,
    CostRecorder,
    active_recorder,
    charge,
    recording,
)
from repro.scheduler import RefreshScheduler, StalenessSLA
from repro.server import ServerConfig, ServerHandle, ViewClient, ViewServer
from repro.workloads.orderflow import OrderFlow


class TestRecorder:
    def test_incr_get_snapshot_reset(self):
        recorder = CostRecorder()
        recorder.incr("tuples_scanned")
        recorder.incr("tuples_scanned", 4)
        assert recorder.get("tuples_scanned") == 5
        assert recorder.get("join_probes") == 0
        snap = recorder.snapshot()
        assert snap == {"tuples_scanned": 5}
        recorder.incr("tuples_scanned")
        assert snap == {"tuples_scanned": 5}  # snapshot is a copy
        recorder.reset()
        assert recorder.get("tuples_scanned") == 0

    def test_settle_lands_each_kind_where_count_and_charge_would(self):
        bag, active = CostRecorder(), CostRecorder()
        with recording(active):
            bag.settle(
                [("tuples_screened", 2), ("tuples_irrelevant", 0)],
                [("join_probes", 3), ("index_probes", 0)],
            )
        assert bag.counters == {"tuples_screened": 2}
        assert active.counters == {"tuples_screened": 2, "join_probes": 3}
        bag.settle([("tuples_screened", 1)], None)  # nobody is recording
        assert bag.counters == {"tuples_screened": 3}
        assert active.counters == {"tuples_screened": 2, "join_probes": 3}

    def test_settle_rejects_an_undeclared_name_of_either_kind(self):
        bag = CostRecorder()
        with pytest.raises(UnknownMetricError):
            bag.settle([("no_such_counter", 0)], None)
        with pytest.raises(UnknownMetricError):
            bag.settle([], [("no_such_counter", 1)])  # recorder or not
        with pytest.raises(UnknownMetricError), recording(CostRecorder()):
            bag.settle([], [("no_such_counter", 1)])
        assert bag.counters == {}


class TestRecordingContext:
    def test_charge_without_active_recorder_is_a_noop(self):
        assert active_recorder() is None
        charge("tuples_scanned", 100)  # must not raise

    def test_basic_activation(self):
        recorder = CostRecorder()
        with recording(recorder):
            assert active_recorder() is recorder
            charge("tuples_scanned", 2)
        assert active_recorder() is None
        assert recorder.get("tuples_scanned") == 2

    def test_nested_innermost_wins_then_restores(self):
        outer, inner = CostRecorder(), CostRecorder()
        with recording(outer):
            charge("join_probes", 1)
            with recording(inner):
                charge("join_probes", 10)
                assert active_recorder() is inner
            assert active_recorder() is outer
            charge("join_probes", 2)
        assert outer.get("join_probes") == 3
        assert inner.get("join_probes") == 10

    def test_reentrant_same_recorder(self):
        recorder = CostRecorder()
        with recording(recorder):
            with recording(recorder):
                charge("join_probes")
            charge("join_probes")
        assert recorder.get("join_probes") == 2

    def test_restores_on_exception(self):
        recorder = CostRecorder()
        with pytest.raises(RuntimeError), recording(recorder):
            raise RuntimeError("boom")
        assert active_recorder() is None


class TestThreadIsolation:
    def test_threads_do_not_share_the_active_recorder(self):
        main_recorder = CostRecorder()
        seen_in_thread: list[CostRecorder | None] = []
        thread_recorder = CostRecorder()

        def worker() -> None:
            # A fresh thread starts with no active recorder, even while
            # the main thread is inside a recording block.
            seen_in_thread.append(active_recorder())
            charge("tuples_emitted")
            with recording(thread_recorder):
                charge("join_probes", 7)

        with recording(main_recorder):
            charge("tuples_scanned", 1)
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(10)
            charge("tuples_scanned", 1)

        assert seen_in_thread == [None]
        assert thread_recorder.snapshot() == {"join_probes": 7}
        assert main_recorder.snapshot() == {"tuples_scanned": 2}


class TestAsyncioTaskIsolation:
    def test_concurrent_tasks_record_independently(self):
        async def session(recorder: CostRecorder, amount: int) -> None:
            with recording(recorder):
                charge("tuples_scanned", amount)
                await asyncio.sleep(0.01)  # interleave with the other task
                charge("tuples_scanned", amount)

        async def main() -> tuple[CostRecorder, CostRecorder]:
            a, b = CostRecorder(), CostRecorder()
            await asyncio.gather(session(a, 1), session(b, 100))
            return a, b

        a, b = asyncio.run(main())
        assert a.snapshot() == {"tuples_scanned": 2}
        assert b.snapshot() == {"tuples_scanned": 200}

    def test_task_does_not_leak_into_the_loop(self):
        async def main() -> CostRecorder | None:
            recorder = CostRecorder()

            async def inner() -> None:
                with recording(recorder):
                    charge("tuples_scanned")
                    await asyncio.sleep(0)

            await asyncio.create_task(inner())
            return active_recorder()

        assert asyncio.run(main()) is None


# ----------------------------------------------------------------------
# The registry: one declaration, one increment, every surface agrees
# ----------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"
DOCS = SRC.parent / "docs"
#: Families the maintainer keeps always-on, and those it keeps per view.
MAINTAINER_FAMILIES = ("view", "plan_cache", "codegen")
PER_VIEW_FAMILIES = ("view", "plan_cache")


@pytest.fixture(scope="module")
def traced_run():
    """One seeded orderflow stream, recorded from before the first view
    exists: an aggregate view, a deferred view under a scheduler, one
    ``create_index`` invalidation and one ``drop_view``."""
    recorder = CostRecorder()
    dropped: list[dict[str, int]] = []
    with recording(recorder):
        flow = OrderFlow(customers=30, products=20, lineitems=200, seed=7)
        db = flow.database
        maintainer = ViewMaintainer(db)
        for name, expression in flow.view_definitions().items():
            maintainer.define_view(name, expression)
        maintainer.define_view(
            "qty_by_cust",
            BaseRef("lineitem")
            .select("status = 0")
            .project(["cust_id", "qty"])
            .aggregate(["cust_id"], [("sum", "qty", "total")]),
        )
        maintainer.define_view(
            "shipped",
            BaseRef("lineitem").select("status = 1").project(["line_id", "qty"]),
            policy=MaintenancePolicy.DEFERRED,
        )
        scheduler = RefreshScheduler(maintainer, batch_limit=2)
        scheduler.declare_sla("shipped", StalenessSLA(max_pending_commits=4))
        for i, _ in enumerate(flow.transactions(90, seed=11)):
            scheduler.clock.advance(1)
            scheduler.tick()
            if i == 30:
                db.create_index("product", ["category"])
            if i == 60:
                row = maintainer.stats("pricey_open")
                maintainer.drop_view("pricey_open")
                # The drop evicts the plan, counted on the row as it goes.
                row["plan_cache_invalidations"] += 1
                dropped.append(row)
    return maintainer, scheduler, recorder, dropped


class TestOneIncrementPerEvent:
    def test_always_on_totals_equal_the_enclosing_recording(self, traced_run):
        maintainer, scheduler, recorder, _ = traced_run
        owners = (
            (maintainer.totals, MAINTAINER_FAMILIES),
            (scheduler.totals, ("scheduler",)),
        )
        for totals, families in owners:
            # Zero-filled on both sides: every declared name of the
            # owner's families, counted or not.
            assert (
                totals.family(*families).as_dict()
                == recorder.family(*families).as_dict()
            )
            # And whatever else the owner keeps (the drop proofs).
            for name in METRICS:
                if totals.get(name):
                    assert totals.get(name) == recorder.get(name), name
        assert recorder.get("transactions_seen") > 0
        assert recorder.get("aggregate_rows_folded") > 0
        assert recorder.get("plan_cache_invalidations") >= 2  # DDL + drop
        assert recorder.get("plan_cache_misses") >= 1
        assert recorder.get("scheduler_refreshes") > 0

    def test_totals_are_the_sum_of_live_and_dropped_rows(self, traced_run):
        maintainer, _, _, dropped = traced_run
        summed = dict.fromkeys(dropped[0], 0)
        for row in (*maintainer.all_stats().values(), *dropped):
            for name, value in row.items():
                summed[name] += value
        assert summed == maintainer.totals.family(*PER_VIEW_FAMILIES).as_dict()
        assert dropped[0]["transactions_seen"] > 0
        assert maintainer.plan_cache_stats() == {
            name: summed[name] for name in maintainer.plan_cache_stats()
        }

    def test_undeclared_name_raises_everywhere(self):
        view_name = "late"
        for bad in ("tuples_scaned", f"server_scheduler_refreshed_{view_name}"):
            with pytest.raises(UnknownMetricError):
                charge(bad)  # even with nobody listening
            recorder = CostRecorder()
            with recording(recorder), pytest.raises(UnknownMetricError):
                charge(bad)
            with pytest.raises(UnknownMetricError):
                recorder.incr(bad)
            with pytest.raises(UnknownMetricError):
                CostRecorder().count(bad)
            assert recorder.snapshot() == {}
        assert issubclass(UnknownMetricError, ReproError)


class TestDeclarationsMatchTheSource:
    #: Functions whose first string argument is a counter name.
    INCREMENTS = {"charge": 0, "incr": 0, "count": 0}
    #: The two lists of a deferred tally (``CostRecorder.settle``): a
    #: site extends one with ``(name, amount)`` pairs.
    TALLIES = {"counted", "charged"}
    #: Counter maps a site increments in place, ``counters["name"] += n``.
    COUNTER_MAPS = {"counters"}
    #: The only non-literal names: the registry's own plumbing.
    FORWARDED = {("instrumentation.py", "name")}

    @classmethod
    def _forwards_a_counter_map(cls, value):
        """``counters.items()``: the pairs of a counter map."""
        return (
            isinstance(value, ast.Call)
            and getattr(value.func, "attr", None) == "items"
            and getattr(value.func.value, "id", None) in cls.COUNTER_MAPS
        )

    @classmethod
    def _name_arguments(cls, node):
        """The expressions ``node`` passes as counter names."""
        if isinstance(node, ast.Call):
            func = node.func
            called = getattr(func, "id", None) or getattr(func, "attr", None)
            position = cls.INCREMENTS.get(called)
            if position is not None and len(node.args) > position:
                arg = node.args[position]
                # Other things are called ``count``; a name is a string.
                computed = isinstance(arg, (ast.Name, ast.JoinedStr, ast.BinOp))
                if computed or isinstance(getattr(arg, "value", None), str):
                    yield arg
        elif (
            isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Subscript)
            and getattr(node.target.value, "id", None) in cls.COUNTER_MAPS
        ):
            yield node.target.slice
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(t, "id", None) in cls.TALLIES for t in targets):
                value = node.value
                # ``[] if recording else None``: a tally nobody reads.
                values = [value.body, value.orelse] if isinstance(value, ast.IfExp) else [value]
                for value in values:
                    if isinstance(value, ast.Constant) and value.value is None:
                        continue
                    if cls._forwards_a_counter_map(value):
                        continue  # its names are linted where it is incremented
                    assert hasattr(value, "elts"), "a tally takes a literal of pairs"
                    for pair in value.elts:
                        assert isinstance(pair, ast.Tuple) and len(pair.elts) == 2
                        yield pair.elts[0]

    @staticmethod
    def _trigger_text():
        """The trigger programs of a stream that runs every template:
        a plan-cache miss and hits, screens that keep, drop and are
        dropped by proof (static irrelevance, an FK reduction's probe
        side), a shape compiled on first survival, a fold, all counted
        for a recorder."""
        db = Database()
        db.create_relation("p", ["B", "C"], [(b, b * 10) for b in range(4)])
        db.create_relation("r", ["A", "B"], [(1, 0), (2, 1)])
        db.create_relation("q", ["E", "F"], [(10, 1)])
        db.declare_key("p", ["B"])
        db.declare_foreign_key("r", ["B"], "p", ["B"])
        db.declare_constraint("q", "E >= 10")
        m = ViewMaintainer(db)
        m.define_view("fk", BaseRef("r").join(BaseRef("p")).project(["A", "B"]))
        m.define_view("qs", BaseRef("r").product(BaseRef("q")).select("E < 5 and A = F"))
        m.define_view("big", BaseRef("r").select("A > 100"))
        m.define_view("agg", BaseRef("r").aggregate(["B"], [("max", "A", "top")]))
        texts = []
        generate = codegen.generate_trigger_source

        def kept(*args):
            source, bound = generate(*args)
            texts.append(source)
            return source, bound

        with pytest.MonkeyPatch.context() as patch, recording(CostRecorder()):
            patch.setattr(codegen, "generate_trigger_source", kept)
            db.apply(inserts={"p": [(9, 90)], "r": [(9, 9)], "q": [(11, 2)]})
            db.create_index("r", ["A"])
            db.apply(inserts={"r": [(200, 1)]})
        m.verify_all()
        return "".join(texts)

    def test_the_trigger_emitter_writes_its_table(self):
        """Every counter name in generated code is one of the emitter's
        table, and every one of the table is written."""
        table = set(codegen.TRIGGER_ROW_COUNTS + codegen.TRIGGER_CHARGES)
        text = codegen.program_key(self._trigger_text())  # no comments
        assert set(re.findall(r"'([a-z_]+)'", text)) == table

    def test_every_declared_name_has_a_literal_increment_site(self):
        # What the trigger emitter's templates count, in generated code.
        literal = set(codegen.TRIGGER_ROW_COUNTS + codegen.TRIGGER_CHARGES)
        opaque: set[tuple[str, str]] = set()
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                for arg in self._name_arguments(node):
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        literal.add(arg.value)
                    else:
                        opaque.add((path.name, ast.unparse(arg)))
        assert literal - METRICS.keys() == set(), "incremented but undeclared"
        # The one exception: never charged (every truth table runs on
        # kernels) and declared because the benchmark's frozen layer
        # report reads it.
        assert METRICS.keys() - literal == {"codegen_fallback_tuples"}, (
            "declared but never incremented"
        )
        assert opaque <= self.FORWARDED, "counter names must be literals"

    def test_a_computed_name_in_a_tally_is_found(self):
        tree = ast.parse("counted += ((proof, n), ('tuples_screened', n))")
        names = [
            ast.unparse(arg)
            for node in ast.walk(tree)
            for arg in self._name_arguments(node)
        ]
        assert names == ["proof", "'tuples_screened'"]

    def test_a_computed_key_of_a_counter_map_is_found(self):
        tree = ast.parse(
            "counters[proof] += n\n"
            "counters['tuples_screened'] += n\n"
            "counters[f'{kind}_dropped'] += n\n"
            "seen[proof] += 1\n"
        )
        names = [
            ast.unparse(arg)
            for node in ast.walk(tree)
            for arg in self._name_arguments(node)
        ]
        assert names == ["proof", "'tuples_screened'", "f'{kind}_dropped'"]

    def test_a_tally_forwards_only_a_counter_map(self):
        forwarded = "counted += counters.items()\n"
        assert [
            arg
            for node in ast.walk(ast.parse(forwarded))
            for arg in self._name_arguments(node)
        ] == []
        for other in ("counted += seen.items()\n", "charged += [(m, 1) for m in names]\n"):
            with pytest.raises(AssertionError, match="literal of pairs"):
                for node in ast.walk(ast.parse(other)):
                    list(self._name_arguments(node))

    def test_every_declaration_is_complete(self):
        for metric in METRICS.values():
            assert metric.family and metric.unit and metric.doc, metric.name


class TestStatsOpMatchesTheDocs:
    @staticmethod
    def _paths(doc, prefix=""):
        """Dotted key paths of a response; user-chosen names become ``*``."""
        wildcard = prefix in ("views.", "scheduler.slas.", "scheduler.violations.")
        for key, value in doc.items():
            path = prefix + ("*" if wildcard else key)
            if isinstance(value, dict) and path != "counters":
                yield from TestStatsOpMatchesTheDocs._paths(value, path + ".")
            else:
                yield path

    def test_served_stats_has_exactly_the_documented_keys(self):
        text = (DOCS / "server.md").read_text(encoding="utf-8")
        block = text.split("<!-- stats-keys:begin -->")[1].split(
            "<!-- stats-keys:end -->"
        )[0]
        documented = set(re.findall(r"`([a-z_.*]+)`", block))

        flow = OrderFlow(customers=20, products=10, lineitems=100, seed=3)
        maintainer = ViewMaintainer(flow.database)
        for name, expression in flow.view_definitions().items():
            maintainer.define_view(name, expression)
        maintainer.define_view(
            "shipped",
            BaseRef("lineitem").select("status = 1").project(["line_id"]),
            policy=MaintenancePolicy.DEFERRED,
        )
        config = ServerConfig(
            staleness_slas={"shipped": StalenessSLA(max_pending_commits=2)}
        )
        server = ViewServer(flow.database, maintainer, config)
        with ServerHandle(server) as handle:
            client = ViewClient(port=handle.port)
            client.subscribe("open_lines")
            for i in range(8):
                client.txn(insert={"lineitem": [[1000 + i, i, i % 10, 9, i % 2]]})
            client.query("open_lines", limit=2)
            stats = client.stats()
            client.close()

        assert set(self._paths(stats)) == documented - {"wal_position"}
        counters = stats["counters"]
        assert counters.keys() <= METRICS.keys()
        assert counters["server_scheduler_refreshes"] >= 1
        assert counters["transactions_seen"] > 0
        # The prose list of the server's own family is the declared one.
        served = {n for n, m in METRICS.items() if m.family == "server"}
        prose = text.split("## Counters")[1].split("## The `stats` response")[0]
        assert set(re.findall(r"`(server_\w+)`", prose)) == served
