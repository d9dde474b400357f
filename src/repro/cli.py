"""A tiny interactive shell over the public API, plus durability verbs.

Intended for exploration and demos, not as a query language: the
commands map one-to-one onto library calls, and the view syntax covers
exactly the paper's SPJ class.

Invocations::

    python -m repro.cli                      -- interactive shell
    python -m repro.cli recover DIR [--shell]
        Rebuild a database from the newest checkpoint plus the WAL tail
        in DIR (see docs/durability.md) and print a recovery summary;
        --shell then opens the interactive shell on the recovered
        database.
    python -m repro.cli follow DIR [--from N] [--once] [--interval S]
        Tail the WAL in DIR, printing one line per committed
        transaction.  --once drains the log and exits; the default
        polls every S seconds (0.5) until interrupted.
    python -m repro.cli serve DIR [--host H] [--port P] [--view NAME=SPEC]*
        Recover the database in DIR (checkpoint + WAL tail) and serve
        it over the network protocol of docs/server.md.  Each --view
        re-registers one view using the shell's view grammar, e.g.
        --view "hot=r join s where C > 5 select A, C"; views named in
        the checkpoint adopt their stored contents and catch up
        differentially.  Commits from clients are appended to DIR's
        WAL.  Ctrl-C shuts down gracefully.
    python -m repro.cli serve-cluster DIR --shards N
                                 --partition "rel:key:b1,b2,..."
                                 [--view NAME=SPEC]* [--host H] [--port P]
        Recover the database in DIR, split it across N in-process
        shards (each --partition names one relation's integer key and
        its N-1 strictly increasing range boundaries; unlisted
        relations replicate), and serve the cluster over the same wire
        protocol as ``serve`` (docs/cluster.md).  Every --view must
        reference exactly one partitioned relation.  The cluster serves
        from memory: commits are NOT appended back to DIR's WAL.
    python -m repro.cli simulate [--seed N] [--episodes N] [--events N]
                                 [--no-crashes] [--no-partitions] [--trace]
                                 [--followers N] [--base-free-followers N]
                                 [--clients N] [--no-ddl] [--corruption]
                                 | --sharded [--shards N] [--broadcast]
                                             [--base-free] [--keyed]
        Run the deterministic simulation harness (docs/testing.md):
        seeded random workloads under injected crashes, torn writes,
        lost fsyncs and network faults, checked after every quiescent
        point by a full-recompute oracle across the leader, recovered
        state, followers and client changefeed mirrors.  The same seed
        always replays the identical run; a divergence prints the
        failing episode's seed and a minimized event trace, and exits 1.
        --sharded runs a cluster instead (docs/cluster.md): --base-free
        sheds every non-home shard's base rows, and --keyed declares a
        key that lets them check presence (docs/scheduler.md).  A flag
        of the other topology is an error.
    python -m repro.cli monitor [--seed N] [--commits N]
                                [--json PATH] [--html PATH]
        Drive a seeded synthetic workload under staleness SLAs and
        render the windowed staleness report (docs/scheduler.md):
        deterministic JSON to stdout or --json PATH, and optionally a
        standalone HTML page to --html PATH.  The same seed produces
        byte-identical reports.
    python -m repro.cli analyze FILE [FILE ...] [--json]
        Run the static view analyzer (docs/analysis.md) over spec
        files of shell commands (one command per line; blank lines and
        lines starting with ``#`` or ``--`` are skipped).  All files
        build one catalog, so cross-file view pairs are compared.  The
        report — text by default, ``--json`` for machine consumption —
        is deterministic: the same input produces byte-identical
        output.  Exits 1 when any ERROR-level finding is present
        (CI runs this over ``examples/``).

Shell commands::

    create table <name> (<attr>, <attr>, ...)
    insert into <name> values (v, ...) [, (v, ...)]*
    delete from <name> values (v, ...) [, (v, ...)]*
    create view <name> as <rel> [join <rel>]* [where <condition>]
                               [select <attr>, <attr>, ...]
                               [group by <attr>, ...]
                               [compute <agg> as <alias>, ...]
                               -- <agg> is count(), count(*), or one of
                                  sum/avg/min/max(<attr>); `group by`
                                  requires `compute` (docs/aggregates.md)
    create view <name> deferred as ...
    refresh <view>
    refresh --all | quiesce     -- apply every deferred view's backlog
    show <name>                 -- relation or view contents
    stats <view>                -- maintenance counters, backlog depth,
                                   and the self-maintainability verdict
    explain <view> [changing <rel>[, <rel>]*]
                                -- the compiled maintenance plan: the
                                   invariant/variant screening split,
                                   each truth-table row's join order,
                                   index bindings, the nodes the row
                                   kernel stores, the views sharing its
                                   traversal, and the
                                   chase proofs (derived view keys, FK
                                   reductions); the bare form assumes
                                   every referenced relation changed
    explain <view> source       -- the generated kernel source the
                                   plan executes (docs/codegen.md)
    recommend indexes <view>    -- indexes the planner would probe
    create index on <rel> (<attr>, ...)
    drop index on <rel> (<attr>, ...)
    constrain <rel> where <condition>
                                -- declare an integrity constraint;
                                   existing rows must satisfy it and
                                   commits enforce it from then on
    drop constraint <rel>       -- remove a relation's constraint
    declare key <rel> (<attr>, ...)
                                -- declare a candidate key; existing
                                   rows must be collision-free and
                                   commits enforce it from then on;
                                   the chase turns it into plan-level
                                   proofs (docs/analysis.md)
    drop key <rel> [(<attr>, ...)]
    declare fk <rel> (<attr>, ...) references <rel> (<attr>, ...)
                                -- declare a foreign key onto a
                                   declared key of the referenced
                                   relation
    drop fk <rel> references <rel>
    keys                        -- list declared keys and foreign keys
    constraints                 -- list declared constraints, keys and
                                   foreign keys
    analyze                     -- run the static analyzer over every
                                   registered view (docs/analysis.md)
    tables / views              -- list catalog entries
    drop view <name>
    help
    exit | quit

Views may reference previously created views by name (stacked views).

Run interactively with ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import re
import sys
from typing import Any

from repro.algebra.expressions import BaseRef, Expression
from repro.core.maintainer import MaintenancePolicy, ViewMaintainer
from repro.engine.database import Database
from repro.engine.persistence import canonical_json
from repro.errors import ReproError


class ShellError(ReproError):
    """A command could not be parsed or executed."""


_CREATE_TABLE = re.compile(
    r"create\s+table\s+(\w+)\s*\(([^)]*)\)\s*$", re.IGNORECASE
)
_INSERT = re.compile(r"insert\s+into\s+(\w+)\s+values\s+(.*)$", re.IGNORECASE)
_DELETE = re.compile(r"delete\s+from\s+(\w+)\s+values\s+(.*)$", re.IGNORECASE)
_CREATE_VIEW = re.compile(
    r"create\s+view\s+(\w+)\s+(deferred\s+)?as\s+(.*)$", re.IGNORECASE
)
_ROW = re.compile(r"\(([^)]*)\)")


def _operand(line: str, words: int, usage: str) -> str:
    """What follows a command's first ``words`` words (``stats ;``: none)."""
    parts = line.split(None, words)
    if len(parts) <= words:
        raise ShellError(f"usage: {usage}")
    return parts[words].strip()


class Shell:
    """State and command dispatch for one interactive session."""

    def __init__(self, database: Database | None = None) -> None:
        self.database = database if database is not None else Database()
        self.maintainer = ViewMaintainer(self.database)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def execute(self, line: str) -> str:
        """Run one command line; returns the text to display."""
        line = line.strip().rstrip(";")
        if not line:
            return ""
        lowered = line.lower()
        if lowered in ("help", "?"):
            return __doc__.split("Shell commands::", 1)[1].split(
                "Run interactively", 1
            )[0]
        if lowered in ("exit", "quit"):
            raise EOFError
        if lowered == "tables":
            return ", ".join(self.database.relation_names()) or "(no tables)"
        if lowered == "views":
            return ", ".join(self.maintainer.view_names()) or "(no views)"

        match = _CREATE_TABLE.match(line)
        if match:
            return self._create_table(match.group(1), match.group(2))
        match = _INSERT.match(line)
        if match:
            return self._modify(match.group(1), match.group(2), insert=True)
        match = _DELETE.match(line)
        if match:
            return self._modify(match.group(1), match.group(2), insert=False)
        match = _CREATE_VIEW.match(line)
        if match:
            return self._create_view(
                match.group(1), bool(match.group(2)), match.group(3)
            )
        if lowered == "quiesce" or lowered in ("refresh --all", "refresh -a"):
            return self._quiesce()
        if lowered.startswith("refresh "):
            name = _operand(line, 1, "refresh <view> | refresh --all")
            did = self.maintainer.refresh(name)
            return f"refreshed {name}" if did else f"{name} was already current"
        if lowered.startswith("show "):
            return self._show(_operand(line, 1, "show <table-or-view>"))
        if lowered.startswith("stats "):
            name = _operand(line, 1, "stats <view>")
            stats = self.maintainer.stats(name)
            lines = [
                f"{k}: {canonical_json(v).decode() if isinstance(v, dict) else v}"
                for k, v in stats.items()
            ]
            lines.extend(
                f"backlog_{k}: {v}"
                for k, v in self.maintainer.backlog(name).items()
            )
            lines.extend(
                f"{k}: {v}"
                for k, v in self.maintainer.codegen_stats().as_dict().items()
            )
            verdict = self.maintainer.self_maintainability(name)
            lines.append(
                f"self_maintainable: {str(verdict.self_maintainable).lower()}"
                f" ({verdict.kind})"
            )
            return "\n".join(lines)
        if lowered.startswith("recommend indexes "):
            name = _operand(line, 2, "recommend indexes <view>")
            recommendations = self.maintainer.recommended_indexes(name)
            if not recommendations:
                return f"view {name} needs no indexes"
            return "\n".join(
                f"create index on {rel} ({', '.join(attrs)})"
                for rel, attrs in recommendations
            )
        match = re.match(
            r"create\s+index\s+on\s+(\w+)\s*\(([^)]*)\)\s*$", line, re.IGNORECASE
        )
        if match:
            attrs = [a.strip() for a in match.group(2).split(",") if a.strip()]
            if not attrs:
                raise ShellError("an index needs at least one attribute")
            self.database.create_index(match.group(1), attrs)
            return f"created index on {match.group(1)}({', '.join(attrs)})"
        match = re.match(
            r"drop\s+index\s+on\s+(\w+)\s*\(([^)]*)\)\s*$", line, re.IGNORECASE
        )
        if match:
            attrs = [a.strip() for a in match.group(2).split(",") if a.strip()]
            if self.database.drop_index(match.group(1), attrs):
                return f"dropped index on {match.group(1)}({', '.join(attrs)})"
            return f"no index on {match.group(1)}({', '.join(attrs)})"
        if lowered.startswith("explain "):
            match = re.match(r"explain\s+(\w+)\s+source\s*$", line, re.IGNORECASE)
            if match:
                return self.maintainer.kernel_source(match.group(1))
            match = re.match(
                r"explain\s+(\w+)\s+changing\s+(.*)$", line, re.IGNORECASE
            )
            if match:
                relations = [
                    r.strip() for r in match.group(2).split(",") if r.strip()
                ]
                return self.maintainer.explain(match.group(1), relations)
            match = re.match(r"explain\s+(\w+)\s*$", line, re.IGNORECASE)
            if not match:
                raise ShellError(
                    "usage: explain <view> [changing <rel>[, <rel>]*] "
                    "| explain <view> source"
                )
            # The bare form: the full plan as if every referenced base
            # relation changed — including the chase proofs (derived
            # view keys, FK reductions) the plan embeds.
            name = match.group(1)
            view = self.maintainer.view(name)
            relations = sorted(set(view.definition.normal_form.relation_names))
            return self.maintainer.explain(name, relations)
        if lowered.startswith("drop view "):
            name = _operand(line, 2, "drop view <view>")
            self.maintainer.drop_view(name)
            return f"dropped view {name}"
        match = re.match(
            r"constrain\s+(\w+)\s+where\s+(.*)$", line, re.IGNORECASE
        )
        if match:
            condition = self.database.declare_constraint(
                match.group(1), match.group(2).strip()
            )
            return f"constrained {match.group(1)} where {condition}"
        match = re.match(r"drop\s+constraint\s+(\w+)\s*$", line, re.IGNORECASE)
        if match:
            if self.database.drop_constraint(match.group(1)):
                return f"dropped constraint on {match.group(1)}"
            return f"no constraint on {match.group(1)}"
        match = re.match(
            r"declare\s+key\s+(\w+)\s*\(([^)]*)\)\s*$", line, re.IGNORECASE
        )
        if match:
            attrs = [a.strip() for a in match.group(2).split(",") if a.strip()]
            if not attrs:
                raise ShellError("a key needs at least one attribute")
            key = self.database.declare_key(match.group(1), attrs)
            return f"declared key ({', '.join(key)}) on {match.group(1)}"
        match = re.match(
            r"drop\s+key\s+(\w+)\s*(?:\(([^)]*)\))?\s*$", line, re.IGNORECASE
        )
        if match:
            attrs = [
                a.strip()
                for a in (match.group(2) or "").split(",")
                if a.strip()
            ]
            if self.database.drop_key(match.group(1), attrs or None):
                return f"dropped key on {match.group(1)}"
            return f"no such key on {match.group(1)}"
        match = re.match(
            r"declare\s+fk\s+(\w+)\s*\(([^)]*)\)\s+references\s+"
            r"(\w+)\s*\(([^)]*)\)\s*$",
            line,
            re.IGNORECASE,
        )
        if match:
            attrs = [a.strip() for a in match.group(2).split(",") if a.strip()]
            ref_attrs = [
                a.strip() for a in match.group(4).split(",") if a.strip()
            ]
            if not attrs or not ref_attrs:
                raise ShellError(
                    "a foreign key needs attributes on both sides"
                )
            fk = self.database.declare_foreign_key(
                match.group(1), attrs, match.group(3), ref_attrs
            )
            return f"declared foreign key {fk.describe()}"
        match = re.match(
            r"drop\s+fk\s+(\w+)\s+references\s+(\w+)\s*$", line, re.IGNORECASE
        )
        if match:
            if self.database.drop_foreign_key(match.group(1), match.group(2)):
                return (
                    f"dropped foreign key(s) from {match.group(1)} "
                    f"to {match.group(2)}"
                )
            return (
                f"no foreign key from {match.group(1)} to {match.group(2)}"
            )
        if lowered == "keys":
            return self._list_keys() or "(no keys)"
        if lowered == "constraints":
            return self._list_constraints()
        if lowered == "analyze":
            return self.maintainer.analyze().format()
        raise ShellError(f"cannot parse: {line!r} (try 'help')")

    # ------------------------------------------------------------------
    # Command implementations
    # ------------------------------------------------------------------
    def _create_table(self, name: str, attr_text: str) -> str:
        attrs = [a.strip() for a in attr_text.split(",") if a.strip()]
        if not attrs:
            raise ShellError("a table needs at least one attribute")
        self.database.create_relation(name, attrs)
        return f"created table {name}({', '.join(attrs)})"

    def _parse_rows(self, text: str) -> list[tuple[int, ...]]:
        rows = []
        for match in _ROW.finditer(text):
            cells = [c.strip() for c in match.group(1).split(",") if c.strip()]
            try:
                rows.append(tuple(int(c) for c in cells))
            except ValueError:
                raise ShellError(
                    f"values must be integers: ({match.group(1)})"
                ) from None
        if not rows:
            raise ShellError("expected at least one (v, ...) row")
        return rows

    def _modify(self, name: str, rows_text: str, insert: bool) -> str:
        rows = self._parse_rows(rows_text)
        with self.database.transact() as txn:
            for row in rows:
                if insert:
                    txn.insert(name, row)
                else:
                    txn.delete(name, row)
        verb = "inserted into" if insert else "deleted from"
        return f"{len(rows)} row(s) {verb} {name}"

    def _create_view(self, name: str, deferred: bool, body: str) -> str:
        expression = self._parse_view_body(body)
        policy = (
            MaintenancePolicy.DEFERRED if deferred else MaintenancePolicy.IMMEDIATE
        )
        view = self.maintainer.define_view(name, expression, policy=policy)
        kind = "deferred" if deferred else "immediate"
        return f"created {kind} view {name} ({len(view.contents)} tuples)"

    def _parse_view_body(self, body: str) -> Expression:
        return parse_view_expression(body)

    def _quiesce(self) -> str:
        refreshed = self.maintainer.quiesce()
        if not refreshed:
            return "all views current"
        return "refreshed " + ", ".join(refreshed)

    def _show(self, name: str) -> str:
        if name in self.maintainer.view_names():
            return self.maintainer.view(name).contents.pretty()
        return self.database.relation(name).pretty()

    def _list_keys(self) -> str:
        lines = [
            f"key ({', '.join(key)}) on {name}"
            for name, declared in self.database.keys.items()
            for key in declared
        ]
        lines.extend(
            f"foreign key {fk.describe()}"
            for fk in self.database.keys.foreign_key_items()
        )
        return "\n".join(lines)

    def _list_constraints(self) -> str:
        lines = [
            f"constrain {name} where {condition}"
            for name, condition in self.database.constraints.items()
        ]
        keys = self._list_keys()
        if keys:
            lines.extend(keys.splitlines())
        return "\n".join(lines) or "(no constraints)"


_AGG_COLUMN = re.compile(
    r"(count|sum|avg|min|max)\s*\(\s*(\*|\w*)\s*\)\s+as\s+(\w+)\s*$",
    re.IGNORECASE,
)


def _parse_aggregate_columns(text: str) -> list[tuple[str, str | None, str]]:
    """``f(attr) as alias, ...`` → ``(func, attribute, alias)`` triples."""
    columns: list[tuple[str, str | None, str]] = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        match = _AGG_COLUMN.match(piece)
        if not match:
            raise ShellError(
                f"cannot parse aggregate column {piece!r} "
                "(expected 'count() as alias' or 'sum(attr) as alias')"
            )
        func = match.group(1).lower()
        attribute: str | None = match.group(2) or None
        if attribute == "*":
            attribute = None
        if func == "count":
            if attribute is not None:
                raise ShellError(
                    f"count takes no attribute: write 'count() as "
                    f"{match.group(3)}' or 'count(*) as {match.group(3)}'"
                )
        elif attribute is None:
            raise ShellError(f"{func} needs an attribute, e.g. {func}(A)")
        columns.append((func, attribute, match.group(3)))
    if not columns:
        raise ShellError("compute needs at least one aggregate column")
    return columns


def parse_view_expression(body: str) -> Expression:
    """``<rel> [join <rel>]* [where <cond>] [select <attrs>]
    [group by <keys>] [compute <aggs>]``.

    The shell's view grammar, shared with ``serve --view NAME=SPEC``.
    """
    lowered = body.lower()
    aggregate_columns: list[tuple[str, str | None, str]] | None = None
    group_keys: list[str] = []
    compute_index = lowered.rfind(" compute ")
    if compute_index >= 0:
        aggregate_columns = _parse_aggregate_columns(
            body[compute_index + len(" compute "):]
        )
        body = body[:compute_index]
        lowered = body.lower()
    group_index = lowered.rfind(" group by ")
    if group_index >= 0:
        if aggregate_columns is None:
            raise ShellError(
                "group by requires a compute clause, e.g. "
                "'r group by A compute count() as n'"
            )
        group_keys = [
            k.strip()
            for k in body[group_index + len(" group by "):].split(",")
            if k.strip()
        ]
        if not group_keys:
            raise ShellError("group by needs at least one attribute")
        body = body[:group_index]
        lowered = body.lower()
    select_attrs: list[str] | None = None
    select_index = lowered.rfind(" select ")
    if select_index >= 0:
        select_attrs = [
            a.strip()
            for a in body[select_index + len(" select "):].split(",")
            if a.strip()
        ]
        body = body[:select_index]
        lowered = body.lower()
    condition: str | None = None
    where_index = lowered.find(" where ")
    if where_index >= 0:
        condition = body[where_index + len(" where "):].strip()
        body = body[:where_index]
    relation_names = [
        token.strip()
        for token in re.split(r"\s+join\s+", body.strip(), flags=re.IGNORECASE)
        if token.strip()
    ]
    if not relation_names:
        raise ShellError("a view needs at least one relation")
    expression: Expression = BaseRef(relation_names[0])
    for relation_name in relation_names[1:]:
        expression = expression.join(BaseRef(relation_name))
    if condition:
        expression = expression.select(condition)
    if select_attrs:
        expression = expression.project(select_attrs)
    if aggregate_columns is not None:
        expression = expression.aggregate(group_keys, aggregate_columns)
    return expression


def _format_record(record) -> str:
    """One ``follow`` output line for a WAL record."""
    parts = []
    for name in sorted(record.deltas_doc):
        delta_doc = record.deltas_doc[name]
        parts.append(
            f"{name}:+{len(delta_doc.get('inserted', ()))}"
            f"/-{len(delta_doc.get('deleted', ()))}"
        )
    return f"seq={record.sequence} txn={record.txn_id} " + " ".join(parts)


def run_recover(directory: str) -> tuple[str, Database]:
    """Recover base state from ``directory``; returns (summary, database).

    View definitions are code, not data, so the CLI restores base
    relations only; it lists the views the checkpoint carried so the
    owning application knows what to ``restore_view``.
    """
    from repro.replication.recovery import Recovery

    recovery = Recovery(directory)
    replayed = recovery.replay()
    lines = [
        f"checkpoint at WAL sequence {recovery.checkpoint_sequence}",
        f"replayed {replayed} transaction(s), now at sequence "
        f"{recovery.last_sequence}",
    ]
    if recovery.tail_damage is not None:
        lines.append(
            f"stopped at torn tail (a resuming writer will truncate it): "
            f"{recovery.tail_damage!r}"
        )
    for name in recovery.database.relation_names():
        lines.append(f"  {name}: {len(recovery.database.relation(name))} tuples")
    views = recovery.checkpointed_views()
    if views:
        lines.append(
            "checkpointed views (restore with Recovery.restore_view): "
            + ", ".join(views)
        )
    return "\n".join(lines), recovery.database


def run_follow(
    directory: str,
    after: int = 0,
    once: bool = True,
    interval: float = 0.5,
    emit=print,
) -> int:
    """Tail the WAL, emitting one line per record; returns the last seq."""
    from repro.replication.wal import WalReader

    reader = WalReader(directory)
    position = after
    while True:
        for record in reader.records(after=position):
            emit(_format_record(record))
            position = record.sequence
        if reader.tail_damage is not None:
            emit(f"(waiting at torn tail: {reader.tail_damage!r})")
        if once:
            return position
        import time  # pragma: no cover - interactive loop

        time.sleep(interval)  # pragma: no cover


def parse_view_option(text: str) -> tuple[str, Expression]:
    """One ``NAME=SPEC`` pair from ``serve --view`` into a definition."""
    name, _, spec = text.partition("=")
    name = name.strip()
    if not name or not spec.strip():
        raise ShellError(
            f"--view expects NAME=SPEC, e.g. 'hot=r join s where C > 5'; got {text!r}"
        )
    return name, parse_view_expression(spec.strip())


def build_served_state(directory: str, view_options: list[str]):
    """The ``serve`` restart, each step once: boot DIR's checkpoint,
    restore each ``--view`` (adopting checkpointed contents), replay the
    WAL tail and open the writer from the replay's own scan.  Returns
    ``(recovery, maintainer, replayed, durability)``.  The collector is
    paused: the load's row lists and index buckets form no cycles, yet
    would set off pass after pass.
    """
    from repro.replication.durability import DurabilityManager
    from repro.replication.recovery import Recovery

    gc.disable()
    try:
        recovery = Recovery(directory)
        maintainer = ViewMaintainer(recovery.database)
        for option in view_options:
            name, expression = parse_view_option(option)
            recovery.restore_view(maintainer, name, expression)
        replayed = recovery.replay()
        durability = DurabilityManager(recovery.database, directory, scan=recovery.scan)
    finally:
        gc.enable()
    return recovery, maintainer, replayed, durability


def run_serve(
    directory: str,
    host: str = "127.0.0.1",
    port: int = 7707,
    view_options: list[str] | None = None,
    emit=print,
    on_start=None,
) -> int:
    """The ``serve`` verb: recover DIR, then serve it until interrupted.

    A :class:`~repro.replication.durability.DurabilityManager` is
    re-attached to the recovered database, so client transactions resume
    appending to DIR's WAL — a served database stays durable.
    """
    import asyncio

    from repro.server.server import ServerConfig, ViewServer

    recovery, maintainer, replayed, durability = build_served_state(
        directory, view_options or []
    )
    server = ViewServer(
        recovery.database,
        maintainer,
        ServerConfig(host=host, port=port),
        durability=durability,
    )

    async def _serve() -> None:
        try:
            await server.start()
        except OSError as exc:
            raise ReproError(f"cannot bind {host}:{port}: {exc}") from exc
        # Ctrl-C → graceful drain instead of a mid-commit teardown;
        # suppressed errors mean no signal support here (non-main
        # thread, Windows).
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            import signal

            asyncio.get_running_loop().add_signal_handler(
                signal.SIGINT, lambda: asyncio.ensure_future(server.shutdown())
            )
        emit(
            f"serving {directory} on {host}:{server.port} "
            f"(replayed {replayed} WAL transaction(s), "
            f"views: {', '.join(maintainer.view_names()) or 'none'})"
        )
        if on_start is not None:  # embedding/test hook, called in-loop
            on_start(server)
        try:
            await server.wait_closed()
        finally:
            durability.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        emit("shutting down")
    return 0


def parse_partition_option(text: str):
    """``rel:key:b1,b2,...`` → a :class:`~repro.cluster.topology.
    PartitionSpec` (boundaries may be empty for a 1-shard cluster)."""
    from repro.cluster.topology import PartitionSpec

    parts = text.split(":")
    if len(parts) not in (2, 3) or not parts[0].strip() or not parts[1].strip():
        raise ShellError(
            "--partition expects 'rel:key:b1,b2,...', e.g. 'r:A:10,20'; "
            f"got {text!r}"
        )
    relation, key = parts[0].strip(), parts[1].strip()
    boundary_text = parts[2].strip() if len(parts) == 3 else ""
    try:
        boundaries = [
            int(piece) for piece in boundary_text.split(",") if piece.strip()
        ]
    except ValueError:
        raise ShellError(
            f"--partition boundaries must be integers; got {text!r}"
        ) from None
    return PartitionSpec(relation, key, boundaries)


def run_serve_cluster(
    directory: str,
    shards: int,
    partition_options: list[str],
    view_options: list[str] | None = None,
    host: str = "127.0.0.1",
    port: int = 7707,
    emit=print,
    on_start=None,
) -> int:
    """The ``serve-cluster`` verb: recover DIR, shard it, serve it.

    The recovered database — relations and catalog — and the requested
    views are re-homed onto an in-process cluster (docs/cluster.md): shard 0 is
    the home shard, DirectLink transports keep client transactions
    synchronous, and the analyzer-derived routing table is printed at
    startup.  Unlike ``serve``, the cluster holds everything in memory
    and does not append commits back to DIR's WAL.
    """
    import asyncio

    from repro.cluster.coordinator import build_cluster
    from repro.cluster.frontend import ClusterServer
    from repro.cluster.topology import ClusterTopology
    from repro.replication.recovery import Recovery
    from repro.server.server import ServerConfig

    recovery = Recovery(directory)
    replayed = recovery.replay()
    topology = ClusterTopology(
        shards, [parse_partition_option(option) for option in partition_options]
    )
    views = [parse_view_option(option) for option in (view_options or [])]
    coordinator = build_cluster(topology, recovery.database, views)
    server = ClusterServer(coordinator, ServerConfig(host=host, port=port))

    async def _serve() -> None:
        try:
            await server.start()
        except OSError as exc:
            raise ReproError(f"cannot bind {host}:{port}: {exc}") from exc
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            import signal

            asyncio.get_running_loop().add_signal_handler(
                signal.SIGINT, lambda: asyncio.ensure_future(server.shutdown())
            )
        routing = coordinator.routing.describe()
        emit(
            f"serving {directory} as a {shards}-shard cluster on "
            f"{host}:{server.port} (replayed {replayed} WAL "
            f"transaction(s), views: "
            f"{', '.join(name for name, _ in views) or 'none'})"
        )
        for line in routing:
            emit(f"  routing: {line}")
        if not routing:
            emit("  routing: no provably skippable deltas")
        if on_start is not None:  # embedding/test hook, called in-loop
            on_start(server)
        await server.wait_closed()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        emit("shutting down")
    return 0


def run_analyze(
    paths: list[str],
    as_json: bool = False,
    show_source: bool = False,
    emit=print,
) -> int:
    """The ``analyze`` verb; returns the process exit code.

    Every file is a sequence of shell commands (the grammar ``help``
    prints): typically ``create table``, ``constrain`` and
    ``create view`` lines.  One shell executes all files in order, so
    views may reference tables, constraints and views from earlier
    files; the analyzer then runs once over the combined catalog.
    ``show_source`` appends each registered view's generated kernel
    source after the findings (docs/codegen.md).  Exit code 1 means at
    least one ERROR-level finding.
    """
    shell = Shell()
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError as exc:
            raise ShellError(f"cannot read {path}: {exc}") from exc
        for number, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("--"):
                continue
            try:
                shell.execute(line)
            except ReproError as exc:
                raise ShellError(f"{path}:{number}: {exc}") from exc
    report = shell.maintainer.analyze()
    emit(report.as_json() if as_json else report.format())
    if show_source:
        for name in sorted(shell.maintainer.view_names()):
            emit(f"-- kernel source for view {name!r} --")
            emit(shell.maintainer.kernel_source(name))
    return 1 if report.has_errors else 0


#: ``simulate`` options (by dest) that shape one topology only.
SINGLE_NODE_OPTIONS = (
    "followers", "base_free_followers", "clients", "no_ddl", "corruption"
)
SHARDED_OPTIONS = ("shards", "broadcast", "base_free", "keyed")


def simulate_fields(options: argparse.Namespace) -> dict[str, Any]:
    """The ``SimulationConfig`` fields the ``simulate`` flags set.

    A flag that does not shape the chosen topology is a
    :class:`ShellError` naming it, never silently ignored.
    """
    topology = "sharded" if options.sharded else "single-node"
    for dest in SINGLE_NODE_OPTIONS if options.sharded else SHARDED_OPTIONS:
        given = getattr(options, dest)  # None or False when absent
        if given is not None and given is not False:
            flag = "--" + dest.replace("_", "-")
            raise ShellError(f"{flag} does not apply to a {topology} simulation")
    shards = 0
    if options.sharded:
        shards = 3 if options.shards is None else options.shards
        if shards < 1:
            raise ShellError("--shards must be at least 1")
    fields = {
        "seed": options.seed,
        "episodes": options.episodes,
        "events": options.events,
        "shards": shards,
        "crashes": not options.no_crashes,
        "partitions": not options.no_partitions,
        "followers": options.followers,
        "base_free_followers": options.base_free_followers,
        "clients": options.clients,
        "ddl": not options.no_ddl,
        "corruption": options.corruption,
        "routed": not options.broadcast,
        "keyed": options.keyed,
        "base_free_shards": options.base_free,
    }
    return {name: value for name, value in fields.items() if value is not None}


def run_simulate(trace: bool = False, emit=print, **fields: Any) -> int:
    """The ``simulate`` verb; returns the process exit code.

    ``fields`` are :class:`~repro.simulation.SimulationConfig`'s, so
    ``shards`` picks the topology.  Output is a pure function of the
    arguments (the harness owns all randomness and time), so piping two
    runs with the same seed through ``diff`` is itself a determinism
    test.  ``trace`` appends every episode's event trace.
    """
    from repro.simulation import SimulationConfig, run_simulation

    report = run_simulation(SimulationConfig(**fields))
    emit(report.format())
    if trace:
        for result in report.episodes:
            emit(f"episode seed={result.seed}")
            for line in result.trace:
                emit(f"  {line}")
    return 0 if report.ok else 1


def run_monitor(
    seed: int = 0,
    commits: int = 150,
    json_path: str | None = None,
    html_path: str | None = None,
    emit=print,
) -> int:
    """The ``monitor`` verb; returns the process exit code.

    Drives a seeded synthetic workload — one immediate view and two
    deferred views under staleness SLAs, with the refresh scheduler
    ticking every third commit so backlogs genuinely accumulate — then
    renders the windowed staleness report (docs/scheduler.md).  Output
    is a pure function of the arguments: the same seed yields
    byte-identical JSON and HTML, which is what lets CI archive the
    HTML artifact and diff it between runs.
    """
    import random

    from repro.scheduler import (
        Monitor,
        RefreshScheduler,
        StalenessSLA,
        TickClock,
    )

    rng = random.Random(f"monitor:{seed}")
    database = Database()
    database.create_relation(
        "r", ("A", "B"), [(a, (a * 3) % 7) for a in range(7)]
    )
    database.create_relation(
        "s", ("C", "D"), [(c, (c + 2) % 7) for c in range(7)]
    )
    maintainer = ViewMaintainer(database)
    maintainer.define_view("hot", BaseRef("r").select("A <= 3"))
    maintainer.define_view(
        "joined",
        BaseRef("r").join(BaseRef("s")).select("A = C"),
        policy=MaintenancePolicy.DEFERRED,
    )
    maintainer.define_view(
        "digest",
        BaseRef("s").select("D >= 2").project(["C"]),
        policy=MaintenancePolicy.DEFERRED,
    )
    clock = TickClock()
    scheduler = RefreshScheduler(maintainer, clock=clock, batch_limit=1)
    scheduler.declare_sla("joined", StalenessSLA(max_pending_commits=5))
    scheduler.declare_sla(
        "digest", StalenessSLA(max_pending_commits=9, max_lag_ticks=12)
    )
    monitor = Monitor(maintainer, scheduler)
    monitor.begin(clock.now)
    # Rows deleted are always rows previously inserted (tracked in
    # ``live``), so every seeded transaction is legal.
    live: dict[str, list[tuple[int, int]]] = {
        "r": [(a, (a * 3) % 7) for a in range(7)],
        "s": [(c, (c + 2) % 7) for c in range(7)],
    }
    for _ in range(commits):
        name = rng.choice(("r", "r", "s"))
        with database.transact() as txn:
            if live[name] and rng.random() < 0.35:
                victim = live[name].pop(rng.randrange(len(live[name])))
                txn.delete(name, victim)
            row = (rng.randrange(7), rng.randrange(7))
            txn.insert(name, row)
            live[name].append(row)
        clock.advance(1)
        scheduler.note_commit()
        if clock.now % 3 == 0:
            scheduler.tick()
    report = monitor.report(clock.now)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(report.as_json() + "\n")
        emit(f"wrote JSON report to {json_path}")
    if html_path:
        with open(html_path, "w", encoding="utf-8") as handle:
            handle.write(report.as_html() + "\n")
        emit(f"wrote HTML report to {html_path}")
    if not json_path and not html_path:
        emit(report.as_json())
    return 0


def repl(shell: Shell | None = None) -> int:  # pragma: no cover - interactive
    """The interactive loop behind ``python -m repro.cli``."""
    shell = shell if shell is not None else Shell()
    print("repro shell — materialized views per Blakeley/Larson/Tompa 1986.")
    print("Type 'help' for commands, 'quit' to leave.")
    while True:
        try:
            line = input("repro> ")
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        try:
            output = shell.execute(line)
        except EOFError:
            return 0
        except ReproError as exc:
            output = f"error: {exc}"
        if output:
            print(output)


def main(argv: list[str] | None = None) -> int:
    """Entry point: shell by default, ``recover``/``follow`` verbs."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv:
        return repl()

    parser = argparse.ArgumentParser(prog="repro.cli", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    recover_parser = commands.add_parser(
        "recover", help="rebuild a database from checkpoint + WAL tail"
    )
    recover_parser.add_argument("directory")
    recover_parser.add_argument(
        "--shell",
        action="store_true",
        help="open the interactive shell on the recovered database",
    )
    follow_parser = commands.add_parser(
        "follow", help="tail a WAL directory's committed transactions"
    )
    follow_parser.add_argument("directory")
    follow_parser.add_argument(
        "--from",
        dest="after",
        type=int,
        default=0,
        metavar="N",
        help="start after WAL sequence N (default 0: from the beginning)",
    )
    follow_parser.add_argument(
        "--once", action="store_true", help="drain the log and exit"
    )
    follow_parser.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="S",
        help="poll interval in seconds when not --once",
    )
    serve_parser = commands.add_parser(
        "serve", help="recover a database and serve it over TCP"
    )
    serve_parser.add_argument("directory")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=7707)
    serve_parser.add_argument(
        "--view",
        dest="views",
        action="append",
        default=[],
        metavar="NAME=SPEC",
        help=(
            "define one served view with the shell grammar, e.g. "
            "'hot=r join s where C > 5 select A, C' (repeatable)"
        ),
    )
    cluster_parser = commands.add_parser(
        "serve-cluster",
        help="recover a database and serve it as a sharded cluster",
    )
    cluster_parser.add_argument("directory")
    cluster_parser.add_argument("--host", default="127.0.0.1")
    cluster_parser.add_argument("--port", type=int, default=7707)
    cluster_parser.add_argument(
        "--shards", type=int, default=2, help="shard count (default 2)"
    )
    cluster_parser.add_argument(
        "--partition",
        dest="partitions",
        action="append",
        default=[],
        metavar="REL:KEY:B1,B2,...",
        help=(
            "partition one relation by an integer key with N-1 strictly "
            "increasing boundaries, e.g. 'r:A:10,20' (repeatable; "
            "unlisted relations replicate to every shard)"
        ),
    )
    cluster_parser.add_argument(
        "--view",
        dest="views",
        action="append",
        default=[],
        metavar="NAME=SPEC",
        help=(
            "define one served view with the shell grammar; it must "
            "reference exactly one partitioned relation (repeatable)"
        ),
    )
    simulate_parser = commands.add_parser(
        "simulate",
        help="run the deterministic fault-injection simulator",
    )
    simulate_parser.add_argument(
        "--seed", type=int, default=0, help="master seed (default 0)"
    )
    simulate_parser.add_argument(
        "--episodes", type=int, default=10, help="episodes to run (default 10)"
    )
    simulate_parser.add_argument(
        "--events", type=int, default=40, help="events per episode (default 40)"
    )
    simulate_parser.add_argument(
        "--followers", type=int, help="replica count (default 1)"
    )
    simulate_parser.add_argument(
        "--base-free-followers", type=int,
        help=(
            "extra replicas hosting self-maintainable views without "
            "base-relation copies (default 1; docs/scheduler.md)"
        ),
    )
    simulate_parser.add_argument(
        "--clients", type=int, help="changefeed clients (default 2)"
    )
    simulate_parser.add_argument(
        "--no-crashes", action="store_true", help="disable crash/recovery events"
    )
    simulate_parser.add_argument(
        "--no-partitions", action="store_true",
        help="disable partitions, stalls and lossy links",
    )
    simulate_parser.add_argument(
        "--no-ddl", action="store_true", help="disable DDL and view churn"
    )
    simulate_parser.add_argument(
        "--corruption", action="store_true",
        help="inject bit-flip corruption (episodes end at the injection)",
    )
    simulate_parser.add_argument(
        "--trace", action="store_true", help="print every episode's full trace"
    )
    simulate_parser.add_argument(
        "--sharded", action="store_true",
        help="simulate a sharded cluster instead (docs/cluster.md)",
    )
    simulate_parser.add_argument(
        "--shards", type=int, help="shard count for --sharded (default 3)"
    )
    simulate_parser.add_argument(
        "--broadcast", action="store_true",
        help="with --sharded: disable analyzer-driven delta skipping",
    )
    simulate_parser.add_argument(
        "--base-free", action="store_true",
        help=(
            "with --sharded: non-home shards drop their base-relation "
            "copies and maintain views from shipped deltas alone"
        ),
    )
    simulate_parser.add_argument(
        "--keyed", action="store_true",
        help=(
            "with --sharded: declare a key on the partitioned relation; "
            "with --base-free this lifts the home-range workload "
            "restriction via key-occupancy tracking"
        ),
    )
    monitor_parser = commands.add_parser(
        "monitor",
        help="render a staleness report over a seeded synthetic workload",
    )
    monitor_parser.add_argument(
        "--seed", type=int, default=0, help="workload seed (default 0)"
    )
    monitor_parser.add_argument(
        "--commits", type=int, default=150,
        help="transactions to drive through the window (default 150)",
    )
    monitor_parser.add_argument(
        "--json", dest="json_path", metavar="PATH",
        help="write the JSON report to PATH instead of stdout",
    )
    monitor_parser.add_argument(
        "--html", dest="html_path", metavar="PATH",
        help="also write the standalone HTML report to PATH",
    )
    analyze_parser = commands.add_parser(
        "analyze",
        help="statically analyze view definitions from spec files",
    )
    analyze_parser.add_argument(
        "files", nargs="+", metavar="FILE",
        help="spec file(s) of shell commands building one catalog",
    )
    analyze_parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    analyze_parser.add_argument(
        "--source", action="store_true",
        help="also print each view's generated kernel source",
    )
    options = parser.parse_args(argv)

    try:
        if options.command == "recover":
            summary, database = run_recover(options.directory)
            print(summary)
            if options.shell:  # pragma: no cover - interactive
                return repl(Shell(database))
            return 0
        if options.command == "simulate":
            return run_simulate(trace=options.trace, **simulate_fields(options))
        if options.command == "monitor":
            return run_monitor(
                seed=options.seed,
                commits=options.commits,
                json_path=options.json_path,
                html_path=options.html_path,
            )
        if options.command == "analyze":
            return run_analyze(
                options.files,
                as_json=options.json,
                show_source=options.source,
            )
        if options.command == "serve":
            return run_serve(
                options.directory,
                host=options.host,
                port=options.port,
                view_options=options.views,
            )
        if options.command == "serve-cluster":
            return run_serve_cluster(
                options.directory,
                shards=options.shards,
                partition_options=options.partitions,
                view_options=options.views,
                host=options.host,
                port=options.port,
            )
        run_follow(
            options.directory,
            after=options.after,
            once=options.once,
            interval=options.interval,
        )
        return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive
        print()
        return 0
    except ReproError as exc:
        # One line on stderr, exit 1 — never a traceback: a missing or
        # corrupt directory is an operator mistake, not a library bug.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
