"""Unit tests for the interactive shell and the CLI verbs."""

import asyncio
import threading

import pytest

from repro.cli import (
    Shell,
    ShellError,
    main,
    parse_view_expression,
    parse_view_option,
    run_serve,
)
from repro.core.maintainer import ViewMaintainer
from repro.engine.database import Database
from repro.errors import ReproError
from repro.replication.durability import DurabilityManager
from repro.replication.follower import Follower
from repro.server import ViewClient


@pytest.fixture
def shell():
    return Shell()


def _setup_sales(shell):
    shell.execute("create table r (A, B)")
    shell.execute("create table s (B, C)")
    shell.execute("insert into r values (1, 10), (2, 20)")
    shell.execute("insert into s values (10, 5), (20, 6)")


class TestTables:
    def test_create_table(self, shell):
        out = shell.execute("create table r (A, B)")
        assert "created table r(A, B)" == out
        assert shell.execute("tables") == "r"

    def test_create_table_no_attrs(self, shell):
        with pytest.raises(ShellError):
            shell.execute("create table r ()")

    def test_insert_and_show(self, shell):
        shell.execute("create table r (A, B)")
        out = shell.execute("insert into r values (1, 2), (3, 4)")
        assert "2 row(s) inserted" in out
        shown = shell.execute("show r")
        assert "1" in shown and "3" in shown

    def test_delete(self, shell):
        shell.execute("create table r (A)")
        shell.execute("insert into r values (1), (2)")
        shell.execute("delete from r values (1)")
        assert "2" in shell.execute("show r")
        assert " 1 " not in shell.execute("show r")

    def test_non_integer_values_rejected(self, shell):
        shell.execute("create table r (A)")
        with pytest.raises(ShellError):
            shell.execute("insert into r values (abc)")

    def test_insert_without_rows_rejected(self, shell):
        shell.execute("create table r (A)")
        with pytest.raises(ShellError):
            shell.execute("insert into r values")


class TestViews:
    def test_create_simple_view(self, shell):
        _setup_sales(shell)
        out = shell.execute("create view v as r where A < 2")
        assert "created immediate view v (1 tuples)" == out
        assert shell.execute("views") == "v"

    def test_join_where_select(self, shell):
        _setup_sales(shell)
        shell.execute("create view v as r join s where C > 5 select A, C")
        shown = shell.execute("show v")
        assert "x1" in shown
        # only (2, 6) qualifies
        assert "6" in shown

    def test_view_is_maintained(self, shell):
        _setup_sales(shell)
        shell.execute("create view v as r where B >= 20")
        shell.execute("insert into r values (9, 30)")
        assert "30" in shell.execute("show v")

    def test_deferred_view_and_refresh(self, shell):
        _setup_sales(shell)
        shell.execute("create view v deferred as r where B >= 20")
        shell.execute("insert into r values (9, 30)")
        assert "30" not in shell.execute("show v")
        assert shell.execute("refresh v") == "refreshed v"
        assert "30" in shell.execute("show v")
        assert "already current" in shell.execute("refresh v")

    def test_stats(self, shell):
        _setup_sales(shell)
        shell.execute("create view v as r where B >= 20")
        shell.execute("insert into r values (9, 30)")
        stats = shell.execute("stats v")
        assert "transactions_seen: 1" in stats

    def test_drop_view(self, shell):
        _setup_sales(shell)
        shell.execute("create view v as r")
        shell.execute("drop view v")
        assert shell.execute("views") == "(no views)"

    def test_stacked_view(self, shell):
        _setup_sales(shell)
        shell.execute("create view joined as r join s")
        shell.execute("create view hot as joined where C > 5 select A")
        shell.execute("insert into r values (9, 20)")
        assert "9" in shell.execute("show hot")

    def test_explain(self, shell):
        _setup_sales(shell)
        shell.execute("create view v as r join s select A, C")
        text = shell.execute("explain v changing r")
        assert "rows to evaluate: 1" in text
        assert "hash-join" in text

    def test_explain_bare_form_assumes_all_relations_changed(self, shell):
        _setup_sales(shell)
        shell.execute("create view v as r join s select A, C")
        text = shell.execute("explain v")
        assert "compiled plan for view 'v'" in text
        assert text == shell.execute("explain v changing r, s")

    def test_explain_usage_error(self, shell):
        _setup_sales(shell)
        shell.execute("create view v as r")
        with pytest.raises(ShellError):
            shell.execute("explain v bogus trailing words")

    def test_explain_source_prints_generated_kernels(self, shell):
        _setup_sales(shell)
        shell.execute("create view v as r join s select A, C")
        source = shell.execute("explain v source")
        assert "generated kernels for view 'v'" in source
        assert "def screen_kernel" in source
        assert "def row_kernel" in source
        # Determinism: asking twice prints byte-identical source.
        assert source == shell.execute("explain v source")

    def test_stats_includes_codegen_counters(self, shell):
        _setup_sales(shell)
        shell.execute("create view v as r join s select A, C")
        stats = shell.execute("stats v")
        assert "codegen_plans_compiled:" in stats
        assert "codegen_batch_rows:" in stats
        assert "codegen_fallback_tuples:" in stats

    def test_recommend_and_create_indexes(self, shell):
        _setup_sales(shell)
        shell.execute("create view v as r join s")
        recommendations = shell.execute("recommend indexes v")
        assert "create index on" in recommendations
        # The recommendations are themselves executable commands.
        for command in recommendations.splitlines():
            assert "created index on" in shell.execute(command)
        assert shell.maintainer.database.relation("s").indexes.get(("B",)) is not None

    def test_recommend_indexes_none_needed(self, shell):
        _setup_sales(shell)
        shell.execute("create view v as r where A < 5")
        assert "needs no indexes" in shell.execute("recommend indexes v")

    def test_create_index_requires_attrs(self, shell):
        _setup_sales(shell)
        with pytest.raises(ShellError):
            shell.execute("create index on r ()")


class TestShellPlumbing:
    def test_empty_line(self, shell):
        assert shell.execute("") == ""
        assert shell.execute("   ;  ") == ""

    def test_help(self, shell):
        assert "create table" in shell.execute("help")

    def test_quit_raises_eof(self, shell):
        with pytest.raises(EOFError):
            shell.execute("quit")
        with pytest.raises(EOFError):
            shell.execute("exit")

    def test_unparseable_line(self, shell):
        with pytest.raises(ShellError):
            shell.execute("select * from nowhere")

    def test_errors_are_repro_errors(self, shell):
        # Library errors bubble out as ReproError subclasses so the
        # REPL loop can present them uniformly.
        with pytest.raises(ReproError):
            shell.execute("show missing_table")

    def test_empty_catalogs(self, shell):
        assert shell.execute("tables") == "(no tables)"
        assert shell.execute("views") == "(no views)"

    def test_case_insensitive_keywords(self, shell):
        shell.execute("CREATE TABLE r (A)")
        shell.execute("INSERT INTO r VALUES (1)")
        assert "1 row(s) inserted" in shell.execute("Insert Into r Values (2)")


# ----------------------------------------------------------------------
# The serve --view grammar
# ----------------------------------------------------------------------
class TestViewOptions:
    def test_parse_view_option(self):
        name, expression = parse_view_option("hot=r join s where C > 5 select A, C")
        assert name == "hot"
        assert expression.base_names() == ("r", "s")

    def test_parse_view_option_bad_format(self):
        for text in ("no-equals-here", "=spec", "name=", "name=   "):
            with pytest.raises(ShellError):
                parse_view_option(text)

    def test_parse_view_expression_needs_a_relation(self):
        with pytest.raises(ShellError):
            parse_view_expression("   ")


# ----------------------------------------------------------------------
# CLI verbs: one-line errors, never tracebacks
# ----------------------------------------------------------------------
def _durable_dir(tmp_path) -> str:
    """A WAL directory: checkpoint of r/s + view hot, then one commit."""
    directory = str(tmp_path / "wal")
    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 10)])
    db.create_relation("s", ["B", "C"], [(10, 5)])
    maintainer = ViewMaintainer(db)
    maintainer.define_view(
        "hot", parse_view_expression("r join s where C > 4 select A, C")
    )
    durability = DurabilityManager(db, directory, sync="never")
    durability.checkpoint(maintainer)
    with db.transact() as txn:
        txn.insert("r", (2, 10))
    durability.close()
    return directory


def _assert_one_line_error(capsys, code: int) -> None:
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err


class TestVerbErrors:
    def test_recover_missing_directory(self, tmp_path, capsys):
        code = main(["recover", str(tmp_path / "nope")])
        _assert_one_line_error(capsys, code)

    def test_recover_corrupt_checkpoint(self, tmp_path, capsys):
        (tmp_path / "checkpoint-000001.json").write_text("{ not json")
        code = main(["recover", str(tmp_path)])
        _assert_one_line_error(capsys, code)

    def test_follow_missing_directory(self, tmp_path, capsys):
        code = main(["follow", str(tmp_path / "nope"), "--once"])
        _assert_one_line_error(capsys, code)

    def test_follow_corrupt_segment(self, tmp_path, capsys):
        (tmp_path / "wal-abc.jsonl").write_text("garbage\n")
        code = main(["follow", str(tmp_path), "--once"])
        _assert_one_line_error(capsys, code)

    def test_serve_missing_directory(self, tmp_path, capsys):
        code = main(["serve", str(tmp_path / "nope"), "--port", "0"])
        _assert_one_line_error(capsys, code)

    def test_serve_corrupt_checkpoint(self, tmp_path, capsys):
        (tmp_path / "checkpoint-000007.json").write_text("]certainly not json")
        code = main(["serve", str(tmp_path), "--port", "0"])
        _assert_one_line_error(capsys, code)

    def test_serve_bad_view_spec(self, tmp_path, capsys):
        directory = _durable_dir(tmp_path)
        code = main(["serve", directory, "--port", "0", "--view", "malformed"])
        _assert_one_line_error(capsys, code)


class TestVerbHappyPaths:
    def test_recover_summary(self, tmp_path, capsys):
        directory = _durable_dir(tmp_path)
        code = main(["recover", directory])
        captured = capsys.readouterr()
        assert code == 0
        assert "replayed 1 transaction(s)" in captured.out
        assert "r: 2 tuples" in captured.out
        assert "hot" in captured.out  # checkpointed view is listed

    def test_follow_prints_records(self, tmp_path, capsys):
        directory = _durable_dir(tmp_path)
        code = main(["follow", directory, "--once"])
        captured = capsys.readouterr()
        assert code == 0
        assert "seq=1" in captured.out
        assert "r:+1/-0" in captured.out

    def test_serve_round_trip(self, tmp_path):
        directory = _durable_dir(tmp_path)
        captured: dict = {}
        started = threading.Event()
        emitted: list[str] = []

        def on_start(server) -> None:
            captured["server"] = server
            captured["loop"] = asyncio.get_running_loop()
            started.set()

        thread = threading.Thread(
            target=run_serve,
            kwargs=dict(
                directory=directory,
                port=0,
                view_options=["hot=r join s where C > 4 select A, C"],
                emit=emitted.append,
                on_start=on_start,
            ),
        )
        thread.start()
        try:
            assert started.wait(10), "serve never started"
            server = captured["server"]
            with ViewClient(port=server.port) as client:
                # The --view adopted the checkpointed contents, then the
                # WAL tail caught it up differentially.
                answer = client.query("hot")
                assert answer["rows"] == [[1, 5], [2, 5]]
                # A served commit keeps the database durable.
                result = client.txn(insert={"r": [[3, 10]]})
                assert client.stats()["wal_position"] == result["seq"] == 2
        finally:
            asyncio.run_coroutine_threadsafe(
                captured["server"].shutdown(), captured["loop"]
            ).result(10)
            thread.join(10)
        assert emitted and "replayed 1 WAL transaction(s)" in emitted[0]
        assert "views: hot" in emitted[0]
        # The commit reached the WAL on disk: a follower replays it.
        follower = Follower(directory)
        follower.poll()
        assert follower.position == 2
        assert (3, 10) in follower.database.relation("r")
