"""The catalog is database state.

A constraint lets Theorem 4.1 drop a relation's updates unseen, and a
key makes Section 5.2's multiplicity counters unnecessary (the
``counter_free`` kernels).  Both are declared premises, so every path
that rebuilds a database must rebuild them too.  Each test below builds
the same database — a constraint, a key and a foreign key — by one such
path and checks that the copy still rejects the commits the original
rejects, and still compiles the counter-free, FK-reduced plan the
original compiles:

* a checkpoint's ``build_database``, ``Recovery``, a ``Follower`` and
  ``save_database`` / ``load_database``;
* ``serve`` and ``serve-cluster`` over a durability directory, through
  the wire.

The second half pins the other side of the same rule: a relation a
registered view reads cannot be dropped (SQL's ``RESTRICT``), and a
refused drop leaves the relation, its indexes, its constraint and its
keys in place.
"""

import asyncio
import io
import threading

import pytest

from repro.algebra.expressions import BaseRef
from repro.cli import run_serve, run_serve_cluster
from repro.core.maintainer import ViewMaintainer
from repro.engine.database import Database
from repro.engine.persistence import (
    database_to_document,
    load_database,
    save_database,
)
from repro.errors import (
    ConstraintViolationError,
    KeyViolationError,
    MaintenanceError,
)
from repro.replication.checkpoints import Checkpoint, write_checkpoint
from repro.replication.durability import DurabilityManager
from repro.replication.follower import Follower
from repro.replication.recovery import Recovery
from repro.server import ViewClient, protocol
from repro.server.protocol import ServerError
from tests.reference import evaluate

#: r's rows reach p through the foreign key onto p's key: the view is
#: FK-reducible and, keyed, counter-free.
FK_JOIN = BaseRef("r").join(BaseRef("p")).project(["A", "B"])


def catalog_database() -> Database:
    """p(B, C) with key (B) and the constraint C >= 0; r(A, B) with the
    foreign key r(B) → p(B)."""
    db = Database()
    db.create_relation("p", ["B", "C"], [(b, b * 10) for b in range(4)])
    db.create_relation("r", ["A", "B"], [(1, 0), (2, 1), (3, 1)])
    db.declare_constraint("p", "C >= 0")
    db.declare_key("p", ["B"])
    db.declare_foreign_key("r", ["B"], "p", ["B"])
    return db


def catalog_of(db: Database) -> dict:
    doc = database_to_document(db)
    return {part: doc[part] for part in ("constraints", "keys", "foreign_keys")}


def assert_catalog_holds(db: Database) -> None:
    """``db`` declares the original's catalog and enforces all of it."""
    assert catalog_of(db) == catalog_of(catalog_database())
    with pytest.raises(KeyViolationError, match=r"key \(B\) on 'p'"):
        db.apply(inserts={"p": [(1, 99)]})
    with pytest.raises(KeyViolationError, match="foreign key"):
        db.apply(inserts={"r": [(9, 77)]})
    with pytest.raises(ConstraintViolationError, match="C >= 0"):
        db.apply(inserts={"p": [(8, -1)]})


def assert_counter_free(maintainer: ViewMaintainer) -> None:
    plan = maintainer.peek_plan("v")
    assert plan.counter_free and plan.reduction is not None


def durable_directory(tmp_path) -> str:
    """A checkpoint of the catalog database with ``v``, then one commit."""
    directory = str(tmp_path / "wal")
    db = catalog_database()
    maintainer = ViewMaintainer(db)
    maintainer.define_view("v", FK_JOIN)
    assert_counter_free(maintainer)
    durability = DurabilityManager(db, directory, sync="never")
    durability.checkpoint(maintainer)
    db.apply(inserts={"r": [(4, 2)]})
    durability.close()
    return directory


class TestEveryRebuildKeepsTheCatalog:
    def test_checkpoint_build_database(self, tmp_path):
        path = write_checkpoint(str(tmp_path), catalog_database(), 0)
        rebuilt = Checkpoint.load(path).build_database()
        maintainer = ViewMaintainer(rebuilt)
        maintainer.define_view("v", FK_JOIN)
        assert_counter_free(maintainer)
        assert_catalog_holds(rebuilt)

    def test_recovery(self, tmp_path):
        recovery = Recovery(durable_directory(tmp_path))
        maintainer = ViewMaintainer(recovery.database)
        recovery.restore_view(maintainer, "v", FK_JOIN)
        assert_counter_free(maintainer)
        assert recovery.replay() == 1
        assert_catalog_holds(recovery.database)
        maintainer.verify_all()

    def test_follower(self, tmp_path):
        follower = Follower(durable_directory(tmp_path))
        follower.define_view("v", FK_JOIN)
        assert_counter_free(follower.maintainer)
        assert follower.poll() == 1
        assert_catalog_holds(follower.database)

    def test_save_and_load(self):
        buffer = io.StringIO()
        save_database(catalog_database(), buffer)
        buffer.seek(0)
        loaded = load_database(buffer)
        maintainer = ViewMaintainer(loaded)
        maintainer.define_view("v", FK_JOIN)
        assert_counter_free(maintainer)
        assert_catalog_holds(loaded)


def serving(target, **kwargs):
    """Run a serve verb on a thread until the block ends; yields the
    port it bound."""
    captured: dict = {}
    started = threading.Event()

    def on_start(server) -> None:
        captured["server"] = server
        captured["loop"] = asyncio.get_running_loop()
        started.set()

    thread = threading.Thread(
        target=target,
        kwargs=dict(port=0, emit=lambda line: None, on_start=on_start, **kwargs),
    )
    thread.start()
    try:
        assert started.wait(10), "the server never started"
        yield captured["server"].port
    finally:
        if "server" in captured:
            asyncio.run_coroutine_threadsafe(
                captured["server"].shutdown(), captured["loop"]
            ).result(10)
        thread.join(10)


class TestServedCopiesKeepTheCatalog:
    def test_serve_answers_a_key_violating_txn_with_txn_failed(self, tmp_path):
        directory = durable_directory(tmp_path)
        for port in serving(
            run_serve, directory=directory, view_options=["v=r join p select A, B"]
        ):
            with ViewClient(port=port) as client:
                with pytest.raises(ServerError) as raised:
                    client.txn(insert={"p": [[1, 99]]})
                assert raised.value.code == protocol.E_TXN_FAILED
                assert "key (B)" in str(raised.value)
                assert client.txn(insert={"p": [[9, 90]]})["seq"] == 2

    def test_serve_cluster_nacks_a_colliding_insert(self, tmp_path):
        directory = durable_directory(tmp_path)
        for port in serving(
            run_serve_cluster,
            directory=directory,
            shards=2,
            partition_options=["r:A:2"],
        ):
            with ViewClient(port=port) as client:
                with pytest.raises(ServerError) as raised:
                    client.txn(insert={"p": [[1, 99]]})
                assert raised.value.code == protocol.E_TXN_FAILED
                assert "key (B)" in str(raised.value)
                assert client.txn(insert={"p": [[9, 90]]})["seq"] == 1


class TestRestrict:
    """A relation a registered view reads cannot be dropped."""

    def test_a_view_does_not_outlive_its_operand(self):
        # Dropping s, re-creating it with other rows and inserting into
        # r once left the view "1 missing, 1 unexpected".
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 1)])
        db.create_relation("s", ["B", "C"], [(1, 5)])
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", BaseRef("r").join(BaseRef("s")))
        with pytest.raises(MaintenanceError, match=r"read by views \['v'\]"):
            db.drop_relation("s")
        db.apply(inserts={"r": [(2, 1)]})
        maintainer.verify_all()
        assert maintainer.view("v").contents == evaluate(
            BaseRef("r").join(BaseRef("s")), db.instances()
        )

    def test_a_refused_drop_leaves_everything_in_place(self):
        db = catalog_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", FK_JOIN)
        db.apply(inserts={"r": [(5, 3)]})  # binds the plan's probe index
        relation = db.relation("p")
        indexes = dict(relation.indexes)
        before = catalog_of(db)
        with pytest.raises(MaintenanceError, match="cannot drop relation 'p'"):
            db.drop_relation("p")
        assert db.relation("p") is relation
        assert dict(relation.indexes) == indexes
        assert catalog_of(db) == before
        assert_catalog_holds(db)
        maintainer.verify_all()

    def test_the_drop_goes_through_once_no_view_reads_it(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 1)])
        db.create_relation("s", ["B", "C"], [(1, 5)])
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", BaseRef("r").join(BaseRef("s")))
        maintainer.define_view("w", BaseRef("r"))
        maintainer.drop_view("v")
        db.drop_relation("s")
        assert db.relation_names() == ("r",)
        with pytest.raises(MaintenanceError, match=r"\['w'\]"):
            db.drop_relation("r")
