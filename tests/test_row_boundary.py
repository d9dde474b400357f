"""A row is encoded once, at the edge.

Section 3 maps every domain onto the naturals; ``coerce_row`` is the one
door from raw rows to encoded tuples, and nothing behind the API edge
walks back through it.  Three kinds of pin:

* the source under ``src/repro`` is read with ``ast``: ``coerce_row`` is
  referenced only by the edge modules, and the modules that hold encoded
  tuples build no ``Row`` around them;
* ``RelationSchema.encode_values`` is counted over a whole write —
  transaction, commit, view maintenance, WAL append — and runs once per
  row;
* a relation with a label column (a non-identity encoding, where a
  second coercion is a ``DomainError`` and not just wasted time) goes
  through every write path end to end.
"""

import ast
import json
from pathlib import Path

import pytest

from repro import BaseRef, Database, DurabilityManager, ViewMaintainer, recover
from repro.algebra.conditions import Condition
from repro.algebra.domains import FiniteDomain, StringDomain
from repro.algebra.schema import Attribute, RelationSchema
from repro.algebra.tuples import Row
from repro.cluster import ClusterTopology, PartitionSpec, ShardNode
from repro.engine.log import replay_records
from repro.engine.persistence import relation_to_document
from repro.errors import DomainError, SchemaError
from repro.extensions.alerters import AlertEvent, AlerterRegistry
from repro.replication.wal import WalReader
from repro.server import ServerConfig, ServerHandle, ViewClient, ViewServer

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The modules that take raw rows from outside; the list lives here.
EDGE_MODULES = {
    "algebra/tuples.py",
    "algebra/relation.py",
    "engine/transactions.py",
    "engine/database.py",
    "engine/persistence.py",
}

#: Modules that hold encoded tuples and once wrapped them in ``Row`` so
#: that a raw-row API would not encode them a second time.
NO_ROW_CONSTRUCTION = ("engine/log.py", "core/counting.py", "cluster/")


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(
            path.read_text(encoding="utf-8")
        )


def _mentions(tree: ast.AST, name: str) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        if isinstance(node, ast.ImportFrom) and any(
            alias.name == name for alias in node.names
        ):
            return True
    return False


def test_coerce_row_is_referenced_only_by_the_edge_modules():
    modules = dict(_modules())
    assert EDGE_MODULES <= modules.keys(), "an edge module moved: update the list"
    offenders = [
        module
        for module, tree in modules.items()
        if module not in EDGE_MODULES and _mentions(tree, "coerce_row")
    ]
    assert offenders == []


def test_encoded_side_modules_construct_no_row():
    offenders = [
        module
        for module, tree in _modules()
        if module.startswith(NO_ROW_CONSTRUCTION)
        and any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Row"
            for node in ast.walk(tree)
        )
    ]
    assert offenders == []


# ----------------------------------------------------------------------
# The contract by count
# ----------------------------------------------------------------------
@pytest.fixture
def encode_calls(monkeypatch):
    calls = []
    encode_values = RelationSchema.encode_values

    def counted(self, values):
        calls.append(values)
        return encode_values(self, values)

    monkeypatch.setattr(RelationSchema, "encode_values", counted)
    return calls


@pytest.mark.parametrize("shape", [tuple, list])
def test_a_written_row_is_encoded_exactly_once(tmp_path, encode_calls, shape):
    db = Database()
    initial = [(a, a % 5) for a in range(20)]
    db.create_relation("r", ["A", "B"], initial)
    assert len(encode_calls) == len(initial)
    db.create_relation("s", ["B", "C"], [(b, b) for b in range(5)])
    maintainer = ViewMaintainer(db)
    view = maintainer.define_view(
        "v", BaseRef("r").join(BaseRef("s")).project(["A", "C"])
    )
    durability = DurabilityManager(db, str(tmp_path))
    del encode_calls[:]

    inserts = [shape((100 + a, a % 5)) for a in range(12)]
    deletes = [shape(row) for row in initial[:7]]
    deltas = db.apply(inserts={"r": inserts}, deletes={"r": deletes})
    durability.close()

    assert len(encode_calls) == len(inserts) + len(deletes)
    assert deltas["r"].insert_count() == 12 and deltas["r"].delete_count() == 7
    assert len(view.contents) == 20 - 7 + 12
    assert len(list(WalReader(str(tmp_path)).records())) == 1
    maintainer.verify_all()


@pytest.mark.parametrize(
    "base_free, keys",
    [(False, {}), (True, {}), (True, {"r": [("A",)]})],
    ids=["False", "True", "keyed"],
)
def test_a_prepared_cluster_batch_is_encoded_exactly_once(
    encode_calls, base_free, keys
):
    # Shard 0 of two owns A <= 49; its constraint is B = A + 1 and that
    # range.  With the key, a base-free shard tracks key occupancy.
    shard = ShardNode(
        0,
        ClusterTopology(2, [PartitionSpec("r", "A", (49,))]),
        {"r": ["A", "B"]},
        {"r": [(1, 2), (2, 3), (60, 61)]},
        {"r": Condition.coerce("B = A + 1")},
        [("low", BaseRef("r").select("B < 5"))],
        base_free=base_free,
        keys=keys,
    )
    del encode_calls[:]

    def prepare(txn, inserts, deletes=()):
        (reply,) = shard.handle(
            {
                "kind": "prepare",
                "txn": txn,
                "inserts": {"r": inserts},
                "deletes": {"r": list(deletes)},
            }
        )
        return reply

    inserts = [[3, 4], [4, 5], [5, 6], [1, 2]]
    assert prepare(1, inserts, [[2, 3]])["kind"] == "prepared"
    assert len(encode_calls) == len(inserts) + 1
    # The check still sees every row it must reject — the declared
    # constraint's and the shard's range's — from the one encoding.
    for txn, bad in ((2, (4, 12)), (3, (70, 71))):
        del encode_calls[:]
        reply = prepare(txn, [[6, 7], list(bad)])
        assert reply["kind"] == "nack" and str(bad) in reply["error"]
        assert len(encode_calls) == 2


# ----------------------------------------------------------------------
# A label column through every write path
# ----------------------------------------------------------------------
COLOR = StringDomain(["red", "green", "blue"])
ITEM = RelationSchema(
    [Attribute("id"), Attribute("color", COLOR), Attribute("size", FiniteDomain(0, 9))]
)
#: color and qty of the items in stock: the label column reaches the view.
IN_STOCK = (
    BaseRef("item")
    .join(BaseRef("stock"))
    .select("qty > 2")
    .project(["color", "qty"])
)


def labelled_database() -> Database:
    db = Database()
    db.create_relation("item", ITEM, [(1, "green", 3), [2, "blue", 4]])
    db.create_relation("stock", ["id", "qty"], [(1, 5), (2, 1), (3, 9)])
    return db


def decoded(relation) -> dict:
    return {
        relation.schema.decode_values(values): count
        for values, count in relation.items()
    }


def document_bytes(relation) -> str:
    return json.dumps(relation_to_document(relation), sort_keys=True)


class TestLabelColumn:
    def test_every_row_shape_and_operation(self):
        db = labelled_database()
        with db.transact() as txn:
            txn.insert("item", (3, "red", 1))
            txn.insert("item", [4, "blue", 9])
            txn.insert("item", {"id": 5, "color": "red", "size": 0})
            txn.insert("item", Row(ITEM, (6, 1, 2)))  # a Row carries codes
            txn.delete("item", (2, "blue", 4))
            txn.update("item", (1, "green", 3), (1, "red", 3))
            txn.insert_many("item", [(7, "green", 7), [8, "green", 8]])
            txn.delete_many("item", [{"id": 8, "color": "green", "size": 8}])
        assert decoded(db.relation("item")) == {
            (1, "red", 3): 1,
            (3, "red", 1): 1,
            (4, "blue", 9): 1,
            (5, "red", 0): 1,
            (6, "green", 2): 1,
            (7, "green", 7): 1,
        }

    def test_net_effect_cancellation(self):
        db = labelled_database()
        txn = db.begin()
        txn.insert("item", (9, "red", 1))
        txn.delete("item", [9, "red", 1])  # inserted here: cancels
        txn.delete("item", (1, "green", 3))
        txn.insert("item", (1, "green", 3))  # deleted here: cancels
        txn.insert("item", (2, "blue", 4))  # present: no-op
        txn.delete("item", (2, "red", 4))  # absent: no-op
        assert txn.net_deltas() == {}
        txn.insert("item", (9, "blue", 1))
        assert txn.commit()["item"].inserted == {(9, 2, 1): 1}

    def test_bad_rows_are_still_rejected(self):
        db = labelled_database()
        txn = db.begin()
        for row in [(9, "mauve", 1), (9, 0, 1), (9, "red", 10), (9, "red", True)]:
            with pytest.raises(DomainError):
                txn.insert("item", row)
        with pytest.raises(SchemaError):
            txn.insert("item", (9, "red"))
        with pytest.raises(DomainError):
            txn.insert_many("item", [(9, "red", 1), (10, "nope", 1), (11, "red", 1)])
        # The rows before the bad one stay pending; the rest were not reached.
        assert txn.net_deltas()["item"].inserted == {(9, 0, 1): 1}

    def test_join_view_is_maintained(self):
        db = labelled_database()
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("in_stock", IN_STOCK)
        assert decoded(view.contents) == {("green", 5): 1}
        db.apply(
            inserts={"item": [(3, "red", 1)], "stock": [(2, 7)]},
            deletes={"item": [(1, "green", 3)], "stock": [(2, 1)]},
        )
        assert decoded(view.contents) == {("red", 9): 1, ("blue", 7): 1}
        maintainer.verify_all()

    def test_checkpoint_wal_and_recovery(self, tmp_path):
        directory = str(tmp_path)
        db = labelled_database()
        durability = DurabilityManager(db, directory)
        maintainer = ViewMaintainer(db)
        maintainer.define_view("in_stock", IN_STOCK)
        db.apply(inserts={"item": [(3, "red", 1)]})
        durability.checkpoint(maintainer)
        db.apply(inserts={"item": [[4, "blue", 2]], "stock": [(4, 8)]})
        db.apply(deletes={"item": [(1, "green", 3)]})
        durability.close()

        tail = [record.deltas_doc for record in WalReader(directory).records()]
        assert tail[-1] == {"item": {"inserted": [], "deleted": [[1, "green", 3]]}}

        recovery, recovered = recover(
            directory,
            lambda rec, fresh: rec.restore_view(fresh, "in_stock", IN_STOCK),
            verify=True,
        )
        for name in db.relation_names():
            assert document_bytes(recovery.database.relation(name)) == (
                document_bytes(db.relation(name))
            )
        assert document_bytes(recovered.view("in_stock").contents) == (
            document_bytes(maintainer.view("in_stock").contents)
        )

    def test_replay_records_into_a_fresh_database(self):
        db = labelled_database()
        fresh = labelled_database()
        view = ViewMaintainer(fresh).define_view("in_stock", IN_STOCK)
        db.apply(inserts={"item": [(3, "red", 1)]}, deletes={"item": [(2, "blue", 4)]})
        db.apply(inserts={"stock": [(2, 6)], "item": [(2, "green", 4)]})
        assert replay_records(fresh, db.log) == 2
        assert fresh.relation("item") == db.relation("item")
        assert decoded(view.contents) == {("green", 5): 1, ("green", 6): 1, ("red", 9): 1}

    def test_alerter_raises_and_clears(self):
        db = labelled_database()
        registry = AlerterRegistry(db)
        registry.define("in_stock", IN_STOCK)
        db.apply(inserts={"item": [(3, "red", 1)]})
        db.apply(deletes={"item": [(3, "red", 1)]})
        assert [(event.kind, event.values) for event in registry.log] == [
            (AlertEvent.RAISED, (0, 9)),
            (AlertEvent.CLEARED, (0, 9)),
        ]

    def test_served_txn_query_and_event_carry_labels(self):
        db = labelled_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("in_stock", IN_STOCK)
        server = ViewServer(db, maintainer, ServerConfig())
        with ServerHandle(server) as handle:
            with ViewClient(port=handle.port, timeout=10.0) as client:
                client.subscribe("in_stock")
                result = client.txn(
                    insert={"item": [(3, "red", 1)]},
                    delete={"item": [(1, "green", 3)]},
                )
                assert result["applied"]["item"] == {"inserted": 1, "deleted": 1}
                event = client.next_event(timeout=5)
                assert event["delta"] == {
                    "inserted": [["red", 9]],
                    "deleted": [["green", 5]],
                }
                assert client.query("in_stock")["rows"] == [["red", 9]]
                assert client.query("item")["rows"] == [
                    [2, "blue", 4],
                    [3, "red", 1],
                ]
