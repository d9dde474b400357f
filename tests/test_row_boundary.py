"""A row is encoded once, at the edge.

Section 3 maps every domain onto the naturals; ``coerce_row`` is the one
door from raw rows to encoded tuples, and nothing behind the API edge
walks back through it.  Three kinds of pin:

* the source under ``src/repro`` is read with ``ast``: ``coerce_row`` is
  referenced only by the edge modules, and the modules that hold encoded
  tuples build no ``Row`` around them;
* the rows through ``RelationSchema.encode_values`` and the batch door
  ``encode_rows`` are counted over a whole write — load, transaction,
  commit, view maintenance, WAL append — and each row is encoded once;
* a relation with a label column (a non-identity encoding, where a
  second coercion is a ``DomainError`` and not just wasted time) goes
  through every write path end to end.
"""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BaseRef, Database, DurabilityManager, ViewMaintainer, recover
from repro.algebra.domains import FiniteDomain, StringDomain
from repro.algebra.relation import Relation
from repro.algebra.schema import Attribute, RelationSchema
from repro.algebra.tuples import Row
from repro.cluster import ClusterTopology, PartitionSpec, ShardNode
from repro.engine.log import replay_records
from repro.engine.persistence import (
    database_to_document,
    relation_from_document,
    relation_to_document,
)
from repro.errors import DomainError, SchemaError
from repro.extensions.alerters import AlertEvent, AlerterRegistry
from repro.replication.wal import WalReader
from repro.server import ServerConfig, ServerHandle, ViewClient, ViewServer

from tests.conftest import capture_commits
from tests.reference import (
    reference_create_relation,
    reference_from_rows,
    reference_relation_from_document,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The modules that take raw rows from outside; the list lives here.
#: ``algebra/schema.py`` holds the batch door, ``encode_rows``, whose
#: per-row fallback is ``coerce_row``.
EDGE_MODULES = {
    "algebra/schema.py",
    "algebra/tuples.py",
    "algebra/relation.py",
    "engine/transactions.py",
    "engine/database.py",
    "engine/persistence.py",
}

#: Modules that hold encoded tuples and once wrapped them in ``Row`` so
#: that a raw-row API would not encode them a second time.
NO_ROW_CONSTRUCTION = ("engine/log.py", "core/counting.py", "cluster/", "baselines/")


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
    """Every row encoded, once per row: a row through ``encode_values``,
    or each row of a batch through ``encode_rows`` (whose per-row
    fallback's own ``encode_values`` calls are that batch's, not
    counted again)."""
    calls = []
    in_batch = []
    encode_values, encode_rows = RelationSchema.encode_values, RelationSchema.encode_rows

    def counted(self, values):
        if not in_batch:
            calls.append(values)
        return encode_values(self, values)

    def counted_batch(self, rows):
        in_batch.append(True)
        try:
            encoded = encode_rows(self, rows)
        finally:
            in_batch.pop()
        calls.extend(encoded)
        return encoded

    monkeypatch.setattr(RelationSchema, "encode_values", counted)
    monkeypatch.setattr(RelationSchema, "encode_rows", counted_batch)
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
    genesis = Database()
    genesis.create_relation("r", ["A", "B"], [(1, 2), (2, 3), (60, 61)])
    genesis.declare_constraint("r", "B = A + 1")
    for key in keys.get("r", ()):
        genesis.declare_key("r", list(key))
    shard = ShardNode(
        0,
        ClusterTopology(2, [PartitionSpec("r", "A", (49,))]),
        database_to_document(genesis),
        [("low", BaseRef("r").select("B < 5"))],
        base_free=base_free,
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
# The batch door agrees with the per-row door
# ----------------------------------------------------------------------
#: Same attribute names, three kinds of domain: the integer schema takes
#: the batch door's C-level check, the other two its per-row fallback.
LOAD_SCHEMAS = {
    "integer": RelationSchema(["A", "B"]),
    "finite": RelationSchema([Attribute("A"), Attribute("B", FiniteDomain(0, 3))]),
    "string": RelationSchema([Attribute("A"), Attribute("B", StringDomain(["x", "y"]))]),
}
#: Values every kind the fast check must refuse: bools, floats, strings,
#: ``None`` and an unhashable list.
HOSTILE_VALUES = st.sampled_from([True, False, 1.0, 2.5, "x", "z", None, [1], 9])


@st.composite
def clean_row(draw, kind, a):
    """A row of ``LOAD_SCHEMAS[kind]`` that loads, in any shape."""
    schema = LOAD_SCHEMAS[kind]
    b = draw(st.integers(0, 1))
    raw = (a, schema.attributes[1].domain.decode(b))
    shape = draw(st.sampled_from(["tuple", "tuple", "list", "list", "row", "mapping"]))
    if shape == "row":  # a Row carries codes
        return Row(schema, (a, b))
    if shape == "mapping":  # in either key order
        mapping = {"A": raw[0], "B": raw[1]}
        return mapping if draw(st.booleans()) else dict(reversed(mapping.items()))
    return raw if shape == "tuple" else list(raw)


@st.composite
def hostile_rows(draw):
    """A row most schemas here refuse: a hostile value or a wrong arity,
    a Row of other attributes, a mapping with missing or extra names, a
    scalar."""
    shape = draw(st.sampled_from(["tuple", "list", "row", "mapping", "scalar"]))
    if shape == "row":
        return Row(RelationSchema(["C", "D"]), (0, 1))
    if shape == "scalar":
        return draw(st.sampled_from([5, "ab", None]))
    arity = draw(st.sampled_from([2, 2, 1, 3]))
    values = [draw(st.integers(0, 3)) for _ in range(arity)]
    values[draw(st.integers(0, arity - 1))] = draw(HOSTILE_VALUES)
    if shape == "mapping":
        names = draw(st.sampled_from([("A", "B"), ("A",), ("A", "B", "C")]))
        return dict(zip(names, values * 2))
    return tuple(values) if shape == "tuple" else list(values)


@st.composite
def row_batches(draw, kind):
    """A batch of rows that load, then maybe hostile rows and repeats of
    earlier rows (in another shape) at random places."""
    rows = [
        draw(clean_row(kind, a))
        for a in draw(st.lists(st.integers(0, 30), unique=True, max_size=6))
    ]
    extras = [hostile_rows()] * draw(st.sampled_from([0, 0, 0, 1, 2]))
    extras += [st.sampled_from(rows)] * (draw(st.sampled_from([0, 0, 1])) if rows else 0)
    for extra in extras:
        row = draw(extra)
        if isinstance(row, (tuple, list)):
            row = list(row) if isinstance(row, tuple) else tuple(row)
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


def load_outcome(load, *args):
    """What ``load(*args)`` gives: its count map as ordered items, or its
    error's type and text."""
    try:
        loaded = load(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return list(getattr(loaded, "count_map", loaded).items())


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(sorted(LOAD_SCHEMAS)), data=st.data())
def test_the_batch_door_loads_as_a_per_row_loop_does(kind, data):
    schema = LOAD_SCHEMAS[kind]
    rows = data.draw(row_batches(kind))
    counts = data.draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    assert load_outcome(
        Database().create_relation, "r", schema, rows
    ) == load_outcome(reference_create_relation, "r", schema, rows)
    attributes = relation_to_document(Relation(schema))["attributes"]
    for doc_counts, allow_counts in ((counts, True), ([1] * len(rows), False)):
        doc = {"attributes": attributes, "rows": rows, "counts": doc_counts}
        assert load_outcome(
            relation_from_document, doc, "r", allow_counts
        ) == load_outcome(reference_relation_from_document, "r", schema, rows, doc_counts)
    assert load_outcome(Relation.from_rows, schema, rows) == load_outcome(
        reference_from_rows, schema, rows
    )


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

    def test_restored_contents_over_other_domains_are_re_encoded(self):
        """Contents whose label domain differs from the catalog's are
        decoded and re-encoded in one batch; a label the catalog lacks
        is the same ``DomainError`` as when each row was ``add``-ed."""
        db = Database()
        color = Attribute("color", StringDomain(["red", "blue"]))
        db.create_relation("r", RelationSchema([color, "n"]), [("red", 1)])
        expression = BaseRef("r").select("n > 0")
        other = RelationSchema(
            [Attribute("color", StringDomain(["blue", "red", "green"])), "n"]
        )
        stored = Relation.from_rows(other, [("blue", 2), ("red", 3), ("blue", 4)])
        stored.add(("red", 3), 2)
        view = ViewMaintainer(db).restore_view("v", expression, stored)
        assert view.contents.schema == db.relation("r").schema
        assert decoded(view.contents) == {
            ("blue", 2): 1, ("red", 3): 3, ("blue", 4): 1
        }
        hostile = Relation.from_rows(other, [("blue", 2), ("green", 5), ("red", 1)])
        with pytest.raises(DomainError) as refused:
            ViewMaintainer(db).restore_view("v", expression, hostile)
        assert str(refused.value) == (
            "value 'green' is not in <StringDomain {red, blue}>"
        )

    def test_replay_records_into_a_fresh_database(self):
        db = labelled_database()
        fresh = labelled_database()
        view = ViewMaintainer(fresh).define_view("in_stock", IN_STOCK)
        records = capture_commits(db)
        db.apply(inserts={"item": [(3, "red", 1)]}, deletes={"item": [(2, "blue", 4)]})
        db.apply(inserts={"stock": [(2, 6)], "item": [(2, "green", 4)]})
        assert replay_records(fresh, records) == 2
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
