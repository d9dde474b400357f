"""Unit tests for database save/load."""

import io
import json

import pytest

from repro.algebra.conditions import Condition
from repro.algebra.domains import FiniteDomain, StringDomain
from repro.algebra.schema import Attribute, RelationSchema
from repro.engine.database import Database
from repro.engine.persistence import (
    FORMAT_VERSION,
    PersistenceError,
    database_from_document,
    database_to_document,
    deltas_from_document,
    load_database,
    load_database_file,
    relation_from_document,
    save_database,
    save_database_file,
)


@pytest.fixture
def db():
    database = Database()
    database.create_relation("r", ["A", "B"], [(1, 2), (3, 4)])
    database.create_relation(
        "typed",
        RelationSchema(
            [
                Attribute("status", StringDomain(["pending", "done"])),
                Attribute("n", FiniteDomain(0, 10)),
            ]
        ),
        [("pending", 3), ("done", 7)],
    )
    return database


class TestRoundTrip:
    def test_stream_round_trip(self, db):
        buffer = io.StringIO()
        save_database(db, buffer)
        buffer.seek(0)
        loaded = load_database(buffer)
        for name in db.relation_names():
            assert loaded.relation(name) == db.relation(name)
            assert loaded.relation(name).schema == db.relation(name).schema

    def test_file_round_trip(self, db, tmp_path):
        path = str(tmp_path / "db.json")
        save_database_file(db, path)
        loaded = load_database_file(path)
        assert loaded.relation("r") == db.relation("r")

    def test_files_are_compact_and_indented_ones_still_load(self, db, tmp_path):
        from repro.engine.persistence import canonical_json
        from repro.replication.checkpoints import Checkpoint, write_checkpoint

        path = str(tmp_path / "db.json")
        save_database_file(db, path)
        doc = database_to_document(db)
        with open(path, "rb") as stream:
            assert stream.read() == canonical_json(doc)
        checkpoint = write_checkpoint(str(tmp_path), db, 0)
        with open(checkpoint, "rb") as stream:
            written = json.loads(stream.read())
        assert written["database"] == doc
        # Files written indented by earlier versions load as before.
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(doc, stream, indent=1, sort_keys=True)
        assert load_database_file(path).relation("typed") == db.relation("typed")
        with open(checkpoint, "w", encoding="utf-8") as stream:
            json.dump(written, stream, indent=1, sort_keys=True)
        booted = Checkpoint.load(checkpoint).build_database()
        assert booted.relation("typed") == db.relation("typed")

    def test_document_is_deterministic(self, db):
        assert database_to_document(db) == database_to_document(db)

    def test_domains_survive(self, db):
        doc = database_to_document(db)
        loaded = database_from_document(doc)
        schema = loaded.relation("typed").schema
        assert schema.domain_of("status") == StringDomain(["pending", "done"])
        assert schema.domain_of("n") == FiniteDomain(0, 10)
        # String values decode back through the restored domain.
        (row,) = [r for r in loaded.relation("typed").rows() if r["n"] == 3]
        assert row["status"] == "pending"

    def test_loaded_database_is_functional(self, db):
        doc = database_to_document(db)
        loaded = database_from_document(doc)
        with loaded.transact() as txn:
            txn.insert("r", (5, 6))
        assert (5, 6) in loaded.relation("r")
        assert (5, 6) not in db.relation("r")

    def test_empty_database(self):
        doc = database_to_document(Database())
        assert database_from_document(doc).relation_names() == ()


class TestCatalog:
    """Constraints, keys and foreign keys are database state: the
    document carries them and a load declares them again."""

    @pytest.mark.parametrize(
        "text",
        [
            "A = B - 4",
            "A >= 1 and B <= 9",
            "(A <= 1) or (B >= 3 and A < B + 2)",
            "(true) or (A = 1)",
            "true",
            "A >= -3 and 5 >= B",
        ],
    )
    def test_a_constraint_round_trips_to_an_equal_condition(self, text):
        db = Database()
        db.create_relation("r", ["A", "B"])
        declared = db.declare_constraint("r", text)
        loaded = database_from_document(database_to_document(db))
        assert loaded.constraints.get("r") == declared
        assert Condition.coerce(str(declared)) == declared

    def test_keys_and_foreign_keys_round_trip(self, db):
        db.create_relation("p", ["A", "C"], [(1, 0), (3, 0)])
        db.declare_constraint("r", "B >= 2")
        db.declare_key("p", ["A"])
        db.declare_key("r", ["A"])
        db.declare_key("r", ["A", "B"])
        db.declare_foreign_key("r", ["A"], "p", ["A"])
        doc = database_to_document(db)
        assert doc["keys"] == {"p": [["A"]], "r": [["A"], ["A", "B"]]}
        assert doc["foreign_keys"] == [
            {
                "relation": "r",
                "attributes": ["A"],
                "ref_relation": "p",
                "ref_attributes": ["A"],
            }
        ]
        loaded = database_from_document(json.loads(json.dumps(doc)))
        assert database_to_document(loaded) == doc
        assert [fk.describe() for fk in loaded.keys.foreign_key_items()] == [
            "r (A) references p (A)"
        ]


class TestErrors:
    def test_wrong_version(self):
        with pytest.raises(PersistenceError):
            database_from_document({"format": 999, "relations": {}})

    def test_a_version_1_document_is_refused(self):
        # Version 1 carried no catalog: loading it would silently drop
        # every constraint and key its database declared.
        with pytest.raises(PersistenceError, match="format version 1"):
            database_from_document({"format": 1, "relations": {}})

    def test_missing_relations(self):
        with pytest.raises(PersistenceError, match="relations"):
            database_from_document({"format": FORMAT_VERSION})

    def test_malformed_relation(self):
        doc = {"format": FORMAT_VERSION, "relations": {"r": {"attributes": []}}}
        with pytest.raises(PersistenceError):
            database_from_document(doc)

    def test_row_count_mismatch(self):
        doc = {
            "format": FORMAT_VERSION,
            "relations": {
                "r": {
                    "attributes": [{"name": "A", "domain": {"kind": "integer"}}],
                    "rows": [[1], [2]],
                    "counts": [1],
                }
            },
        }
        with pytest.raises(PersistenceError):
            database_from_document(doc)

    def test_counted_base_rejected(self):
        doc = {
            "format": FORMAT_VERSION,
            "relations": {
                "r": {
                    "attributes": [{"name": "A", "domain": {"kind": "integer"}}],
                    "rows": [[1]],
                    "counts": [2],
                }
            },
        }
        with pytest.raises(PersistenceError):
            database_from_document(doc)

    def test_a_json_object_is_not_a_row(self):
        # The codec writes every row as an array; ``coerce_row`` would
        # read an object as a mapping from attribute names.
        attributes = [
            {"name": "A", "domain": {"kind": "integer"}},
            {"name": "B", "domain": {"kind": "integer"}},
        ]
        doc = {"attributes": attributes, "rows": [{"A": 1, "B": 2}], "counts": [1]}
        with pytest.raises(PersistenceError, match="relation 'r'.*must be an array"):
            relation_from_document(doc, "r", True)
        with pytest.raises(PersistenceError, match="relation 'r'.*must be an array"):
            load_database(
                io.StringIO(json.dumps({
                    "format": FORMAT_VERSION,
                    "relations": {"r": doc},
                    "constraints": {},
                    "keys": {},
                    "foreign_keys": [],
                }))
            )
        schema = RelationSchema(["A", "B"])
        for side in ("inserted", "deleted"):
            delta_doc = {"inserted": [], "deleted": [], side: [{"A": 1, "B": 2}]}
            with pytest.raises(PersistenceError, match="relation 'r'.*must be an array"):
                deltas_from_document({"r": schema}, {"r": delta_doc})

    def test_unknown_domain_kind(self):
        doc = {
            "format": FORMAT_VERSION,
            "relations": {
                "r": {
                    "attributes": [{"name": "A", "domain": {"kind": "complex"}}],
                    "rows": [],
                    "counts": [],
                }
            },
        }
        with pytest.raises(PersistenceError):
            database_from_document(doc)

    def test_invalid_json_stream(self):
        with pytest.raises(PersistenceError):
            load_database(io.StringIO("{not json"))

    def test_document_is_json_serializable(self, db):
        json.dumps(database_to_document(db))


class TestRoundTripProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    random_rows = st.lists(
        st.tuples(
            st.integers(min_value=-50, max_value=50),
            st.integers(min_value=-50, max_value=50),
        ),
        max_size=15,
        unique=True,
    )

    @settings(max_examples=100, deadline=None)
    @given(random_rows, random_rows)
    def test_random_databases_round_trip(self, r_rows, s_rows):
        db = Database()
        db.create_relation("r", ["A", "B"], r_rows)
        db.create_relation("s", ["X", "Y"], s_rows)
        buffer = io.StringIO()
        save_database(db, buffer)
        buffer.seek(0)
        loaded = load_database(buffer)
        assert loaded.relation("r") == db.relation("r")
        assert loaded.relation("s") == db.relation("s")

    @settings(max_examples=60, deadline=None)
    @given(random_rows)
    def test_round_trip_twice_is_stable(self, rows):
        db = Database()
        db.create_relation("r", ["A", "B"], rows)
        doc1 = database_to_document(db)
        doc2 = database_to_document(database_from_document(doc1))
        assert doc1 == doc2
