"""Saving and loading databases as JSON documents.

The paper's system is in-memory by assumption, but a reproduction a
downstream user can adopt needs its states to be portable: benchmark
inputs, failing cases from property tests and example databases all
want to round-trip through files.  The format is a single JSON document
holding every relation's schema (attribute names and domains) and its
tuple counts, plus the catalog the paper's shortcuts rest on —
constraints, candidate keys and foreign keys — so every rebuild
(checkpoints, recovery, followers, cluster shards) enforces and plans
with the premises the original declared.  Views are not persisted —
they are derived state and are re-materialized from their definitions
after a load.

Domains serialize by kind: the unbounded integer domain, finite integer
intervals, and enumerated string domains (labels stored verbatim).
"""

from __future__ import annotations

import json
from typing import IO, Any, Mapping

from repro.algebra.domains import (
    Domain,
    FiniteDomain,
    IntegerDomain,
    StringDomain,
)
from repro.algebra.relation import Delta, Relation, first_repeat
from repro.algebra.schema import Attribute, RelationSchema
from repro.engine.database import Database
from repro.errors import ReproError

#: Bumped on any incompatible format change (2: the catalog).
FORMAT_VERSION = 2


class PersistenceError(ReproError):
    """A document could not be encoded or decoded."""


# ----------------------------------------------------------------------
# Canonical bytes (what WAL checksums and wire frames are taken over)
# ----------------------------------------------------------------------

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(value: Any) -> bytes:
    """``value`` as sorted-key, no-whitespace, ASCII-escaped JSON bytes.

    Byte-for-byte ``json.dumps(value, sort_keys=True, separators=(",",
    ":"))``.  A nested document encodes to the same bytes it has on its
    own, which is what lets the WAL and the changefeed dump a delta
    once and splice the bytes into the envelope around it.
    """
    return _CANONICAL.encode(value).encode("utf-8")


# ----------------------------------------------------------------------
# Domain codecs
# ----------------------------------------------------------------------

def _encode_domain(domain: Domain) -> dict[str, Any]:
    if isinstance(domain, IntegerDomain):
        return {"kind": "integer"}
    if isinstance(domain, FiniteDomain):
        return {"kind": "finite", "lo": domain.lo, "hi": domain.hi}
    if isinstance(domain, StringDomain):
        return {"kind": "string", "labels": list(domain.labels)}
    raise PersistenceError(f"cannot serialize domain {domain!r}")


def _decode_domain(doc: dict[str, Any]) -> Domain:
    kind = doc.get("kind")
    if kind == "integer":
        return IntegerDomain()
    if kind == "finite":
        return FiniteDomain(doc["lo"], doc["hi"])
    if kind == "string":
        return StringDomain(doc["labels"])
    raise PersistenceError(f"unknown domain kind {kind!r}")


# ----------------------------------------------------------------------
# Relation codecs (shared by database documents and WAL checkpoints)
# ----------------------------------------------------------------------

def relation_to_document(relation: Relation) -> dict[str, Any]:
    """Encode one counted relation (schema, rows, multiplicities).

    JSON has no tuple keys: rows and counts are stored as two aligned
    lists, sorted for deterministic output.  Rows are stored in
    *decoded* form (labels, not codes) so documents stay readable and
    survive domain re-encoding on load.
    """
    items = sorted(relation.items())
    return {
        "attributes": [
            {"name": attr.name, "domain": _encode_domain(attr.domain)}
            for attr in relation.schema.attributes
        ],
        "rows": [
            list(relation.schema.decode_values(values)) for values, _ in items
        ],
        "counts": [count for _, count in items],
    }


def _relation_parts(
    doc: dict[str, Any], name: str, allow_counts: bool
) -> tuple[RelationSchema, list, list]:
    """A relation document's schema, rows and checked counts.

    ``allow_counts`` permits multiplicities greater than one; without it
    every count must be 1.  Rows must be arrays; their values are not
    looked at here.
    """
    try:
        attributes = [
            Attribute(a["name"], _decode_domain(a["domain"]))
            for a in doc["attributes"]
        ]
        rows = doc["rows"]
        counts = doc["counts"]
        schema = RelationSchema(attributes)
    except (KeyError, TypeError, ReproError) as exc:
        raise PersistenceError(f"relation {name!r} is malformed: {exc}") from exc
    if not isinstance(rows, list) or not isinstance(counts, list):
        raise PersistenceError(f"relation {name!r}: rows and counts must be lists")
    # The codec writes arrays; coerce_row would read an object as a mapping.
    if not set(map(type, rows)) <= {list, tuple}:
        raise PersistenceError(f"relation {name!r}: every row must be an array")
    if len(rows) != len(counts):
        raise PersistenceError(
            f"relation {name!r}: {len(rows)} rows but {len(counts)} counts"
        )
    if not (set(map(type, counts)) <= {int} and min(counts, default=1) >= 1):
        raise PersistenceError(f"relation {name!r}: counts must be positive integers")
    if not allow_counts and max(counts, default=1) > 1:
        raise PersistenceError(f"relation {name!r}: base relations are sets; count > 1")
    return schema, rows, counts


def relation_from_document(
    doc: dict[str, Any], name: str = "?", allow_counts: bool = False
) -> Relation:
    """Decode a document produced by :func:`relation_to_document`.

    ``allow_counts`` permits multiplicities greater than one — required
    for materialized-view contents (checkpoints persist their §5.2
    counters), forbidden for base relations (which are sets).  The rows
    are encoded as one batch (:meth:`RelationSchema.encode_rows`); the
    first that does not fit the schema, else the first repeat, is a
    :class:`PersistenceError` naming the relation.
    """
    schema, rows, counts = _relation_parts(doc, name, allow_counts)
    try:
        encoded = schema.encode_rows(rows)
    except (TypeError, ReproError) as exc:
        raise PersistenceError(f"relation {name!r}: bad row: {exc}") from exc
    stored = dict(zip(encoded, counts))
    if len(stored) < len(rows):
        row = rows[first_repeat(encoded)]
        raise PersistenceError(f"relation {name!r}: duplicate row {row}")
    return Relation.adopt(schema, stored)


# ----------------------------------------------------------------------
# Database codecs
# ----------------------------------------------------------------------

def database_to_document(database: Database) -> dict[str, Any]:
    """Encode a database's schemas, contents and catalog as a JSON-able
    dict; a constraint is stored as its condition's text, which
    :meth:`~repro.algebra.conditions.Condition.coerce` parses back to an
    equal condition."""
    return {
        "format": FORMAT_VERSION,
        "relations": {
            name: relation_to_document(database.relation(name))
            for name in database.relation_names()
        },
        "constraints": {
            name: str(condition) for name, condition in database.constraints.items()
        },
        "keys": {
            name: [list(key) for key in keys] for name, keys in database.keys.items()
        },
        "foreign_keys": [
            {
                "relation": fk.relation,
                "attributes": list(fk.attributes),
                "ref_relation": fk.ref_relation,
                "ref_attributes": list(fk.ref_attributes),
            }
            for fk in database.keys.foreign_key_items()
        ],
    }


def database_from_document(doc: dict[str, Any]) -> Database:
    """Decode a document produced by :func:`database_to_document`.

    Each relation is built once: its document rows go straight into
    :meth:`Database.create_relation`, which encodes them as one batch
    and rejects duplicates.  The catalog follows — constraints, keys, then
    foreign keys — through the database's own ``declare_*`` methods, so
    each declaration validates the rows it lands on.
    """
    version = doc.get("format") if isinstance(doc, dict) else None
    if version != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported format version {version!r} (expected {FORMAT_VERSION})"
        )
    database = Database()
    relations = doc.get("relations")
    if not isinstance(relations, dict):
        raise PersistenceError("document has no 'relations' mapping")
    for name, rel_doc in relations.items():
        schema, rows, _ = _relation_parts(rel_doc, name, allow_counts=False)
        try:
            database.create_relation(name, schema, rows)
        except (TypeError, ReproError) as exc:
            raise PersistenceError(f"relation {name!r}: {exc}") from exc
    entry: Any = None
    try:
        for entry in _stored_as(doc.get("constraints"), dict).items():
            database.declare_constraint(entry[0], _stored_as(entry[1], str))
        for entry in _stored_as(doc.get("keys"), dict).items():
            for key in _stored_as(entry[1], list):
                database.declare_key(entry[0], _stored_as(key, list))
        for entry in _stored_as(doc.get("foreign_keys"), list):
            database.declare_foreign_key(
                entry["relation"],
                _stored_as(entry["attributes"], list),
                entry["ref_relation"],
                _stored_as(entry["ref_attributes"], list),
            )
    except (KeyError, TypeError, ReproError) as exc:
        raise PersistenceError(f"catalog entry {entry!r} is invalid: {exc}") from exc
    return database


def _stored_as(value: Any, kind: type) -> Any:
    """``value``, which the document must hold as a ``kind``."""
    if not isinstance(value, kind):
        raise TypeError(f"expected a {kind.__name__}, got {value!r}")
    return value


# ----------------------------------------------------------------------
# Delta codecs (the unit the write-ahead log ships)
# ----------------------------------------------------------------------

def delta_to_document(delta: Delta) -> dict[str, Any]:
    """Encode one net-effect delta as decoded insert/delete row lists.

    Rows appear once per multiplicity (base-relation deltas always carry
    count 1) and are sorted for deterministic output, so identical
    deltas always serialize to identical bytes — the property WAL
    checksums and replay determinism rest on.
    """
    def expand(counts: dict) -> list[list[Any]]:
        rows = []
        for values, count in sorted(counts.items()):
            decoded = list(delta.schema.decode_values(values))
            rows.extend([decoded] * count)
        return rows

    return {"inserted": expand(delta.inserted), "deleted": expand(delta.deleted)}


def delta_from_document(
    schema: RelationSchema, doc: dict[str, Any], name: str = "?"
) -> Delta:
    """Decode a document produced by :func:`delta_to_document` for
    relation ``name``; a row that is not an array or does not fit
    ``schema`` is a :class:`PersistenceError`."""
    try:
        inserted, deleted = doc["inserted"], doc["deleted"]
        if not set(map(type, inserted + deleted)) <= {list, tuple}:
            raise TypeError("every row must be an array")
        return Delta(schema, inserted, deleted)
    except (KeyError, TypeError, ReproError) as exc:
        raise PersistenceError(f"relation {name!r}: malformed delta: {exc}") from exc


def deltas_to_document(deltas: "Mapping[str, Delta]") -> dict[str, Any]:
    """Encode a commit's per-relation deltas (empty ones are dropped)."""
    return {
        name: delta_to_document(delta)
        for name, delta in sorted(deltas.items())
        if not delta.is_empty()
    }


def deltas_from_document(
    schemas: "dict[str, RelationSchema]", doc: dict[str, Any]
) -> dict[str, Delta]:
    """Decode per-relation deltas against a schema catalog."""
    deltas = {}
    for name, delta_doc in doc.items():
        schema = schemas.get(name)
        if schema is None:
            raise PersistenceError(
                f"delta references unknown relation {name!r}"
            )
        deltas[name] = delta_from_document(schema, delta_doc, name)
    return deltas


def save_database(database: Database, stream: IO[str]) -> None:
    """Write a database to an open text stream as compact JSON."""
    stream.write(canonical_json(database_to_document(database)).decode("ascii"))


def load_database(stream: IO[str]) -> Database:
    """Read a database from an open text stream."""
    try:
        doc = json.load(stream)
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"invalid JSON: {exc}") from exc
    return database_from_document(doc)


def save_database_file(database: Database, path: str) -> None:
    """Write a database to ``path``."""
    with open(path, "w", encoding="utf-8") as stream:
        save_database(database, stream)


def load_database_file(path: str) -> Database:
    """Read a database from ``path``."""
    with open(path, "r", encoding="utf-8") as stream:
        return load_database(stream)
