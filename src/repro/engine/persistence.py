"""Saving and loading databases as JSON documents.

The paper's system is in-memory by assumption, but a reproduction a
downstream user can adopt needs its states to be portable: benchmark
inputs, failing cases from property tests and example databases all
want to round-trip through files.  The format is a single JSON document
holding every relation's schema (attribute names and domains) and its
tuple counts; views are not persisted — they are derived state and are
re-materialized from their definitions after a load.

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
from repro.algebra.relation import Delta, Relation
from repro.algebra.schema import Attribute, RelationSchema
from repro.engine.database import Database
from repro.errors import ReproError

#: Bumped on any incompatible format change.
FORMAT_VERSION = 1


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


def relation_from_document(
    doc: dict[str, Any], name: str = "?", allow_counts: bool = False
) -> Relation:
    """Decode a document produced by :func:`relation_to_document`.

    ``allow_counts`` permits multiplicities greater than one — required
    for materialized-view contents (checkpoints persist their §5.2
    counters), forbidden for base relations (which are sets).
    """
    try:
        attributes = [
            Attribute(a["name"], _decode_domain(a["domain"]))
            for a in doc["attributes"]
        ]
        rows = doc["rows"]
        counts = doc["counts"]
    except (KeyError, TypeError) as exc:
        raise PersistenceError(f"relation {name!r} is malformed: {exc}") from exc
    if len(rows) != len(counts):
        raise PersistenceError(
            f"relation {name!r}: {len(rows)} rows but {len(counts)} counts"
        )
    schema = RelationSchema(attributes)
    relation = Relation(schema)
    for distinct, (values, count) in enumerate(zip(rows, counts)):
        if count != 1 and not allow_counts:
            raise PersistenceError(
                f"relation {name!r}: base relations are sets; "
                f"count {count} for {values}"
            )
        if count < 1:
            raise PersistenceError(
                f"relation {name!r}: count {count} for {values} "
                "must be positive"
            )
        relation.add(values, count)
        if len(relation) == distinct:  # the row only raised a counter
            raise PersistenceError(
                f"relation {name!r}: duplicate row {values}"
            )
    return relation


# ----------------------------------------------------------------------
# Database codecs
# ----------------------------------------------------------------------

def database_to_document(database: Database) -> dict[str, Any]:
    """Encode a database's schemas and contents as a JSON-able dict."""
    relations = {
        name: relation_to_document(database.relation(name))
        for name in database.relation_names()
    }
    return {"format": FORMAT_VERSION, "relations": relations}


def database_from_document(doc: dict[str, Any]) -> Database:
    """Decode a document produced by :func:`database_to_document`."""
    if doc.get("format") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported format version {doc.get('format')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    database = Database()
    relations = doc.get("relations")
    if not isinstance(relations, dict):
        raise PersistenceError("document has no 'relations' mapping")
    for name, rel_doc in relations.items():
        decoded = relation_from_document(rel_doc, name)
        database.create_relation(name, decoded.schema, decoded.rows())
    return database


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


def delta_from_document(schema: RelationSchema, doc: dict[str, Any]) -> Delta:
    """Decode a document produced by :func:`delta_to_document`."""
    try:
        return Delta(schema, doc["inserted"], doc["deleted"])
    except (KeyError, TypeError) as exc:
        raise PersistenceError(f"delta document is malformed: {exc}") from exc


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
        deltas[name] = delta_from_document(schema, delta_doc)
    return deltas


def save_database(database: Database, stream: IO[str]) -> None:
    """Write a database to an open text stream as JSON."""
    json.dump(database_to_document(database), stream, indent=1, sort_keys=True)


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
