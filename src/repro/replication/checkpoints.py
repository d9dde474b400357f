"""Checkpoint documents: a base snapshot anchored to a WAL position.

A checkpoint is the recovery starting point: one JSON document holding
every base relation and the catalog declared over them — constraints,
keys and foreign keys (via :func:`repro.engine.persistence`) — the
stored contents of every materialized view (multiplicity counters
included), the transaction-id counter, and the WAL sequence the
snapshot is current as of.  Recovery loads the newest checkpoint and
replays only the WAL records *after* its sequence — views restored from
the checkpoint then catch up differentially, never by recomputation.

The WAL carries row changes only, so a catalog change becomes durable
at the next checkpoint, as a new relation does.

View *definitions* are code, not data: the checkpoint persists each
view's contents and policy under its name, and the recovering process
re-supplies the defining expression (exactly as a follower supplies its
own).  A checkpoint written with ``maintainer=None`` simply omits view
contents; recovery then falls back to materializing from the snapshot
state before replay.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any

from repro.algebra.relation import Relation
from repro.engine.database import Database
from repro.engine.persistence import (
    PersistenceError,
    canonical_json,
    database_from_document,
    database_to_document,
    relation_from_document,
    relation_to_document,
)
from repro.errors import ReplicationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.maintainer import ViewMaintainer

#: Bumped on any incompatible checkpoint-format change.
CHECKPOINT_FORMAT_VERSION = 1

_PREFIX = "checkpoint-"
_SUFFIX = ".json"


def checkpoint_path(directory: str, wal_sequence: int) -> str:
    """The canonical path of a checkpoint at one WAL position."""
    return os.path.join(directory, f"{_PREFIX}{wal_sequence:016d}{_SUFFIX}")


def checkpoint_paths(directory: str) -> list[tuple[int, str]]:
    """Sorted ``(wal_sequence, path)`` pairs of a directory's checkpoints."""
    if not os.path.isdir(directory):
        raise ReplicationError(f"durability directory {directory!r} does not exist")
    found = []
    for entry in os.listdir(directory):
        if not (entry.startswith(_PREFIX) and entry.endswith(_SUFFIX)):
            continue
        stem = entry[len(_PREFIX):-len(_SUFFIX)]
        try:
            sequence = int(stem)
        except ValueError:
            raise ReplicationError(
                f"unrecognized checkpoint name {entry!r}"
            ) from None
        found.append((sequence, os.path.join(directory, entry)))
    found.sort()
    return found


def latest_checkpoint_path(directory: str) -> str | None:
    """Path of the newest checkpoint, or ``None`` when there is none."""
    found = checkpoint_paths(directory)
    return found[-1][1] if found else None


def write_checkpoint(
    directory: str,
    database: Database,
    wal_sequence: int,
    maintainer: "ViewMaintainer | None" = None,
) -> str:
    """Write a checkpoint document; returns its path.

    The compact document is written to a temporary file and atomically
    renamed into place, so a crash mid-checkpoint leaves the previous
    checkpoint intact and the half-written file ignored (its name never
    matches).
    """
    views: dict[str, Any] = {}
    if maintainer is not None:
        for name in maintainer.view_names():
            if maintainer.quarantined(name) is not None:
                continue  # stale: restoring re-defines it from the base
            view = maintainer.view(name)
            # Aggregate views persist their core support relation (the
            # visible group rows are derived state); plain views persist
            # their contents.  Same document shape either way.
            views[name] = {
                "policy": maintainer.policy(name).value,
                "relation": relation_to_document(view.stored_contents()),
            }
    doc = {
        "format": CHECKPOINT_FORMAT_VERSION,
        "wal_sequence": wal_sequence,
        "next_txn_id": database.next_txn_id,
        "database": database_to_document(database),
        "views": views,
    }
    path = checkpoint_path(directory, wal_sequence)
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as stream:
        stream.write(canonical_json(doc))
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(tmp_path, path)
    return path


class Checkpoint:
    """A decoded checkpoint document."""

    __slots__ = ("wal_sequence", "next_txn_id", "_database_doc", "_views")

    def __init__(self, doc: dict[str, Any]) -> None:
        version = doc.get("format") if isinstance(doc, dict) else None
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ReplicationError(
                f"unsupported checkpoint format {version!r} "
                f"(expected {CHECKPOINT_FORMAT_VERSION})"
            )
        try:
            self.wal_sequence = int(doc["wal_sequence"])
            self.next_txn_id = int(doc["next_txn_id"])
            self._database_doc = doc["database"]
            self._views = dict(doc.get("views", {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise ReplicationError(f"checkpoint document is malformed: {exc}") from exc

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        """Read and validate a checkpoint file."""
        try:
            with open(path, "r", encoding="utf-8") as stream:
                doc = json.load(stream)
        except (OSError, json.JSONDecodeError) as exc:
            raise ReplicationError(f"cannot read checkpoint {path!r}: {exc}") from exc
        return cls(doc)

    def build_database(self) -> Database:
        """A fresh database holding the snapshot's base relations and
        catalog."""
        if self._database_doc is None:
            raise ReplicationError("checkpoint snapshot was already released")
        try:
            database = database_from_document(self._database_doc)
        except PersistenceError as exc:
            raise ReplicationError(f"checkpoint snapshot is invalid: {exc}") from exc
        database.advance_txn_counter(self.next_txn_id)
        return database

    def view_names(self) -> tuple[str, ...]:
        """Names of the views whose contents the checkpoint carries."""
        return tuple(sorted(self._views))

    def view_contents(self, name: str) -> Relation | None:
        """The stored (counted) contents of one view, if persisted."""
        entry = self._views.get(name)
        if entry is None:
            return None
        try:
            return relation_from_document(entry["relation"], name, allow_counts=True)
        except (PersistenceError, KeyError, TypeError) as exc:
            raise ReplicationError(
                f"checkpointed view {name!r} is invalid: {exc}"
            ) from exc

    def view_policy(self, name: str) -> str | None:
        """The maintenance policy recorded for one view, if persisted."""
        entry = self._views.get(name)
        return entry.get("policy") if isinstance(entry, dict) else None

    def __repr__(self) -> str:
        return (
            f"<Checkpoint wal_seq={self.wal_sequence} "
            f"{len(self._views)} views>"
        )


def boot_from_checkpoint(directory: str) -> tuple[Checkpoint, Database]:
    """The newest checkpoint of ``directory`` and the database it holds.

    The one boot recovery, followers and the simulation oracle share:
    the database has the snapshot's relations, catalog and transaction
    counter, and a position aligned with the WAL, so a replayed commit
    takes the sequence the WAL gave it.  The checkpoint keeps only its
    view documents.
    """
    path = latest_checkpoint_path(directory)
    if path is None:
        raise ReplicationError(
            f"no checkpoint in {directory!r}: the WAL carries row changes "
            "only, so a database boots from the schemas, catalog and rows "
            "DurabilityManager.checkpoint() writes"
        )
    checkpoint = Checkpoint.load(path)
    database = checkpoint.build_database()
    checkpoint._database_doc = None
    database.advance_sequence(checkpoint.wal_sequence + 1)
    return checkpoint, database
