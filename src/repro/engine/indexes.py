"""Hash indexes over base relations.

The paper's differential algorithm repeatedly joins small delta
relations against large, mostly-static base relations ("old" operands).
That access pattern — probe a base relation by the values of a few join
attributes — is precisely what a hash index serves.  The
:class:`IndexManager` keeps declared indexes synchronized with base
relations across commits by consuming the same net-effect deltas the
view maintainer does, and the differential planner uses an index when
one covers the join attributes of an "old" base operand.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Sequence

from repro.algebra.relation import Delta, Relation
from repro.errors import SchemaError
from repro.instrumentation import charge

ValueTuple = tuple[int, ...]

_NO_ROWS: frozenset[ValueTuple] = frozenset()
_NO_INDEXES: Mapping[tuple[str, ...], HashIndex] = MappingProxyType({})


class HashIndex:
    """A hash index mapping key values to the rows that carry them.

    ``attributes`` names the indexed attributes, in key order.  Rows are
    stored as full encoded value tuples; a key maps to the set of
    *distinct* rows sharing it, so the same index serves a bag (a
    :class:`~repro.core.views.MaterializedView`'s contents), whose
    multiplicities stay in the relation's count map.
    """

    __slots__ = ("relation_name", "attributes", "_positions", "_buckets")

    def __init__(self, relation: Relation, relation_name: str,
                 attributes: Sequence[str]) -> None:
        if not attributes:
            raise SchemaError("an index needs at least one attribute")
        self.relation_name = relation_name
        self.attributes = tuple(attributes)
        self._positions = relation.schema.positions(self.attributes)
        self._buckets: dict[ValueTuple, set[ValueTuple]] = {}
        self._rebuild(relation)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _rebuild(self, relation: Relation) -> None:
        """Re-index ``relation`` in place: holders of this index keep it."""
        self._buckets.clear()
        for values in relation.value_tuples():
            self._insert(values)

    def _key_of(self, values: ValueTuple) -> ValueTuple:
        return tuple(values[i] for i in self._positions)

    def _insert(self, values: ValueTuple) -> None:
        self._buckets.setdefault(self._key_of(values), set()).add(values)

    def _remove(self, values: ValueTuple) -> None:
        key = self._key_of(values)
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        bucket.discard(values)
        if not bucket:
            del self._buckets[key]

    def _stale_key(self, relation: Relation) -> ValueTuple | None:
        """The lowest key whose bucket differs from a rebuild over
        ``relation``; ``None`` when the index is in step with it."""
        rebuilt = HashIndex(relation, self.relation_name, self.attributes)._buckets
        kept = self._buckets
        if kept == rebuilt:
            return None
        return min(
            key
            for key in kept.keys() | rebuilt.keys()
            if kept.get(key) != rebuilt.get(key)
        )

    def apply_delta(self, delta: Delta) -> None:
        """Keep the index in step with a committed net-effect delta."""
        for values in delta.deleted:
            self._remove(values)
        for values in delta.inserted:
            self._insert(values)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe(self, key: ValueTuple) -> AbstractSet[ValueTuple]:
        """All rows whose indexed attributes equal ``key``.

        Returns the index's own bucket, not a copy (a shared empty set
        on a miss): read it, never mutate it, and do not hold it across
        a commit — the next delta applied to the index changes it in
        place.
        """
        charge("index_probes")
        return self._buckets.get(key, _NO_ROWS)

    def probe_many(self, keys: Iterable[ValueTuple]) -> Iterator[ValueTuple]:
        """Rows matching any of ``keys`` (deduplicated per key).

        Each key's rows are copied before they are yielded, so a
        consumer may commit between two of them.
        """
        for key in keys:
            yield from tuple(self.probe(key))

    def __len__(self) -> int:
        """Number of distinct keys."""
        return len(self._buckets)

    def __repr__(self) -> str:
        return (
            f"<HashIndex {self.relation_name}({', '.join(self.attributes)}) "
            f"{len(self._buckets)} keys>"
        )


class IndexManager:
    """All indexes of one database, kept consistent across commits.

    ``on_change`` is an optional observer called as
    ``on_change(event, relation_name)`` whenever the *set* of indexes
    actually changes (``event`` is ``"create_index"`` or
    ``"drop_index"``).  The owning :class:`~repro.engine.database.Database`
    points it at its DDL-hook broadcast so compiled maintenance plans
    holding index bindings are invalidated even when callers mutate the
    manager directly rather than through the database facade.
    """

    def __init__(self) -> None:
        #: Relation name -> indexed attributes -> index: a commit visits
        #: only the indexes of the relations it changed.
        self._indexes: dict[str, dict[tuple[str, ...], HashIndex]] = {}
        self.on_change: "Callable[[str, str], None] | None" = None

    def create_index(self, relation: Relation, relation_name: str,
                     attributes: Sequence[str]) -> HashIndex:
        """Create (or return the existing) index on the given attributes."""
        existing = self.lookup(relation_name, attributes)
        if existing is not None:
            return existing
        index = HashIndex(relation, relation_name, attributes)
        self._indexes.setdefault(relation_name, {})[index.attributes] = index
        if self.on_change is not None:
            self.on_change("create_index", relation_name)
        return index

    def drop_index(self, relation_name: str, attributes: Sequence[str]) -> bool:
        """Remove an index; returns True when one existed."""
        on_relation = self._indexes.get(relation_name)
        if on_relation is None or on_relation.pop(tuple(attributes), None) is None:
            return False
        if not on_relation:
            del self._indexes[relation_name]
        if self.on_change is not None:
            self.on_change("drop_index", relation_name)
        return True

    def lookup(self, relation_name: str,
               attributes: Sequence[str]) -> HashIndex | None:
        """The index on exactly these attributes, if declared."""
        return self._indexes.get(relation_name, _NO_INDEXES).get(tuple(attributes))

    def indexes_on(self, relation_name: str) -> tuple[HashIndex, ...]:
        """Every index declared over ``relation_name``."""
        return tuple(self._indexes.get(relation_name, _NO_INDEXES).values())

    def apply_deltas(self, deltas: Mapping[str, Delta]) -> None:
        """Propagate a commit's net deltas into all affected indexes."""
        for name, delta in deltas.items():
            for index in self._indexes.get(name, _NO_INDEXES).values():
                index.apply_delta(delta)

    def __len__(self) -> int:
        return sum(len(on_relation) for on_relation in self._indexes.values())

    def __repr__(self) -> str:
        return f"<IndexManager {len(self)} indexes>"
