"""Counted relations and their deltas.

Two tuple-collection types underpin the whole library:

* :class:`Relation` — a relation with the paper's Section 5.2
  *multiplicity counter*: a mapping from tuple to a positive count.
  Base relations always hold count 1 per tuple (the paper notes the
  counter "need not be explicitly stored" for them); materialized views
  rely on real counts so that projection distributes over difference.
  A stored relation — base relation or view contents alike — also
  carries the :class:`HashIndex` es its readers probe, and every
  mutator keeps them in step.

* :class:`Delta` — the net effect of a transaction on one relation: a
  set of inserted tuples and a disjoint set of deleted tuples, exactly
  the ``(i_r, d_r)`` pair of Section 3.

Both store rows as encoded value tuples aligned with their schema.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from types import MappingProxyType
from typing import AbstractSet, Callable, Collection, Iterable, Iterator, Mapping, Sequence

from repro.algebra.schema import RelationSchema
from repro.algebra.tuples import Row, coerce_row
from repro.errors import DomainError, MaintenanceError, SchemaError
from repro.instrumentation import charge

ValueTuple = tuple[int, ...]

_NO_ROWS: frozenset[ValueTuple] = frozenset()


def key_function(positions: Sequence[int]) -> Callable[[ValueTuple], ValueTuple]:
    """The function that builds a row's key: its values at
    ``positions``, as a tuple (a 1-tuple for one position)."""
    if len(positions) == 1:
        (position,) = positions
        return lambda values: (values[position],)
    return itemgetter(*positions)


def first_repeat(encoded: Sequence[ValueTuple]) -> int:
    """Position of the first tuple equal to an earlier one (there is one)."""
    seen: set[ValueTuple] = set()
    for position, values in enumerate(encoded):
        if values in seen:
            return position
        seen.add(values)
    raise ValueError("no tuple repeats an earlier one")


class HashIndex:
    """A hash index mapping key values to the rows that carry them.

    The differential algorithm repeatedly joins small delta relations
    against large, mostly-static stored relations ("old" operands);
    probing one by the values of a few join attributes is what this
    serves.  ``attributes`` names the indexed attributes, in key order.
    Rows are stored as full encoded value tuples; a key maps to the set
    of *distinct* rows sharing it, so the same index serves a bag (a
    view's contents), whose multiplicities stay in the relation's count
    map.  Obtained from :meth:`Relation.index_on`; every delta the
    relation takes goes through :func:`apply_counts`, which keeps it in
    step (or refuses with nothing changed, the index included).
    """

    __slots__ = ("attributes", "key_of", "lookup", "_buckets", "_getter", "_single")

    def __init__(self, relation: "Relation", attributes: Sequence[str]) -> None:
        if not attributes:
            raise SchemaError("an index needs at least one attribute")
        self.attributes = tuple(attributes)
        positions = relation.schema.positions(self.attributes)
        #: A stored row's key: its values of ``attributes``, as a tuple.
        self.key_of = key_function(positions)
        #: Many rows' keys at once, mapped in C (:meth:`_update` wraps a
        #: one-position getter's bare values into 1-tuples).
        self._getter = itemgetter(*positions)
        self._single = len(positions) == 1
        self._buckets: dict[ValueTuple, set[ValueTuple]] = {}
        #: ``lookup(key, default)``: :meth:`probe` without its charge,
        #: for callers that count their own probes (the row kernels).
        #: The bucket dict's own ``get``: valid for the index's life,
        #: as a rebuild clears the dict in place.
        self.lookup = self._buckets.get
        self._rebuild(relation)

    # ------------------------------------------------------------------
    # Maintenance (driven by the owning relation's mutators)
    # ------------------------------------------------------------------
    def _rebuild(self, relation: "Relation") -> None:
        """Re-index ``relation`` in place: holders of this index keep it."""
        self._buckets.clear()
        self._update((), relation._counts)

    def _update(self, gone: Collection[ValueTuple], arrived: Collection[ValueTuple]) -> None:
        """Take the ``gone`` rows out of their buckets, then put the
        ``arrived`` ones in, with no Python call per row."""
        buckets = self._buckets
        if gone:
            keys = map(self._getter, gone)
            for key, values in zip(zip(keys) if self._single else keys, gone):
                bucket = buckets[key]
                bucket.discard(values)
                if not bucket:
                    del buckets[key]
        if arrived:
            keys = map(self._getter, arrived)
            for key, values in zip(zip(keys) if self._single else keys, arrived):
                if key in buckets:
                    buckets[key].add(values)
                else:
                    buckets[key] = {values}

    def _stale_key(self, relation: "Relation") -> ValueTuple | None:
        """The lowest key whose bucket differs from a rebuild over
        ``relation``; ``None`` when the index is in step with it."""
        rebuilt = HashIndex(relation, self.attributes)._buckets
        kept = self._buckets
        if kept == rebuilt:
            return None
        return min(
            key
            for key in kept.keys() | rebuilt.keys()
            if kept.get(key) != rebuilt.get(key)
        )

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe(self, key: ValueTuple) -> AbstractSet[ValueTuple]:
        """All rows whose indexed attributes equal ``key``.

        Returns the index's own bucket, not a copy (a shared empty set
        on a miss): read it, never mutate it, and do not hold it across
        a commit — the next change to the relation changes it in place.
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
            f"<HashIndex ({', '.join(self.attributes)}) "
            f"{len(self._buckets)} keys>"
        )


class Relation:
    """A multiset of tuples over one schema, stored as tuple → count.

    Counts are always positive; removing the last copy of a tuple
    removes its entry entirely, which is the paper's rule for deleting a
    view tuple "if the counter becomes zero".

    >>> r = Relation.from_rows(RelationSchema(["A", "B"]), [(1, 10), (2, 10)])
    >>> len(r)
    2
    >>> r.total_count()
    2
    """

    __slots__ = ("schema", "_counts", "_indexes")

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema
        self._counts: dict[ValueTuple, int] = {}
        #: Indexed attributes → hash index.  One rule for sets and bags
        #: in every mutator: a tuple enters its buckets when its counter
        #: leaves zero and leaves them when the counter returns to zero.
        self._indexes: dict[tuple[str, ...], HashIndex] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls, schema: RelationSchema, rows: Iterable[object]
    ) -> "Relation":
        """Build a relation from any mix of Rows, mappings or sequences
        (one :meth:`RelationSchema.encode_rows` batch); a repeat counts."""
        return cls.adopt(schema, dict(Counter(schema.encode_rows(rows))))

    @classmethod
    def adopt(cls, schema: RelationSchema, counts: dict[ValueTuple, int]) -> "Relation":
        """The relation *over* a loader's count map of encoded tuples and
        positive counts, unchecked and not copied."""
        rel = cls(schema)
        rel._counts = counts
        return rel

    @classmethod
    def from_counts(
        cls, schema: RelationSchema, counts: Mapping[ValueTuple, int]
    ) -> "Relation":
        """Build a relation directly from encoded tuple counts (internal)."""
        rel = cls(schema)
        for values, count in counts.items():
            if count <= 0:
                raise MaintenanceError(
                    f"relation counts must be positive, got {count} for {values}"
                )
            rel._counts[tuple(values)] = count
        return rel

    def copy(self) -> "Relation":
        """An independent copy sharing the (immutable) schema."""
        rel = Relation(self.schema)
        rel._counts = dict(self._counts)
        return rel

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, row: object, count: int = 1) -> None:
        """Insert ``count`` copies of ``row`` (incrementing its counter).
        Raw rows only, as for ``discard``, ``count_of`` and ``in``."""
        apply_counts(self, {coerce_row(self.schema, row): count}, {})

    def discard(self, row: object, count: int = 1) -> None:
        """Remove ``count`` copies of ``row``.

        Raises :class:`MaintenanceError` when the relation does not hold
        that many copies — under correct differential maintenance a view
        counter never goes negative, so a failure here signals a bug (or
        a deliberately corrupted state in the tests).
        """
        apply_counts(self, {}, {coerce_row(self.schema, row): count})

    def clear(self) -> int:
        """Drop every tuple; returns how many distinct tuples were held.

        Base-free hosts (followers and shard nodes carrying only
        self-maintainable views) call this to shed their base-relation
        copies after bootstrap — the schema stays, the rows go.
        """
        dropped = len(self._counts)
        self._counts.clear()
        for index in self._indexes.values():
            index._buckets.clear()
        return dropped

    def assign(self, other: "Relation") -> None:
        """Take ``other``'s tuples and counts, in place.

        The relation keeps its identity and its indexes (rebuilt), so
        whoever holds either — a compiled plan above all — goes on
        reading the live contents.
        """
        self._require_same_schema(other)
        self._counts = dict(other._counts)
        for index in self._indexes.values():
            index._rebuild(self)

    # ------------------------------------------------------------------
    # Hash indexes
    # ------------------------------------------------------------------
    def index_on(self, attributes: Sequence[str]) -> HashIndex:
        """The hash index on ``attributes``, built from the count map on
        first request and kept in step by every mutator from then on.

        A bucket holds the *distinct* tuples sharing a key; a bag's
        multiplicities are read from the relation at probe time.
        """
        attrs = tuple(attributes)
        index = self._indexes.get(attrs)
        if index is None:
            index = self._indexes[attrs] = HashIndex(self, attrs)
        return index

    @property
    def indexes(self) -> Mapping[tuple[str, ...], HashIndex]:
        """The indexes this relation carries, by indexed attributes
        (read-only)."""
        return MappingProxyType(self._indexes)

    def _drop_index(self, attributes: Sequence[str]) -> bool:
        """Stop keeping one index; True when it existed.

        Whoever still holds the index object would probe a frozen copy,
        so only an owner that invalidates the index's readers calls
        this (``Database.drop_index``, ``ViewMaintainer.drop_view``).
        """
        return self._indexes.pop(tuple(attributes), None) is not None

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of *distinct* tuples."""
        return len(self._counts)

    def total_count(self) -> int:
        """Sum of all multiplicity counters."""
        return sum(self._counts.values())

    def __contains__(self, row: object) -> bool:
        try:
            values = coerce_row(self.schema, row)
        except (SchemaError, DomainError):
            return False  # a row that cannot be stored is not present
        return values in self._counts

    def count_of(self, row: object) -> int:
        """The multiplicity counter of ``row`` (0 when absent)."""
        values = coerce_row(self.schema, row)
        return self._counts.get(values, 0)

    def items(self) -> Iterator[tuple[ValueTuple, int]]:
        """Iterate ``(encoded_values, count)`` pairs (internal fast path)."""
        return iter(self._counts.items())

    def value_tuples(self) -> Iterator[ValueTuple]:
        """Iterate distinct encoded value tuples."""
        return iter(self._counts)

    def rows(self) -> Iterator[Row]:
        """Iterate distinct tuples as named :class:`Row` views."""
        for values in self._counts:
            yield Row(self.schema, values)

    def counts(self) -> dict[ValueTuple, int]:
        """A copy of the underlying count map."""
        return dict(self._counts)

    @property
    def count_map(self) -> Mapping[ValueTuple, int]:
        """The live count map, encoded tuple → counter (read-only)."""
        return MappingProxyType(self._counts)

    # ------------------------------------------------------------------
    # Set/multiset algebra (used by baselines and consistency checks)
    # ------------------------------------------------------------------
    def union(self, other: "Relation") -> "Relation":
        """Counted union: counts add."""
        self._require_same_schema(other)
        out = self.copy()
        for values, count in other._counts.items():
            out._counts[values] = out._counts.get(values, 0) + count
        return out

    def difference(self, other: "Relation") -> "Relation":
        """Counted difference: counts subtract; must not go negative."""
        self._require_same_schema(other)
        out = self.copy()
        for values, count in other._counts.items():
            present = out._counts.get(values, 0)
            if present < count:
                raise MaintenanceError(
                    f"counted difference would be negative for {values}: "
                    f"{present} - {count}"
                )
            if present == count:
                out._counts.pop(values, None)
            else:
                out._counts[values] = present - count
        return out

    def _require_same_schema(self, other: "Relation") -> None:
        if self.schema.names != other.schema.names:
            raise SchemaError(
                f"schema mismatch: {self.schema.names} vs {other.schema.names}"
            )

    # ------------------------------------------------------------------
    # Dunders
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.schema.names == other.schema.names and self._counts == other._counts

    def __hash__(self) -> int:  # pragma: no cover - relations are mutable
        raise TypeError("Relation is mutable and unhashable")

    def __repr__(self) -> str:
        return (
            f"<Relation {list(self.schema.names)} "
            f"{len(self)} tuples, total count {self.total_count()}>"
        )

    def pretty(self, limit: int = 20) -> str:
        """A small aligned text rendering, used by the examples."""
        header = " ".join(f"{n:>8}" for n in self.schema.names) + "    #"
        lines = [header, "-" * len(header)]
        for i, (values, count) in enumerate(sorted(self._counts.items())):
            if i >= limit:
                lines.append(f"... ({len(self) - limit} more)")
                break
            decoded = self.schema.decode_values(values)
            lines.append(" ".join(f"{v!r:>8}" for v in decoded) + f"  x{count}")
        return "\n".join(lines)


def apply_counts(
    relation: Relation,
    inserted: Mapping[ValueTuple, int],
    deleted: Mapping[ValueTuple, int],
    base: bool = False,
) -> None:
    """``r := r ∪ i − d`` from two disjoint encoded count maps over
    ``relation``'s schema, in place, looking each changed row up once.

    All or nothing: every count must be positive and no more copies
    deleted than ``relation`` holds, or a :class:`MaintenanceError`
    refuses with nothing changed — the count map holds what it held
    (as a mapping) and the indexes are as they were.  With ``base``,
    ``relation`` is a base relation, a set, and inserting a tuple it
    already holds is refused too (two open transactions that both
    inserted it); a view is a bag and counts up instead.  Every delta
    a stored relation takes applies through here: a commit's base deltas
    and their rollback, each view's delta in a trigger and its undo,
    :meth:`Delta.apply_to`, :meth:`Relation.add` and ``discard``.
    """
    counts = relation._counts
    # The rows whose counter reaches zero leave the indexes.
    gone: list[ValueTuple] = []
    if deleted:
        pop = counts.pop
        for values, count in deleted.items():
            present = pop(values, None)
            if present == count:
                gone.append(values)
            elif present is not None and 0 < count < present:
                counts[values] = present - count
            else:
                if present is not None:
                    counts[values] = present
                _put_back(counts, deleted, values)
                if count <= 0:
                    raise MaintenanceError(f"delete count must be positive, got {count}")
                raise MaintenanceError(f"cannot remove {count} copies of {values}: only {present or 0} present")
    if inserted:
        for values, count in inserted.items():
            if count <= 0 or base and values in counts:
                _put_back(counts, deleted, None)
                if count <= 0:
                    raise MaintenanceError(f"insert count must be positive, got {count}")
                raise MaintenanceError(f"cannot insert {values}: a base relation holds it already")
        if base:
            # Every row is absent: one merge, reusing the stored hashes.
            counts.update(inserted)
        else:
            for values, count in inserted.items():
                if values in counts:
                    counts[values] += count
                else:
                    counts[values] = count
    if relation._indexes:
        for index in relation._indexes.values():
            index._update(gone, inserted)


def _put_back(counts: dict[ValueTuple, int], deleted: Mapping[ValueTuple, int], stop: object) -> None:
    """Undo :func:`apply_counts`' deletes, those before ``stop``."""
    for values, count in deleted.items():
        if values == stop:
            return
        counts[values] = counts.get(values, 0) + count


class Delta:
    """The net effect ``(i_r, d_r)`` of a transaction on one relation.

    Invariant (Section 3): the inserted and deleted tuple sets are
    disjoint from each other, inserts are disjoint from the pre-state
    and deletes are contained in it.  :class:`repro.engine.transactions`
    is responsible for establishing the invariant by net-effect
    cancellation.  The constructor and :meth:`from_counts` check
    insert/delete disjointness; :meth:`adopt` trusts its caller.
    """

    __slots__ = ("schema", "inserted", "deleted")

    def __init__(
        self,
        schema: RelationSchema,
        inserted: Iterable[object] = (),
        deleted: Iterable[object] = (),
    ) -> None:
        self.schema = schema
        self.inserted: dict[ValueTuple, int] = {}
        self.deleted: dict[ValueTuple, int] = {}
        for row in inserted:
            values = coerce_row(schema, row)
            self.inserted[values] = self.inserted.get(values, 0) + 1
        for row in deleted:
            values = coerce_row(schema, row)
            self.deleted[values] = self.deleted.get(values, 0) + 1
        _require_disjoint(self.inserted, self.deleted)

    @classmethod
    def adopt(
        cls,
        schema: RelationSchema,
        inserted: dict[ValueTuple, int],
        deleted: dict[ValueTuple, int],
    ) -> "Delta":
        """The delta *over* two pre-encoded count maps, not copies, and
        unchecked: its caller built them disjoint and keeps no other
        reference — by net-effect cancellation (a transaction, a shard,
        :meth:`compose`), ``net_counts`` after a row kernel or a rebuild,
        a fold kernel's rows of distinct groups, or a screen's subset."""
        delta = cls.__new__(cls)
        delta.schema = schema
        delta.inserted = inserted
        delta.deleted = deleted
        return delta

    @classmethod
    def from_counts(
        cls,
        schema: RelationSchema,
        inserted: Mapping[ValueTuple, int],
        deleted: Mapping[ValueTuple, int],
    ) -> "Delta":
        """Internal constructor from pre-encoded count maps, copied
        (the caller's maps may be live: a relation's, another delta's)
        and checked disjoint as in ``__init__``."""
        delta = cls.adopt(schema, dict(inserted), dict(deleted))
        _require_disjoint(delta.inserted, delta.deleted)
        return delta

    def is_empty(self) -> bool:
        """True when the transaction had no net effect on this relation."""
        return not self.inserted and not self.deleted

    def insert_count(self) -> int:
        """Number of distinct net-inserted tuples."""
        return len(self.inserted)

    def delete_count(self) -> int:
        """Number of distinct net-deleted tuples."""
        return len(self.deleted)

    def apply_to(self, relation: Relation) -> None:
        """Apply this delta in place: ``r := r ∪ i_r − d_r``.

        All or nothing (:func:`apply_counts`).  The tuples are already
        encoded; only the two schemas' attribute names are compared.
        """
        if relation.schema.names != self.schema.names:
            raise SchemaError(
                f"cannot apply a delta over {self.schema.names} "
                f"to a relation over {relation.schema.names}"
            )
        apply_counts(relation, self.inserted, self.deleted)

    def compose(self, later: "Delta") -> "Delta":
        """The net effect of this delta followed by ``later``.

        Used by deferred (snapshot) maintenance to coalesce several
        transactions into one delta before a refresh.  A tuple inserted
        by one transaction and deleted by a later one cancels out, which
        is exactly the paper's "not represented at all in this set of
        changes" rule, lifted from within a transaction to a sequence of
        transactions.
        """
        if later.schema.names != self.schema.names:
            raise SchemaError(
                f"cannot compose deltas over {self.schema.names} "
                f"and {later.schema.names}"
            )
        inserted = dict(self.inserted)
        deleted = dict(self.deleted)

        for values, count in later.deleted.items():
            pending = inserted.get(values, 0)
            cancel = min(pending, count)
            if cancel:
                if pending == cancel:
                    del inserted[values]
                else:
                    inserted[values] = pending - cancel
            remaining = count - cancel
            if remaining:
                deleted[values] = deleted.get(values, 0) + remaining

        for values, count in later.inserted.items():
            pending = deleted.get(values, 0)
            cancel = min(pending, count)
            if cancel:
                if pending == cancel:
                    del deleted[values]
                else:
                    deleted[values] = pending - cancel
            remaining = count - cancel
            if remaining:
                inserted[values] = inserted.get(values, 0) + remaining

        return Delta.adopt(self.schema, inserted, deleted)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Delta):
            return NotImplemented
        return (
            self.schema.names == other.schema.names
            and self.inserted == other.inserted
            and self.deleted == other.deleted
        )

    def __repr__(self) -> str:
        return (
            f"<Delta {list(self.schema.names)} "
            f"+{len(self.inserted)} -{len(self.deleted)}>"
        )


def _require_disjoint(inserted: Mapping[ValueTuple, int], deleted: Mapping[ValueTuple, int]) -> None:
    # An empty side overlaps nothing.
    overlap = inserted and deleted and inserted.keys() & deleted.keys()
    if overlap:
        raise MaintenanceError(f"delta inserts and deletes must be disjoint; overlap: {overlap}")
