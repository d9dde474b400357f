"""Declared keys and foreign keys — the engine's dependency premises.

The paper's machinery reasons over per-relation *range* conditions
(:mod:`repro.engine.constraints`); this catalog adds the second premise
family the self-maintenance literature builds on: **candidate keys**
(no two stored rows agree on the key attributes) and **foreign keys**
(every referencing row's key-valued attributes match the key of some
row in the referenced relation).  Like range constraints, declared
keys serve two masters:

* **Enforcement** — the commit pipeline rejects transactions whose net
  effect would leave two rows agreeing on a declared key
  (:class:`~repro.errors.KeyViolationError`) or a referencing row
  without its referenced partner; declaration itself fails if the
  existing rows already violate the invariant.  Every stored state
  therefore satisfies every declared key and foreign key at all times.
* **Static analysis** — the chase pass
  (:mod:`repro.analysis.dependencies`) seeds functional dependencies
  from declared keys, propagates them through a view condition's
  equality atoms, and derives *view keys*, counter-free proofs, and
  FK-join reductions whose verdicts are load-bearing at runtime
  (base-free hosting, counter-free codegen).

Declaring or dropping fires the database's DDL hook bus (events
``"declare_key"`` / ``"drop_key"`` / ``"declare_foreign_key"`` /
``"drop_foreign_key"``), so cached plans embedding dependency proofs
are invalidated exactly like plans staled by a constraint change.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from repro.algebra.schema import RelationSchema
from repro.errors import ConstraintError

#: Fired as ``notify(event, relation_name)`` — the same shape as the
#: database's other DDL events.
NotifyFn = Callable[[str, str], None]

ValueTuple = tuple[int, ...]


class ForeignKey:
    """One declared foreign key: referencing attrs → referenced key."""

    __slots__ = ("relation", "attributes", "ref_relation", "ref_attributes")

    def __init__(
        self,
        relation: str,
        attributes: tuple[str, ...],
        ref_relation: str,
        ref_attributes: tuple[str, ...],
    ) -> None:
        self.relation = relation
        self.attributes = attributes
        self.ref_relation = ref_relation
        self.ref_attributes = ref_attributes

    def describe(self) -> str:
        """``r (B) references p (K)`` — the CLI/declaration spelling."""
        return (
            f"{self.relation} ({', '.join(self.attributes)}) references "
            f"{self.ref_relation} ({', '.join(self.ref_attributes)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ForeignKey):
            return NotImplemented
        return (
            self.relation == other.relation
            and self.attributes == other.attributes
            and self.ref_relation == other.ref_relation
            and self.ref_attributes == other.ref_attributes
        )

    def __hash__(self) -> int:
        return hash(
            (self.relation, self.attributes, self.ref_relation, self.ref_attributes)
        )

    def __repr__(self) -> str:
        return f"<ForeignKey {self.describe()}>"


class KeyCatalog:
    """The declared keys and foreign keys of one database.

    Relations may carry several candidate keys; foreign keys are stored
    under their *referencing* relation and must target a declared key
    of the referenced relation (the owning database validates that, and
    contents, at declaration time — the catalog only keeps the mapping
    and fires change notifications, mirroring
    :class:`~repro.engine.constraints.ConstraintCatalog`).
    """

    __slots__ = ("_keys", "_foreign_keys", "_notify")

    def __init__(self, notify: NotifyFn | None = None) -> None:
        self._keys: dict[str, list[tuple[str, ...]]] = {}
        self._foreign_keys: dict[str, list[ForeignKey]] = {}
        self._notify = notify

    # -- keys -----------------------------------------------------------
    def declare_key(self, relation_name: str, attributes: Sequence[str]) -> None:
        """Record ``attributes`` as a candidate key (idempotent)."""
        key = tuple(attributes)
        keys = self._keys.setdefault(relation_name, [])
        if key not in keys:
            keys.append(key)
            keys.sort()
        if self._notify is not None:
            self._notify("declare_key", relation_name)

    def drop_key(
        self, relation_name: str, attributes: Sequence[str] | None = None
    ) -> bool:
        """Forget one key (or all of a relation's); True when one existed.

        A key a declared foreign key still references cannot be dropped
        (every FK must target a declared key — the uniqueness premise
        the chase and the FK enforcement both rely on); drop the
        foreign key first.
        """
        keys = self._keys.get(relation_name)
        if not keys:
            return False
        dropped = keys if attributes is None else [tuple(attributes)]
        for fk in self.referencing(relation_name):
            if fk.ref_attributes in dropped:
                raise ConstraintError(
                    f"cannot drop key ({', '.join(fk.ref_attributes)}) on "
                    f"'{relation_name}': the foreign key {fk.describe()} "
                    "targets it; drop the foreign key first"
                )
        if attributes is None:
            del self._keys[relation_name]
        else:
            key = tuple(attributes)
            if key not in keys:
                return False
            keys.remove(key)
            if not keys:
                del self._keys[relation_name]
        if self._notify is not None:
            self._notify("drop_key", relation_name)
        return True

    def keys_of(self, relation_name: str) -> tuple[tuple[str, ...], ...]:
        """The declared candidate keys of ``relation_name`` (sorted)."""
        return tuple(self._keys.get(relation_name, ()))

    def has_key(self, relation_name: str) -> bool:
        return bool(self._keys.get(relation_name))

    # -- foreign keys ---------------------------------------------------
    def declare_foreign_key(self, foreign_key: ForeignKey) -> None:
        """Record one foreign key (idempotent)."""
        fks = self._foreign_keys.setdefault(foreign_key.relation, [])
        if foreign_key not in fks:
            fks.append(foreign_key)
            fks.sort(key=lambda fk: (fk.ref_relation, fk.attributes, fk.ref_attributes))
        if self._notify is not None:
            self._notify("declare_foreign_key", foreign_key.relation)

    def drop_foreign_key(self, relation_name: str, ref_relation: str) -> bool:
        """Forget the foreign keys from ``relation_name`` to ``ref_relation``."""
        fks = self._foreign_keys.get(relation_name)
        if not fks:
            return False
        remaining = [fk for fk in fks if fk.ref_relation != ref_relation]
        if len(remaining) == len(fks):
            return False
        if remaining:
            self._foreign_keys[relation_name] = remaining
        else:
            del self._foreign_keys[relation_name]
        if self._notify is not None:
            self._notify("drop_foreign_key", relation_name)
        return True

    def foreign_keys_of(self, relation_name: str) -> tuple[ForeignKey, ...]:
        """Foreign keys declared *on* (referencing from) ``relation_name``."""
        return tuple(self._foreign_keys.get(relation_name, ()))

    def referencing(self, ref_relation: str) -> tuple[ForeignKey, ...]:
        """Every foreign key whose *referenced* relation is ``ref_relation``."""
        found = [
            fk
            for fks in self._foreign_keys.values()
            for fk in fks
            if fk.ref_relation == ref_relation
        ]
        found.sort(key=lambda fk: (fk.relation, fk.attributes, fk.ref_attributes))
        return tuple(found)

    # -- bulk views -----------------------------------------------------
    def names(self) -> tuple[str, ...]:
        """Relations carrying a declared key, sorted."""
        return tuple(sorted(self._keys))

    def items(self) -> Iterator[tuple[str, tuple[tuple[str, ...], ...]]]:
        """(relation, keys) in sorted name order."""
        for name in self.names():
            yield name, tuple(self._keys[name])

    def foreign_key_items(self) -> Iterator[ForeignKey]:
        """Every declared foreign key, referencing-relation order."""
        for name in sorted(self._foreign_keys):
            yield from self._foreign_keys[name]

    def discard(self, relation_name: str) -> None:
        """Drop everything involving ``relation_name`` without notifying —
        for relation drops, which already fire their own DDL event."""
        self._keys.pop(relation_name, None)
        self._foreign_keys.pop(relation_name, None)
        for name in list(self._foreign_keys):
            remaining = [
                fk
                for fk in self._foreign_keys[name]
                if fk.ref_relation != relation_name
            ]
            if remaining:
                self._foreign_keys[name] = remaining
            else:
                del self._foreign_keys[name]

    def __len__(self) -> int:
        return sum(len(keys) for keys in self._keys.values())

    def __contains__(self, relation_name: str) -> bool:
        return bool(self._keys.get(relation_name))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}: {[list(key) for key in keys]}" for name, keys in self.items()
        )
        return f"<KeyCatalog {inner or 'empty'}>"


def validate_key_attributes(
    relation_name: str, attributes: Sequence[str], schema: RelationSchema
) -> tuple[str, ...]:
    """Reject empty, duplicated, or out-of-schema key attribute lists."""
    key = tuple(attributes)
    if not key:
        raise ConstraintError(
            f"key on {relation_name!r} must name at least one attribute"
        )
    if len(set(key)) != len(key):
        raise ConstraintError(
            f"key on {relation_name!r} repeats attributes: {list(key)}"
        )
    stray = [name for name in key if name not in schema.nameset]
    if stray:
        raise ConstraintError(
            f"key on {relation_name!r} references attributes {stray} "
            f"outside its schema {list(schema.names)}"
        )
    return key


def find_key_collisions(
    schema: RelationSchema,
    key: tuple[str, ...],
    rows: Iterable[ValueTuple],
) -> list[tuple[ValueTuple, ValueTuple]]:
    """Pairs of distinct rows agreeing on ``key``, sorted (first few)."""
    positions = [schema.index(name) for name in key]
    seen: dict[ValueTuple, ValueTuple] = {}
    collisions: list[tuple[ValueTuple, ValueTuple]] = []
    for values in sorted(rows):
        key_values = tuple(values[p] for p in positions)
        other = seen.get(key_values)
        if other is not None and other != values:
            collisions.append((other, values))
        else:
            seen[key_values] = values
    return collisions


def find_dangling_references(
    foreign_key: ForeignKey,
    referencing_schema: RelationSchema,
    referencing_rows: Iterable[ValueTuple],
    referenced_schema: RelationSchema,
    referenced_rows: Iterable[ValueTuple],
) -> list[ValueTuple]:
    """Referencing rows with no referenced-key partner, sorted."""
    src_positions = [
        referencing_schema.index(name) for name in foreign_key.attributes
    ]
    dst_positions = [
        referenced_schema.index(name) for name in foreign_key.ref_attributes
    ]
    present = {
        tuple(values[p] for p in dst_positions) for values in referenced_rows
    }
    dangling = [
        values
        for values in referencing_rows
        if tuple(values[p] for p in src_positions) not in present
    ]
    return sorted(dangling)
