"""Relation schemes.

A :class:`RelationSchema` is an *ordered* sequence of named attributes,
mirroring the paper's relation schemes ``R = {A, B}``.  Order matters
operationally (tuples are stored as plain value tuples aligned with the
schema), but schema equality and the set operations used by the paper's
formalism (``R_i ∩ R_j``, ``Y ∩ R``) treat a schema as the set of its
attribute names.

Attribute names are strings and must be unique within a schema.  The
paper's Section 4 formalism assumes the relation schemes mentioned in a
view are pairwise disjoint (``R_i ∩ R_j = ∅``); where the library needs
to combine relations whose schemas share names (natural join), the
normalization step of :mod:`repro.algebra.expressions` introduces
*qualified* attribute aliases such as ``s.B``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

from repro.algebra.domains import Domain, INTEGERS, IntegerDomain
from repro.errors import SchemaError


class Attribute:
    """A named attribute with a domain.

    Attributes compare equal by ``(name, domain)``; two attributes of the
    same name in different schemas refer to the same logical attribute,
    exactly as the paper's variable naming does.
    """

    __slots__ = ("name", "domain")

    def __init__(self, name: str, domain: Domain | None = None) -> None:
        if not name or not isinstance(name, str):
            raise SchemaError(f"attribute name must be a non-empty string, got {name!r}")
        self.name = name
        self.domain = domain if domain is not None else INTEGERS

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Attribute)
            and self.name == other.name
            and self.domain == other.domain
        )

    def __hash__(self) -> int:
        return hash((self.name, self.domain))

    def __repr__(self) -> str:
        return f"Attribute({self.name!r})"

    def renamed(self, new_name: str) -> "Attribute":
        """Return a copy of this attribute under ``new_name``."""
        return Attribute(new_name, self.domain)


class RelationSchema:
    """An ordered relation scheme.

    Parameters
    ----------
    attributes:
        Either :class:`Attribute` objects or bare strings (which get the
        default integer domain, matching the paper's convention).

    Examples
    --------
    >>> R = RelationSchema(["A", "B"])
    >>> R.names
    ('A', 'B')
    >>> R.index("B")
    1
    """

    __slots__ = ("attributes", "names", "_index", "_nameset", "_arity", "_plain_integers")

    def __init__(self, attributes: Iterable[Attribute | str]) -> None:
        attrs = []
        for a in attributes:
            if isinstance(a, str):
                attrs.append(Attribute(a))
            elif isinstance(a, Attribute):
                attrs.append(a)
            else:
                raise SchemaError(f"expected Attribute or str, got {a!r}")
        self.attributes: tuple[Attribute, ...] = tuple(attrs)
        self.names: tuple[str, ...] = tuple(a.name for a in self.attributes)
        if len(set(self.names)) != len(self.names):
            raise SchemaError(f"duplicate attribute names in schema {self.names}")
        if not self.names:
            raise SchemaError("a relation schema needs at least one attribute")
        self._index = {name: i for i, name in enumerate(self.names)}
        self._nameset = frozenset(self.names)
        self._arity = len(self.names)
        #: Every domain is exactly IntegerDomain: an ``int`` is its own
        #: encoding, so whole tuples pass through without per-value calls.
        self._plain_integers = all(
            type(a.domain) is IntegerDomain for a in self.attributes
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def index(self, name: str) -> int:
        """Position of attribute ``name`` in the schema order."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"schema {self.names} has no attribute {name!r}") from None

    def domain_of(self, name: str) -> Domain:
        """Domain of attribute ``name``."""
        return self.attributes[self.index(name)].domain

    def __contains__(self, name: object) -> bool:
        return name in self._nameset

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    @property
    def nameset(self) -> frozenset[str]:
        """The schema viewed as a set of attribute names (the paper's R)."""
        return self._nameset

    # ------------------------------------------------------------------
    # Set-style algebra on schemas
    # ------------------------------------------------------------------
    def is_disjoint(self, other: "RelationSchema") -> bool:
        """True when the schemas share no attribute name (``R ∩ S = ∅``)."""
        return self._nameset.isdisjoint(other._nameset)

    def shared_names(self, other: "RelationSchema") -> tuple[str, ...]:
        """Attribute names common to both schemas, in this schema's order."""
        return tuple(n for n in self.names if n in other._nameset)

    def concat(self, other: "RelationSchema") -> "RelationSchema":
        """Schema of a cross product; requires disjointness."""
        if not self.is_disjoint(other):
            raise SchemaError(
                "cross product requires disjoint schemas; "
                f"shared attributes: {self.shared_names(other)}"
            )
        return RelationSchema(self.attributes + other.attributes)

    def join_schema(self, other: "RelationSchema") -> "RelationSchema":
        """Schema of a natural join: this schema then ``other``'s new names."""
        extra = tuple(a for a in other.attributes if a.name not in self._nameset)
        return RelationSchema(self.attributes + extra)

    def project_schema(self, names: Sequence[str]) -> "RelationSchema":
        """Schema restricted to ``names`` (in the given order)."""
        if not names:
            raise SchemaError("projection needs at least one attribute")
        return RelationSchema(tuple(self.attributes[self.index(n)] for n in names))

    def positions(self, names: Sequence[str]) -> tuple[int, ...]:
        """Indices of ``names`` in schema order (for fast row slicing)."""
        return tuple(self.index(n) for n in names)

    def renamed(self, mapping: Mapping[str, str]) -> "RelationSchema":
        """Return a schema with attributes renamed per ``mapping``.

        Names absent from ``mapping`` are kept.  Used by the SPJ
        normalizer to qualify duplicate names before a cross product.
        """
        return RelationSchema(
            tuple(a.renamed(mapping.get(a.name, a.name)) for a in self.attributes)
        )

    # ------------------------------------------------------------------
    # Value handling
    # ------------------------------------------------------------------
    def encode_values(self, values: Sequence[object]) -> tuple[int, ...]:
        """Validate and encode one tuple of raw values against the schema."""
        arity = len(values)
        if self._plain_integers and arity == self._arity:
            for v in values:
                if type(v) is not int:
                    break  # bool, subclass, non-integer: validate below
            else:
                return tuple(values)  # type: ignore  # every value is an int
        if arity != self._arity:
            raise SchemaError(
                f"tuple arity {arity} does not match schema arity "
                f"{self._arity} ({self.names})"
            )
        return tuple(
            attr.domain.validate(v) for attr, v in zip(self.attributes, values)
        )

    def encode_rows(self, rows: Iterable[object]) -> list[tuple[int, ...]]:
        """Validate and encode a batch of raw rows, in order: the load door.

        A plain-integer batch of exact tuples and lists is checked whole,
        in C-level passes over row types, arities and value types (a
        ``bool`` is refused, as ``IntegerDomain`` refuses it).  Anything
        else goes row by row through ``coerce_row``, which raises on the
        first bad row.
        """
        rows = rows if type(rows) is list else list(rows)
        if self._plain_integers and set(map(type, rows)) <= {tuple, list}:
            encoded = list(map(tuple, rows))
            if set(map(len, encoded)) <= {len(self.names)} and set(
                map(type, chain.from_iterable(encoded))
            ) <= {int}:
                return encoded
        from repro.algebra.tuples import coerce_row  # tuples imports this module

        return [coerce_row(self, row) for row in rows]

    def decode_values(self, codes: Sequence[int]) -> tuple[object, ...]:
        """Invert :meth:`encode_values`."""
        if self._plain_integers:
            return tuple(codes)
        return tuple(
            attr.domain.decode(c) for attr, c in zip(self.attributes, codes)
        )

    # ------------------------------------------------------------------
    # Dunders
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, RelationSchema) and self.attributes == other.attributes

    def __hash__(self) -> int:
        return hash(self.attributes)

    def __repr__(self) -> str:
        return f"RelationSchema({list(self.names)!r})"
