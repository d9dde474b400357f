"""Tuple (row) handling.

Internally, relations store rows as plain Python value tuples aligned
with their schema's attribute order — the cheapest hashable
representation for the join-heavy workloads of the benchmarks.  The
:class:`Row` class in this module is a *view* over such a value tuple
that offers mapping-style access by attribute name, used at API
boundaries and in examples; the inner loops of the evaluator never
allocate Rows.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from repro.algebra.schema import RelationSchema
from repro.errors import SchemaError


class Row(Mapping[str, object]):
    """An immutable named view over one stored tuple.

    >>> from repro.algebra.schema import RelationSchema
    >>> schema = RelationSchema(["A", "B"])
    >>> row = Row(schema, (1, 2))
    >>> row["A"], row["B"]
    (1, 2)
    >>> dict(row)
    {'A': 1, 'B': 2}
    """

    __slots__ = ("schema", "values")

    def __init__(self, schema: RelationSchema, values: Sequence[int]) -> None:
        if len(values) != len(schema):
            raise SchemaError(
                f"row arity {len(values)} does not match schema {schema.names}"
            )
        self.schema = schema
        self.values: tuple[int, ...] = tuple(values)

    def __getitem__(self, name: str) -> object:
        i = self.schema.index(name)
        return self.schema.attributes[i].domain.decode(self.values[i])

    def __iter__(self) -> Iterator[str]:
        return iter(self.schema.names)

    def __len__(self) -> int:
        return len(self.values)

    def raw(self, name: str) -> int:
        """The encoded (integer) value of attribute ``name``."""
        return self.values[self.schema.index(name)]

    def project(self, names: Sequence[str]) -> "Row":
        """A Row over the sub-schema ``names``."""
        positions = self.schema.positions(names)
        return Row(
            self.schema.project_schema(names),
            tuple(self.values[i] for i in positions),
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self.schema == other.schema and self.values == other.values
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.schema, self.values))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={self[n]!r}" for n in self.schema.names)
        return f"Row({inner})"


def coerce_row(schema: RelationSchema, row: object) -> tuple[int, ...]:
    """Convert any user-supplied row shape to an encoded value tuple.

    Accepts a :class:`Row`, a mapping from attribute names, or a
    positional sequence, validating values against the schema's domains.

    A row goes through this door once, at the API edge (transactions,
    ``create_relation``, ``Delta(...)``, the raw-row ``Relation``
    methods, documents, a shard's raw batches); the result is never
    passed back in — under a ``StringDomain`` a code is not a raw value.
    """
    # Tuples and lists first: nearly every row is one, and the
    # ``typing`` ABC checks below cost several times the encode.
    if isinstance(row, (tuple, list)):
        return schema.encode_values(row)
    if isinstance(row, Row):
        if row.schema.names != schema.names:
            raise SchemaError(
                f"row schema {row.schema.names} does not match {schema.names}"
            )
        return row.values
    if isinstance(row, Mapping):
        missing = [n for n in schema.names if n not in row]
        if missing:
            raise SchemaError(f"row is missing attributes {missing}")
        extra = [n for n in row if n not in schema]
        if extra:
            raise SchemaError(f"row has attributes {extra} not in schema {schema.names}")
        return schema.encode_values([row[n] for n in schema.names])
    if isinstance(row, Sequence) and not isinstance(row, (str, bytes)):
        return schema.encode_values(row)
    raise SchemaError(f"cannot interpret {row!r} as a row of {schema.names}")
