"""A view oracle that shares no code with the system: SQL on ``sqlite3``.

Each view definition is translated, node by node, into one SQL query
over tables holding the base relations' rows; a view read by another
view is inlined as a subquery, so a stacked view is evaluated from the
base rows up, as SQL would.  Nothing here calls
``repro.algebra.evaluate``, the normal form, a plan or a kernel: the
only things read from the system are the definitions' syntax trees and
the stored rows.

Semantics, as the paper and ``docs/aggregates.md`` state them:

* a base relation is a set, a view a bag: SQL's own duplicate rows,
  counted with ``COUNT(*)`` at the end;
* a projection keeps duplicates, a join multiplies them;
* a selection atom ``x op y + c`` is the SQL comparison of the same
  form, a DNF condition ``OR`` of ``AND`` s;
* an aggregate view renders one row per non-empty group (a global
  aggregate over no rows renders none): ``COUNT``, ``SUM``, ``MIN``,
  ``MAX``, and ``AVG`` as the floor of ``SUM / COUNT`` — SQL's integer
  division truncates toward zero, so the floor is spelt out.

Run one as ``SqliteOracle(database).contents(definitions, name)``: the
``values -> count`` map of the view's rows, over the encoded values the
database stores; ``load()`` copies the base rows again after a commit.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Mapping

_OPS = {"=": "=", "<": "<", ">": ">", "<=": "<=", ">=": ">="}


class SqliteOracle:
    """The base relations of one database, loaded into an in-memory
    sqlite database, and the views' contents by SQL.  SQL names are
    case-blind, so every column goes by its place (``k0``, ``k1``, …);
    the translation keeps which attribute name each place holds."""

    def __init__(self, database: Any) -> None:
        self.connection = sqlite3.connect(":memory:")
        self.database = database
        self.columns: dict[str, list[str]] = {}
        for name in database.relation_names():
            columns = list(database.relation(name).schema.names)
            self.columns[name] = columns
            self.connection.execute(f"CREATE TABLE {_q(name)} ({_places(len(columns))})")
        self._aliases = 0
        self.load()

    def load(self) -> None:
        """Copy every base relation's rows as they stand now."""
        for name, columns in self.columns.items():
            self.connection.execute(f"DELETE FROM {_q(name)}")
            self.connection.executemany(
                f"INSERT INTO {_q(name)} VALUES ({', '.join('?' * len(columns))})",
                list(self.database.relation(name).count_map),
            )

    def close(self) -> None:
        self.connection.close()

    def contents(self, definitions: Mapping[str, Any], name: str) -> dict[tuple, int]:
        """View ``name``'s rows and their counts.  ``definitions`` maps
        every view name to its expression; a name it does not hold is a
        base relation."""
        sql, columns = self._query(definitions[name], definitions)
        listed = _places(len(columns))
        counted = f"SELECT {listed}, COUNT(*) FROM ({sql}) AS {self._alias()} GROUP BY {listed}"
        return {tuple(row[:-1]): row[-1] for row in self.connection.execute(counted)}

    def _alias(self) -> str:
        self._aliases += 1
        return f"q{self._aliases}"

    def _query(self, node: Any, definitions: Mapping[str, Any]) -> tuple[str, list[str]]:
        """One expression node as ``(SELECT k0, k1, …, the attribute
        name each place holds)``."""
        kind = type(node).__name__
        if kind == "BaseRef":
            if node.name in definitions:
                return self._query(definitions[node.name], definitions)
            columns = self.columns[node.name]
            return f"SELECT {_places(len(columns))} FROM {_q(node.name)}", columns
        if kind == "Select":
            sql, columns = self._query(node.child, definitions)
            where = _condition(node.condition, columns)
            return f"SELECT * FROM ({sql}) AS {self._alias()} WHERE {where}", columns
        if kind == "Project":
            sql, columns = self._query(node.child, definitions)
            picked = [f"k{columns.index(a)} AS k{i}" for i, a in enumerate(node.attributes)]
            return f"SELECT {', '.join(picked)} FROM ({sql}) AS {self._alias()}", list(node.attributes)
        if kind == "Rename":
            sql, columns = self._query(node.child, definitions)
            return sql, [node.mapping.get(c, c) for c in columns]
        if kind in ("Join", "Product"):
            left, left_columns = self._query(node.left, definitions)
            right, right_columns = self._query(node.right, definitions)
            a, b = self._alias(), self._alias()
            shared = [c for c in left_columns if c in right_columns] if kind == "Join" else []
            kept = [j for j, c in enumerate(right_columns) if c not in shared]
            cells = [f"{a}.k{i}" for i in range(len(left_columns))] + [f"{b}.k{j}" for j in kept]
            picked = ", ".join(f"{cell} AS k{i}" for i, cell in enumerate(cells))
            on = " AND ".join(
                f"{a}.k{left_columns.index(c)} = {b}.k{right_columns.index(c)}" for c in shared
            ) or "1"
            columns = left_columns + [right_columns[j] for j in kept]
            return f"SELECT {picked} FROM ({left}) AS {a} JOIN ({right}) AS {b} ON {on}", columns
        if kind == "Aggregate":
            sql, columns = self._query(node.child, definitions)
            spec = node.spec
            keys = [f"k{columns.index(k)}" for k in spec.keys]
            cells = keys + [
                _aggregate(c.func, None if c.attribute is None else f"k{columns.index(c.attribute)}")
                for c in spec.columns
            ]
            picked = ", ".join(f"{cell} AS k{i}" for i, cell in enumerate(cells))
            grouped = f" GROUP BY {', '.join(keys)}" if keys else ""
            inner = f"SELECT {picked}, COUNT(*) AS support FROM ({sql}) AS {self._alias()}{grouped}"
            listed = _places(len(cells))
            return (f"SELECT {listed} FROM ({inner}) AS {self._alias()} WHERE support > 0",
                    list(spec.keys) + [c.alias for c in spec.columns])
        raise NotImplementedError(f"the sqlite oracle does not translate {kind}")


def _q(name: str) -> str:
    """A table name, quoted for SQL."""
    return '"' + name.replace('"', '""') + '"'


def _places(width: int) -> str:
    return ", ".join(f"k{i}" for i in range(width))


def _condition(condition: Any, columns: list[str]) -> str:
    """A DNF condition over ``columns`` as a SQL boolean expression."""

    def term(term: Any) -> str:
        return f"k{columns.index(term.name)}" if type(term).__name__ == "Var" else str(term.value)

    disjuncts = []
    for conjunction in condition.disjuncts:
        atoms = []
        for atom in conjunction.atoms:
            right = term(atom.right)
            if atom.offset:
                right = f"({right} + {atom.offset})"
            atoms.append(f"({term(atom.left)} {_OPS[atom.op]} {right})")
        disjuncts.append("(" + (" AND ".join(atoms) or "1") + ")")
    return " OR ".join(disjuncts) or "0"


def _aggregate(func: str, cell: str | None) -> str:
    if func == "count":
        return "COUNT(*)"
    if func == "avg":
        # floor(SUM / COUNT) for a positive COUNT, whatever SUM's sign.
        total, count = f"SUM({cell})", "COUNT(*)"
        return f"(({total}) - ((({total}) % {count}) + {count}) % {count}) / {count}"
    return f"{func.upper()}({cell})"
