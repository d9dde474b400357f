"""The ground truth a view is checked against: its definition as SQL on
``sqlite3``.

Each view definition is translated, node by node, into one SQL query
over tables holding the named relations' rows.  Nothing here calls the
normal form, a plan or a kernel, and nothing from ``repro`` is
imported: the only things read from the system are the definitions'
syntax trees and the stored rows, so a bug in the system cannot also
be a bug in its oracle.

Semantics, as the paper and ``docs/aggregates.md`` state them:

* a relation is a bag: a row with count ``n`` is ``n`` rows of its
  table (a base relation's counts are all 1; a view read by a stacked
  view is loaded as it stands), counted with ``COUNT(*)`` at the end;
* a projection keeps duplicates, a join multiplies them;
* a selection atom ``x op y + c`` is the SQL comparison of the same
  form, a DNF condition ``OR`` of ``AND`` s;
* an aggregate view renders one row per non-empty group (a global
  aggregate over no rows renders none): ``COUNT``, ``SUM``, ``MIN``,
  ``MAX``, and ``AVG`` as the floor of ``SUM / COUNT`` — SQL's integer
  division truncates toward zero, so the floor is spelt out.

Run one as ``SqliteOracle(instances).contents(expression)``: the
``values -> count`` map of the expression's rows, over the encoded
values the relations store.  ``instances`` maps names to relations;
a table is copied the first time a query reads it, so an oracle checks
the rows as they stood then.  ``sqlite3`` is imported when the first oracle is made, and an
oracle used as a context manager closes its connection on exit.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Any, Mapping

_OPS = {"=": "=", "<": "<", ">": ">", "<=": "<=", ">=": ">="}


class SqliteOracle:
    """Named relations, copied into an in-memory sqlite database as
    queries read them, and the contents of expressions over them by
    SQL.  SQL names are case-blind, so every column goes by its place
    (``k0``, ``k1``, …); the translation keeps which attribute name
    each place holds."""

    def __init__(self, instances: Mapping[str, Any]) -> None:
        import sqlite3

        self.connection = sqlite3.connect(":memory:")
        self.instances = instances
        #: Per relation copied so far: its table (``t0``, ``t1``, …; no
        #: name reaches the SQL text) and its attribute names.
        self.tables: dict[str, tuple[str, list[str]]] = {}

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "SqliteOracle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def contents(
        self, expression: Any, definitions: Mapping[str, Any] | None = None
    ) -> dict[tuple, int]:
        """The rows of ``expression`` and their counts.  A name that
        ``definitions`` maps to an expression is inlined, so a stacked
        view is evaluated from the base rows up; any other name is a
        table of ``instances``.  The query is a ``WITH`` list of one
        named step per node, so its text does not nest deeper with each
        join (sqlite's parser stack holds no 16 nested joins)."""
        steps: list[str] = []
        source, columns = self._query(expression, definitions or {}, steps)
        listed = _places(len(columns))
        with_list = f"WITH {', '.join(steps)} " if steps else ""
        bag = f"{with_list}SELECT {listed}, COUNT(*) FROM {source} GROUP BY {listed}"
        return {tuple(row[:-1]): row[-1] for row in self.connection.execute(bag)}

    def _table(self, name: str) -> tuple[str, list[str]]:
        """Copy relation ``name``'s rows, each as often as it counts."""
        if name not in self.tables:
            relation = self.instances[name]
            sql_name, columns = self.tables[name] = (f"t{len(self.tables)}", list(relation.schema.names))
            self.connection.execute(f"CREATE TABLE {sql_name} ({_places(len(columns))})")
            self.connection.executemany(
                f"INSERT INTO {sql_name} VALUES ({', '.join('?' * len(columns))})",
                chain.from_iterable(repeat(row, count) for row, count in relation.count_map.items()),
            )
        return self.tables[name]

    def _query(
        self, node: Any, definitions: Mapping[str, Any], steps: list[str]
    ) -> tuple[str, list[str]]:
        """One expression node as ``(the table or step holding its rows
        as k0, k1, …, the attribute name each place holds)``, appending
        the steps it needs to ``steps``."""

        def step(sql: str) -> str:
            name = f"q{len(steps)}"
            steps.append(f"{name} AS ({sql})")
            return name

        kind = type(node).__name__
        if kind == "BaseRef":
            if node.name in definitions:
                return self._query(definitions[node.name], definitions, steps)
            return self._table(node.name)
        if kind == "Select":
            source, columns = self._query(node.child, definitions, steps)
            where = _condition(node.condition, columns)
            return step(f"SELECT * FROM {source} WHERE {where}"), columns
        if kind == "Project":
            source, columns = self._query(node.child, definitions, steps)
            picked = [f"k{columns.index(a)} AS k{i}" for i, a in enumerate(node.attributes)]
            return step(f"SELECT {', '.join(picked)} FROM {source}"), list(node.attributes)
        if kind == "Rename":
            source, columns = self._query(node.child, definitions, steps)
            return source, [node.mapping.get(c, c) for c in columns]
        if kind in ("Join", "Product"):
            left, left_columns = self._query(node.left, definitions, steps)
            right, right_columns = self._query(node.right, definitions, steps)
            shared = [c for c in left_columns if c in right_columns] if kind == "Join" else []
            kept = [j for j, c in enumerate(right_columns) if c not in shared]
            cells = [f"a.k{i}" for i in range(len(left_columns))] + [f"b.k{j}" for j in kept]
            picked = ", ".join(f"{cell} AS k{i}" for i, cell in enumerate(cells))
            on = " AND ".join(
                f"a.k{left_columns.index(c)} = b.k{right_columns.index(c)}" for c in shared
            ) or "1"
            columns = left_columns + [right_columns[j] for j in kept]
            return step(f"SELECT {picked} FROM {left} AS a JOIN {right} AS b ON {on}"), columns
        if kind == "Aggregate":
            source, columns = self._query(node.child, definitions, steps)
            spec = node.spec
            keys = [f"k{columns.index(k)}" for k in spec.keys]
            cells = keys + [
                _aggregate(c.func, None if c.attribute is None else f"k{columns.index(c.attribute)}")
                for c in spec.columns
            ]
            picked = ", ".join(f"{cell} AS k{i}" for i, cell in enumerate(cells))
            grouped = f" GROUP BY {', '.join(keys)}" if keys else ""
            inner = step(f"SELECT {picked}, COUNT(*) AS support FROM {source}{grouped}")
            outer = step(f"SELECT {_places(len(cells))} FROM {inner} WHERE support > 0")
            return outer, list(spec.keys) + [c.alias for c in spec.columns]
        raise NotImplementedError(f"the sqlite oracle does not translate {kind}")


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
