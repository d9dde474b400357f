"""The benchmark's own input generator: base rows and the operation stream.

Deliberately independent of ``repro.workloads``: the load must not change
when ``src/`` does.  The generator keeps its own model of the base
relations (which lines are open, shipped, live) so that choosing a row
never scans anything, and so that the model can serve as the expected
final base state in the correctness gate.

An operation is ``("txn", deletes, inserts)`` — two ``{relation: [row,
...]}`` dicts, applied deletes first exactly like ``Database.apply`` and
the server's ``txn`` op — or ``("read",)``.  The same seed yields the same
base rows and the same stream; ``Stream.digest()`` covers the initial base rows and
the first ``config.HASH_OPS`` operations.  Operations must be executed in
the order they are generated: each one is drawn against the model state
the earlier ones left behind.
"""

from __future__ import annotations

import hashlib
import json
import random

from config import HASH_OPS, Workload

SCHEMAS: dict[str, tuple[str, ...]] = {
    "customer": ("cust_id", "region", "tier"),
    "product": ("prod_id", "price", "category"),
    "lineitem": ("line_id", "cust_id", "prod_id", "qty", "status"),
}
AUX_SCHEMA = ("id", "a", "b")

OPEN, SHIPPED, CANCELLED = 0, 1, 2

Row = tuple[int, ...]
Op = tuple


class _Pool:
    """A set of ids with O(1) add, remove and seeded random choice."""

    __slots__ = ("ids", "pos")

    def __init__(self) -> None:
        self.ids: list[int] = []
        self.pos: dict[int, int] = {}

    def add(self, key: int) -> None:
        self.pos[key] = len(self.ids)
        self.ids.append(key)

    def remove(self, key: int) -> None:
        at = self.pos.pop(key)
        last = self.ids.pop()
        if last != key:
            self.ids[at] = last
            self.pos[last] = at

    def pick(self, rng: random.Random) -> int:
        return self.ids[rng.randrange(len(self.ids))]

    def __len__(self) -> int:
        return len(self.ids)


class Stream:
    """Base rows plus an endless, seeded operation stream for one workload."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        # One generator for the base rows and one for the stream, so the
        # stream does not shift when a table size changes.
        base_rng = random.Random(f"{workload.name}/base/{seed}")
        self._rng = random.Random(f"{workload.name}/ops/{seed}")
        w = workload
        self.customers: dict[int, Row] = {
            i: (i, base_rng.randint(0, 4), base_rng.randint(0, 2))
            for i in range(w.customers)
        }
        self.products: dict[int, Row] = {
            i: (i, base_rng.randint(1, 500), base_rng.randint(0, 9))
            for i in range(w.products)
        }
        self.lines: dict[int, Row] = {}
        self._by_status = {OPEN: _Pool(), SHIPPED: _Pool(), CANCELLED: _Pool()}
        self._live = _Pool()
        for i in range(w.lineitems):
            self._add_line(
                (
                    i,
                    base_rng.randrange(w.customers),
                    base_rng.randrange(w.products),
                    base_rng.randint(1, 20),
                    base_rng.randint(0, 2),
                )
            )
        self.aux: dict[str, dict[int, Row]] = {
            f"aux{k}": {
                i: (i, base_rng.randint(0, 99), base_rng.randint(0, 9))
                for i in range(w.aux_rows)
            }
            for k in range(w.aux_relations)
        }
        self._next_line = w.lineitems
        self._next_customer = w.customers
        self._kinds = [kind for kind, _ in w.mix]
        self._weights = [share for _, share in w.mix]
        self._digest = hashlib.sha256()
        self._digest.update(_canonical(self.base_rows()))
        self._hashed_ops = 0

    # ------------------------------------------------------------------
    # The model: expected base state
    # ------------------------------------------------------------------
    def base_rows(self) -> dict[str, list[Row]]:
        """Current model contents per relation, rows sorted."""
        rows = {
            "customer": sorted(self.customers.values()),
            "product": sorted(self.products.values()),
            "lineitem": sorted(self.lines.values()),
        }
        for name, table in self.aux.items():
            rows[name] = sorted(table.values())
        return rows

    def schemas(self) -> dict[str, tuple[str, ...]]:
        schemas = dict(SCHEMAS)
        for name in self.aux:
            schemas[name] = AUX_SCHEMA
        return schemas

    def _add_line(self, row: Row) -> None:
        self.lines[row[0]] = row
        self._live.add(row[0])
        self._by_status[row[4]].add(row[0])

    def _drop_line(self, line_id: int) -> Row:
        row = self.lines.pop(line_id)
        self._live.remove(line_id)
        self._by_status[row[4]].remove(line_id)
        return row

    def _new_line(self, status: int, cust_id: int | None = None) -> Row:
        rng = self._rng
        row = (
            self._next_line,
            rng.randrange(self.workload.customers) if cust_id is None else cust_id,
            rng.randrange(self.workload.products),
            rng.randint(1, 20),
            status,
        )
        self._next_line += 1
        self._add_line(row)
        return row

    def _restatus(self, source: int, target: int) -> tuple[Row, Row]:
        old = self._drop_line(self._by_status[source].pick(self._rng))
        new = old[:4] + (target,)
        self._add_line(new)
        return old, new

    # ------------------------------------------------------------------
    # Operation classes
    # ------------------------------------------------------------------
    def _op(self, kind: str, which: int | None = None) -> Op:
        rng = self._rng
        if kind == "new":
            return ("txn", {}, {"lineitem": [self._new_line(OPEN)]})
        if kind in ("ship", "cancel"):
            old, new = self._restatus(OPEN, SHIPPED if kind == "ship" else CANCELLED)
            return ("txn", {"lineitem": [old]}, {"lineitem": [new]})
        if kind == "price":
            old = self.products[rng.randrange(self.workload.products)]
            price = rng.randint(1, 499)
            new = (old[0], price + (price >= old[1]), old[2])  # never a no-op
            self.products[old[0]] = new
            return ("txn", {"product": [old]}, {"product": [new]})
        if kind == "batch":
            # 32 deletes of random live rows, 16 ships, 16 re-opens, 32
            # inserts of random status: 96 rows, and both the live and the
            # open populations are stationary in expectation.  Every old row
            # leaves the model before any new one enters, so no row is
            # picked twice within a batch.
            gone = [self._drop_line(self._live.pick(rng)) for _ in range(32)]
            flips = [
                (self._drop_line(self._by_status[source].pick(rng)), target)
                for source, target in ((OPEN, SHIPPED), (SHIPPED, OPEN))
                for _ in range(16)
            ]
            moved = [old[:4] + (target,) for old, target in flips]
            for row in moved:
                self._add_line(row)
            fresh = [self._new_line(rng.randint(0, 2)) for _ in range(32)]
            return (
                "txn",
                {"lineitem": gone + [old for old, _ in flips]},
                {"lineitem": moved + fresh},
            )
        if kind == "order":
            cust = (self._next_customer, rng.randint(0, 4), rng.randint(0, 2))
            self._next_customer += 1
            self.customers[cust[0]] = cust
            lines = [self._new_line(OPEN, cust[0]) for _ in range(4)]
            return ("txn", {}, {"customer": [cust], "lineitem": lines})
        if kind == "aux":
            name = f"aux{rng.randrange(self.workload.aux_relations) if which is None else which}"
            old = self.aux[name][rng.randrange(self.workload.aux_rows)]
            a = rng.randint(0, 98)
            new = (old[0], a + (a >= old[1]), old[2])
            self.aux[name][old[0]] = new
            return ("txn", {name: [old]}, {name: [new]})
        raise ValueError(f"unknown operation class {kind!r}")

    def warmup(self) -> list[Op]:
        """One operation of every class — and of ``aux`` one per relation, as
        each compiles its own kernels — so nothing lazy is left to time."""
        ops = [self._op(kind) for kind in self._kinds if kind != "aux"]
        ops += [self._op("aux", k) for k in range(self.workload.aux_relations)]
        return [self._hash(op) for op in ops + [("read",)]]

    def take(self, count: int) -> list[Op]:
        """The next ``count`` operations of the stream."""
        ops: list[Op] = []
        rng = self._rng
        while len(ops) < count:
            if rng.random() < self.workload.read_share:
                ops.append(self._hash(("read",)))
            else:
                kind = rng.choices(self._kinds, self._weights)[0]
                ops.append(self._hash(self._op(kind)))
        return ops

    def take_txns(self, count: int) -> list[Op]:
        """Operations up to and including the ``count``-th write transaction."""
        ops: list[Op] = []
        while count > 0:
            op = self.take(1)[0]
            ops.append(op)
            count -= op[0] == "txn"
        return ops

    def _hash(self, op: Op) -> Op:
        if self._hashed_ops < HASH_OPS:
            self._digest.update(_canonical(op))
            self._hashed_ops += 1
        return op

    def digest(self) -> str:
        """SHA-256 of the initial base rows and the first HASH_OPS operations.

        Call after the run's checks: a run shorter than HASH_OPS tops the
        digest up with operations that are generated but never executed,
        which moves the model ahead of the database.
        """
        self.take(HASH_OPS - self._hashed_ops)
        return self._digest.hexdigest()


def _canonical(value: object) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
