"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import gc
import random
import sys

import pytest
from repro import BaseRef, Database, Relation, RelationSchema
from repro.engine.log import LogRecord


def call_events(run, kinds=("call", "c_call")) -> int:
    """The call events of ``kinds`` that ``sys.setprofile`` sees in
    ``run``: Python-level (``call``) and C-level (``c_call``) calls."""
    events = [0]

    def profile(frame, event, arg):
        if event in kinds:
            events[0] += 1

    # A collection would run other objects' finalizers in here.
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        gc.enable()
    return events[0]


# ----------------------------------------------------------------------
# Plain fixtures
# ----------------------------------------------------------------------

@pytest.fixture
def rs_ab() -> RelationSchema:
    """The paper's recurring scheme R = {A, B}."""
    return RelationSchema(["A", "B"])


@pytest.fixture
def rs_cd() -> RelationSchema:
    """The paper's recurring scheme S = {C, D}."""
    return RelationSchema(["C", "D"])


@pytest.fixture
def example_41_db() -> Database:
    """The database instance printed in Example 4.1."""
    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 2), (5, 10), (12, 15)])
    db.create_relation("s", ["C", "D"], [(2, 10), (10, 20)])
    return db


@pytest.fixture
def example_41_view_expr():
    """u = π_{A,D}(σ_{A<10 ∧ C>5 ∧ B=C}(r × s))."""
    return (
        BaseRef("r")
        .product(BaseRef("s"))
        .select("A < 10 and C > 5 and B = C")
        .project(["A", "D"])
    )


@pytest.fixture
def kernel_faults(monkeypatch) -> set[str]:
    """A set of kernel file names (``<codegen:VIEW:KIND...>``,
    ``<codegen:pass:RELATION>``), or prefixes of them (``<codegen:VIEW:``
    names every kernel of one view): a screen, fused screen pass, row or
    fold kernel compiled from here on raises while one is in it."""
    from repro.core import codegen, compiled

    armed: set[str] = set()
    compile_kernel = compiled.compile_kernel

    def faultable(source, name, filename):
        kernel = compile_kernel(source, name, filename)

        def run(*args):
            if filename.startswith(tuple(armed)):
                raise RuntimeError(f"injected fault in {filename}")
            return kernel(*args)

        return run

    monkeypatch.setattr(compiled, "compile_kernel", faultable)
    monkeypatch.setattr(codegen, "compile_kernel", faultable)
    return armed


@pytest.fixture
def kernel_compiles(monkeypatch) -> list[str]:
    """Every source ``repro.core.codegen`` hands to ``compile()`` from
    here on, starting from an empty compiled-program cache."""
    from repro.core import codegen

    codegen._program.cache_clear()
    sources: list[str] = []

    def counted(source, filename, mode):
        sources.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(codegen, "compile", counted, raising=False)
    return sources


# ----------------------------------------------------------------------
# Random-database helpers (used by property and integration tests)
# ----------------------------------------------------------------------

def make_random_two_table_db(rng: random.Random, size: int = 12) -> Database:
    """A small r(A,B) / s(B,C) database with overlapping B values."""
    db = Database()
    r_rows = {(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(size)}
    s_rows = {(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(size)}
    db.create_relation("r", ["A", "B"], sorted(r_rows))
    db.create_relation("s", ["B", "C"], sorted(s_rows))
    return db


def capture_commits(db: Database) -> list[LogRecord]:
    """A list that every later commit with a net effect is appended to,
    in commit order: the history a test replays or ships."""
    records: list[LogRecord] = []

    def capture(txn_id, deltas):
        if deltas:
            records.append(LogRecord(txn_id, dict(deltas)))
            db.undo.append((records.pop,))  # an undone commit is no history

    db.add_commit_hook(capture)
    return records


def run_random_transactions(
    db: Database, rng: random.Random, count: int, value_max: int = 9
) -> None:
    """Apply ``count`` random insert/delete transactions to ``db``."""
    names = db.relation_names()
    for _ in range(count):
        with db.transact() as txn:
            for _ in range(rng.randint(1, 4)):
                name = rng.choice(names)
                relation = db.relation(name)
                if rng.random() < 0.45 and len(relation):
                    row = rng.choice(sorted(relation.value_tuples()))
                    txn.delete(name, row)
                else:
                    width = len(relation.schema)
                    txn.insert(
                        name,
                        tuple(rng.randint(0, value_max) for _ in range(width)),
                    )
