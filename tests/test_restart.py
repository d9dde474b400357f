"""Restart equivalence: a restarted system is the one that stopped.

A hypothesis state machine drives one leader — a database declaring a
constraint, keys and a foreign key, a maintainer, a write-ahead log —
through commits (some of them breaking the catalog), catalog changes,
index DDL, view DDL and refused drops of view operands.  At any point
it may restart:

* **checkpoint + recover** — a checkpoint, then a recovery that takes
  the leader's place;
* **recover from the WAL tail** — a recovery from the last checkpoint
  and the log written since, taking the leader's place;
* **boot a follower** — a follower on the same directory, polled up to
  the leader.

After each, the restarted side must match the leader: the database
document (relation bytes and the catalog), the position, the
transaction counter a restart can know, the commits the catalog
rejects, view contents (and ``verify_all``), and ``explain`` text up to
whether an index is bound yet — indexes are performance state and are
not checkpointed.

The machine follows the durability rule: a catalog change becomes
durable at the next checkpoint, so every catalog step checkpoints.

``REPRO_RESTART_FULL=1`` raises the example budget (the nightly job).
"""

import re
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from benchmarks.conftest import env_flag
from repro.algebra.expressions import BaseRef
from repro.core.maintainer import ViewMaintainer
from repro.engine.database import Database
from repro.engine.persistence import database_to_document
from repro.errors import (
    ConstraintError,
    ConstraintViolationError,
    KeyViolationError,
    MaintenanceError,
)
from repro.replication.durability import DurabilityManager
from repro.replication.follower import Follower
from repro.replication.recovery import recover

SCHEMAS = {"p": ("B", "C"), "r": ("A", "B")}

#: ``v`` is registered for the whole run, so both relations are always
#: view operands; ``w`` and ``x`` come and go.
DEFINITIONS = {
    "v": BaseRef("r").join(BaseRef("p")).project(["A", "B"]),
    "w": BaseRef("r").select("A >= 2"),
    "x": BaseRef("p").select("C >= 10").project(["B"]),
}

VALUES = st.integers(min_value=-1, max_value=5)
OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete"]),
        st.sampled_from(sorted(SCHEMAS)),
        VALUES,
        VALUES,
    ),
    min_size=1,
    max_size=4,
)

_INDEX_STATE = re.compile(r" \[(bound|will be created on first use)\]")


def catalog_violations(db: Database) -> list[dict]:
    """One insert batch per declared premise that breaks it."""
    violations = []
    if db.constraints.get("p") is not None:
        violations.append({"p": [(9, -1)]})
    p_rows = sorted(db.relation("p").value_tuples())
    if db.keys.keys_of("p") and p_rows:
        b, c = p_rows[0]
        violations.append({"p": [(b, c + 1)]})
    r_rows = sorted(db.relation("r").value_tuples())
    if db.keys.keys_of("r") and r_rows:
        a, b = r_rows[0]
        violations.append({"r": [(a, b + 100)]})
    if db.keys.foreign_keys_of("r"):
        violations.append({"r": [(99, 99)]})
    return violations


class RestartMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="repro-restart-")
        db = Database()
        db.create_relation("p", SCHEMAS["p"], [(b, b * 10) for b in range(4)])
        db.create_relation("r", SCHEMAS["r"], [(1, 0), (2, 1), (3, 1)])
        db.declare_constraint("p", "C >= 0")
        db.declare_key("p", ["B"])
        db.declare_foreign_key("r", ["B"], "p", ["B"])
        self.views = {name: DEFINITIONS[name] for name in ("v", "w")}
        maintainer = ViewMaintainer(db)
        for name, expression in self.views.items():
            maintainer.define_view(name, expression)
        self._lead(db, maintainer)
        self._checkpoint()

    def teardown(self):
        self.durability.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _lead(self, database, maintainer):
        self.database = database
        self.maintainer = maintainer
        self.durability = DurabilityManager(database, self.directory, sync="never")

    def _checkpoint(self):
        self.durability.checkpoint(self.maintainer)
        #: What a restart can know of the transaction counter: its value
        #: at the newest checkpoint or logged commit.
        self.durable_next_txn_id = self.database.next_txn_id

    # -- steps -------------------------------------------------------------
    @rule(operations=OPERATIONS)
    def commit(self, operations):
        position = self.database.last_sequence()
        try:
            with self.database.transact() as txn:
                for op, name, first, second in operations:
                    getattr(txn, op)(name, (first, second))
        except (ConstraintViolationError, KeyViolationError):
            pass
        if self.database.last_sequence() != position:
            self.durable_next_txn_id = self.database.next_txn_id

    @rule(change=st.sampled_from(["constraint p", "key p", "key r", "fk r"]))
    def toggle_catalog(self, change):
        db = self.database
        # A declaration the rows break, or a key a foreign key still
        # targets, is refused and changes nothing.
        try:
            if change == "constraint p":
                if db.constraints.get("p") is None:
                    db.declare_constraint("p", "C >= 0")
                else:
                    db.drop_constraint("p")
            elif change == "fk r":
                if db.keys.foreign_keys_of("r"):
                    db.drop_foreign_key("r", "p")
                else:
                    db.declare_foreign_key("r", ["B"], "p", ["B"])
            else:
                name = change[-1]
                if db.keys.keys_of(name):
                    db.drop_key(name)
                else:
                    db.declare_key(name, [SCHEMAS[name][0]])
        except ConstraintError:
            pass
        self._checkpoint()

    @rule(name=st.sampled_from(sorted(SCHEMAS)), position=st.integers(0, 1))
    def toggle_index(self, name, position):
        attributes = (SCHEMAS[name][position],)
        if attributes in self.database.relation(name).indexes:
            self.database.drop_index(name, attributes)
        else:
            self.database.create_index(name, attributes)

    @rule(name=st.sampled_from(["w", "x"]))
    def toggle_view(self, name):
        if name in self.views:
            self.maintainer.drop_view(name)
            del self.views[name]
        else:
            self.maintainer.define_view(name, DEFINITIONS[name])
            self.views[name] = DEFINITIONS[name]

    @rule(name=st.sampled_from(sorted(SCHEMAS)))
    def refused_drop(self, name):
        db = self.database
        relation = db.relation(name)
        indexes = dict(relation.indexes)
        before = database_to_document(db)
        with pytest.raises(MaintenanceError, match="cannot drop relation"):
            db.drop_relation(name)
        assert db.relation(name) is relation
        assert dict(relation.indexes) == indexes
        assert database_to_document(db) == before

    # -- restarts ----------------------------------------------------------
    @rule()
    def checkpoint_and_recover(self):
        self._checkpoint()
        self._recover()

    @rule()
    def recover_from_the_wal_tail(self):
        self._recover()

    @rule()
    def boot_a_follower(self):
        follower = Follower(self.directory)
        for name, expression in self.views.items():
            follower.define_view(name, expression)
        follower.poll()
        self._assert_restarted(follower.database, follower.maintainer)

    def _recover(self):
        self.durability.close()

        def restore(recovery, maintainer):
            for name, expression in self.views.items():
                recovery.restore_view(maintainer, name, expression)

        recovery, maintainer = recover(self.directory, restore)
        self._assert_restarted(recovery.database, maintainer)
        self._lead(recovery.database, maintainer)

    def _assert_restarted(self, database, maintainer):
        leader = self.database
        assert database_to_document(database) == database_to_document(leader)
        assert database.last_sequence() == leader.last_sequence()
        assert database.next_txn_id == self.durable_next_txn_id
        maintainer.verify_all()
        for name in self.views:
            ours = maintainer.view(name).contents
            assert ours.counts() == self.maintainer.view(name).contents.counts()
            changed = sorted(maintainer.dependencies(name))
            assert _INDEX_STATE.sub("", maintainer.explain(name, changed)) == (
                _INDEX_STATE.sub("", self.maintainer.explain(name, changed))
            )
        for inserts in catalog_violations(leader):
            for side in (leader, database):
                before = side.last_sequence()
                with pytest.raises((ConstraintViolationError, KeyViolationError)):
                    side.apply(inserts=inserts)
                assert side.last_sequence() == before


TestRestart = RestartMachine.TestCase
TestRestart.settings = settings(
    max_examples=2000 if env_flag("REPRO_RESTART_FULL") else 150,
    stateful_step_count=20,
    deadline=None,
)
