"""Declared keys and the chase: enforcement, derived view keys, and
counter-free maintenance parity.

Three layers under test, mirroring the subsystem's shape:

* the engine's :class:`~repro.engine.keys.KeyCatalog` and the commit
  pipeline's net-effect enforcement (`KeyViolationError`),
* the chase (:mod:`repro.analysis.dependencies`): attribute closure,
  derived view keys, FK-join reduction, key-determined rows,
* the load-bearing consumers: analyzer findings, the ``fk_join``
  self-maintainability class, and the counter-free apply kernels —
  verified byte-for-byte against the counted reference functions
  (``tests/reference.py``: full Section 5.2 counters, no FK reduction)
  on all five execution paths (immediate, deferred, WAL-replay
  recovery, follower, server) plus a base-free FK-join follower against
  a full-base oracle.
"""

import pytest
from hypothesis import given, settings

from repro.algebra.expressions import BaseRef
from repro.analysis import (
    F_COUNTER_FREE,
    F_DUPLICATE_SENSITIVE,
    F_VIEW_KEY,
    Severity,
    analyze_definition,
    close,
    dependencies_for,
    derive_view_key,
    determined_row,
    fk_reduction,
    key_determines_row,
)
from repro.analysis.dependencies import shared_equality_atoms
from repro.core.maintainer import MaintenancePolicy, ViewMaintainer
from repro.engine.database import Database
from repro.engine.keys import find_key_collisions
from repro.errors import ConstraintError, KeyViolationError
from repro.instrumentation import CostRecorder, recording
from repro.replication.durability import DurabilityManager
from repro.replication.follower import Follower
from repro.replication.recovery import Recovery
from repro.scheduler.selfmaint import KIND_FK_JOIN, KIND_JOIN
from tests.reference import ReferenceViews
from tests.strategies import SPJ_TABLES, update_streams


# ----------------------------------------------------------------------
# Shared schema: p(B, C) with key (B); r(A, B) with FK r(B) → p(B).
# ``r join p`` is a natural join on B — the canonical FK-join view.
# ----------------------------------------------------------------------
def keyed_database() -> Database:
    db = Database()
    db.create_relation("p", ["B", "C"], [(b, b * 10) for b in range(4)])
    db.create_relation("r", ["A", "B"], [(1, 0), (2, 1), (3, 1)])
    db.declare_key("p", ["B"])
    db.declare_foreign_key("r", ["B"], "p", ["B"])
    return db


def fk_join_view():
    """FK-reducible: condition and projection mention only r's
    attributes plus p's referenced key, so the probe lookup erases."""
    return BaseRef("r").join(BaseRef("p")).project(["A", "B"])


def keyed_join_view():
    """Projects the probe's payload C: a view key still derives (p's
    key grounds C), but the FK reduction is off the table."""
    return BaseRef("r").join(BaseRef("p"))


#: A scripted, legal op sequence over the keyed schema: child inserts
#: and deletes, a parent insert, and a delete of an unreferenced parent.
LEGAL_OPS = [
    [("ins", "r", (4, 2)), ("ins", "r", (5, 3))],
    [("del", "r", (1, 0))],
    [("ins", "p", (4, 40)), ("ins", "r", (6, 4))],
    [("del", "r", (2, 1)), ("ins", "r", (7, 0))],
    [("del", "r", (5, 3)), ("del", "p", (3, 30))],
    [("ins", "r", (8, 4)), ("del", "r", (3, 1))],
]


def apply_ops(db: Database, transactions=LEGAL_OPS) -> None:
    for ops in transactions:
        with db.transact() as txn:
            for op, name, row in ops:
                (txn.insert if op == "ins" else txn.delete)(name, row)


# ----------------------------------------------------------------------
# Catalog and commit-pipeline enforcement
# ----------------------------------------------------------------------
class TestKeyEnforcement:
    def test_declare_over_colliding_rows_is_rejected(self):
        db = Database()
        db.create_relation("p", ["B", "C"], [(1, 2), (1, 3)])
        with pytest.raises(ConstraintError, match="existing rows collide"):
            db.declare_key("p", ["B"])

    def test_foreign_key_requires_a_declared_referenced_key(self):
        db = Database()
        db.create_relation("p", ["B", "C"], [])
        db.create_relation("r", ["A", "B"], [])
        with pytest.raises(ConstraintError, match="declare the key first"):
            db.declare_foreign_key("r", ["B"], "p", ["B"])

    def test_foreign_key_over_dangling_rows_is_rejected(self):
        db = Database()
        db.create_relation("p", ["B", "C"], [(0, 0)])
        db.create_relation("r", ["A", "B"], [(1, 7)])
        db.declare_key("p", ["B"])
        with pytest.raises(ConstraintError, match="existing rows dangle"):
            db.declare_foreign_key("r", ["B"], "p", ["B"])

    def test_key_collision_aborts_the_transaction(self):
        db = keyed_database()
        before = db.relation("p").counts()
        with pytest.raises(KeyViolationError, match=r"key \(B\) on 'p'"):
            with db.transact() as txn:
                txn.insert("p", (0, 99))  # collides with stored (0, 0)
        assert db.relation("p").counts() == before

    def test_same_transaction_replacement_commits(self):
        # Net effect is what's checked: delete + insert of the same key
        # value inside one transaction never shows a collision.
        db = keyed_database()
        with db.transact() as txn:
            txn.delete("p", (0, 0))
            txn.insert("p", (0, 5))
        assert (0, 5) in db.relation("p")

    def test_dangling_insert_aborts(self):
        db = keyed_database()
        with pytest.raises(KeyViolationError, match="foreign key"):
            with db.transact() as txn:
                txn.insert("r", (9, 77))  # no p row with B = 77

    def test_deleting_a_referenced_parent_aborts(self):
        db = keyed_database()
        with pytest.raises(KeyViolationError, match="foreign key"):
            with db.transact() as txn:
                txn.delete("p", (0, 0))  # r holds (1, 0)

    def test_parent_and_children_may_leave_together(self):
        db = keyed_database()
        with db.transact() as txn:
            txn.delete("r", (1, 0))
            txn.delete("p", (0, 0))
        assert (0, 0) not in db.relation("p")

    def test_net_effect_violation_is_the_prepare_seam(self):
        # The 2PC prepare path asks the same question commit enforces,
        # without a transaction object: pending net deltas in, the
        # commit pipeline's own message (or None) out.
        db = keyed_database()
        txn = db.begin()
        txn.insert("p", (0, 99))
        violation = db.net_effect_violation(txn.net_deltas())
        assert violation is not None and "key (B) on 'p'" in violation

        clean = db.begin()
        clean.insert("p", (8, 80))
        assert db.net_effect_violation(clean.net_deltas()) is None

    def test_collision_inside_one_transactions_inserts(self):
        db = keyed_database()
        with pytest.raises(
            KeyViolationError, match=r"key \(B\) on 'p': \(8, 1\)/\(8, 2\)"
        ):
            with db.transact() as txn:
                txn.insert("p", (8, 1))
                txn.insert("p", (8, 2))

    def test_violation_text_is_the_whole_post_states(self):
        # The probe-based check reports the pairs a sort over the whole
        # post-state reports: per key value the smallest row against
        # each other one, ordered by the other.
        db = keyed_database()
        txn = db.begin()
        txn.insert("p", (0, 99))  # stored (0, 0)
        txn.insert("p", (1, 5))  # stored (1, 10)
        txn.insert("p", (1, 7))
        deltas = txn.net_deltas()
        post = set(db.relation("p").value_tuples()) | set(deltas["p"].inserted)
        want = find_key_collisions(db.relation("p").schema, ("B",), post)
        assert want == [((0, 0), (0, 99)), ((1, 5), (1, 7)), ((1, 5), (1, 10))]
        assert db.net_effect_violation(deltas) == (
            "the key (B) on 'p': " + ", ".join(f"{a!r}/{b!r}" for a, b in want)
        )

    @pytest.mark.parametrize("size", [10, 2_000])
    def test_commit_check_probes_once_per_inserted_row_and_key(self, size):
        db = Database()
        db.create_relation("p", ["B", "C"], [(b, -b) for b in range(size)])
        db.declare_key("p", ["B"])
        db.declare_key("p", ["C"])
        recorder = CostRecorder()
        with recording(recorder):
            with db.transact() as txn:
                txn.delete("p", (3, -3))
                txn.insert("p", (3, -3_000))  # same B, re-inserted
                txn.insert("p", (size, -size))
                txn.insert("p", (size + 1, -size - 1))
        assert recorder.get("index_probes") == 3 * 2

    def test_dropping_a_keys_index_does_not_disarm_the_key(self):
        db = keyed_database()
        assert db.drop_index("p", ["B"])
        with pytest.raises(KeyViolationError, match=r"key \(B\) on 'p'"):
            with db.transact() as txn:
                txn.insert("p", (0, 99))
        assert db.relation("p").indexes.get(("B",)) is not None

    @pytest.mark.parametrize("size", [10, 2_000])
    def test_foreign_key_check_probes_per_changed_row(self, size):
        db = Database()
        db.create_relation("p", ["B", "C"], [(b, 0) for b in range(size)])
        db.create_relation("r", ["A", "B"], [(a, a % size) for a in range(3 * size)])
        db.declare_key("p", ["B"])
        db.declare_foreign_key("r", ["B"], "p", ["B"])
        recorder = CostRecorder()
        with recording(recorder):
            with db.transact() as txn:
                # Two referencing rows arrive (one for a parent arriving
                # with them), and a parent leaves with its three rows.
                txn.insert("p", (size, 0))
                txn.insert("r", (-1, size))
                txn.insert("r", (-2, 1))
                txn.delete("p", (5, 0))
                for a in (5, size + 5, 2 * size + 5):
                    txn.delete("r", (a, 5))
        # 1 key probe (the inserted parent) + 1 referenced-key probe
        # ((-2, 1); (-1, size) is met by the arriving parent) + 1
        # referencing-attribute probe (the deleted parent).
        assert recorder.get("index_probes") == 3

        with pytest.raises(
            KeyViolationError,
            match=r"foreign key r \(B\) references p \(B\): \(6, 6\), ",
        ):
            with db.transact() as txn:
                txn.delete("p", (6, 0))

    def test_drop_key_requires_dropping_referencing_fk_first(self):
        db = keyed_database()
        with pytest.raises(ConstraintError, match="drop the foreign key first"):
            db.drop_key("p", ["B"])
        with pytest.raises(ConstraintError, match="drop the foreign key first"):
            db.drop_key("p")
        assert db.drop_foreign_key("r", "p") is True
        assert db.drop_key("p", ["B"]) is True
        # Enforcement is gone with the declarations.
        with db.transact() as txn:
            txn.insert("p", (0, 99))
        assert (0, 99) in db.relation("p")


# ----------------------------------------------------------------------
# The chase: closures, derived view keys, FK reduction
# ----------------------------------------------------------------------
class TestChase:
    def normal_form(self, db, expression):
        maintainer = ViewMaintainer(db)
        return maintainer.define_view("v", expression).definition.normal_form

    def test_shared_equality_atoms_survive_every_disjunct(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [])
        nf = self.normal_form(
            db, BaseRef("r").select("(A = B and A > 0) or (A = B and B < 9)")
        )
        atoms = shared_equality_atoms(nf.condition)
        assert len(atoms) == 1 and atoms[0].op == "="

    def test_dependencies_include_keys_and_equalities(self):
        db = keyed_database()
        nf = self.normal_form(db, fk_join_view())
        deps = dependencies_for(nf, db.keys)
        reasons = [d.reason for d in deps]
        assert any("declared key (B) of p" in reason for reason in reasons)
        assert any(reason.startswith("equality") for reason in reasons)

    def test_closure_carries_a_proof_chain(self):
        db = keyed_database()
        nf = self.normal_form(db, fk_join_view())
        deps = dependencies_for(nf, db.keys)
        # The projected attributes reach the whole flattened product:
        # the join equality crosses to p, then p's key grounds its row.
        projected = sorted({q for _, q in nf.projection})
        closure, proof = close(projected, deps)
        assert closure.issuperset(nf.qualified_schema.names)
        assert proof, "productive FD applications must be recorded"

    def test_derived_view_key_is_minimal_and_deterministic(self):
        db = keyed_database()
        nf = self.normal_form(db, keyed_join_view())
        first = derive_view_key(nf, db.keys)
        second = derive_view_key(nf, db.keys)
        assert first is not None
        # C is functionally dependent on B (key of p) and is dropped by
        # greedy minimization; A and B are both essential.
        assert first.view_attributes == ("A", "B")
        assert first.proof == second.proof
        assert first.view_attributes == second.view_attributes

    def test_declared_key_is_what_recovers_the_projected_away_column(self):
        # π_{A,B}(r ⋈ p) hides p.C.  Without p's key the closure of the
        # projection stops at p.B; the declared key carries it to p.C.
        db = Database()
        db.create_relation("p", ["B", "C"], [])
        db.create_relation("r", ["A", "B"], [])
        nf = self.normal_form(db, fk_join_view())
        assert derive_view_key(nf, db.keys) is None
        db.declare_key("p", ["B"])
        key = derive_view_key(nf, db.keys)
        assert key is not None and key.view_attributes == ("A", "B")

    def test_projecting_away_an_essential_attribute_loses_the_key(self):
        db = keyed_database()
        nf = self.normal_form(db, keyed_join_view().project(["B", "C"]))
        # r.A is projected away and nothing determines it.
        assert derive_view_key(nf, db.keys) is None

    def test_equality_atoms_alone_can_derive_a_key(self):
        # No declared keys needed: σ_{A=B}(r) projected to A covers the
        # whole (single-occurrence) product through the equality FD.
        db = Database()
        db.create_relation("r", ["A", "B"], [])
        nf = self.normal_form(db, BaseRef("r").select("A = B").project(["A"]))
        key = derive_view_key(nf, db.keys)
        assert key is not None and key.view_attributes == ("A",)

    def test_fk_reduction_accepts_the_canonical_join(self):
        db = keyed_database()
        nf = self.normal_form(db, fk_join_view())
        reduction = fk_reduction(nf, db.keys)
        assert reduction is not None
        assert reduction.delta_relation == "r"
        assert tuple(reduction.probe_relations) == ("p",)
        # Projecting the probe's payload C breaks premise 3.
        exposed = self.normal_form(keyed_database(), keyed_join_view())
        assert fk_reduction(exposed, db.keys) is None

    def test_fk_reduction_needs_the_foreign_key(self):
        db = keyed_database()
        db.drop_foreign_key("r", "p")
        nf = self.normal_form(db, fk_join_view())
        assert fk_reduction(nf, db.keys) is None

    def test_key_determined_rows_round_trip(self):
        db = Database()
        db.create_relation("p", ["B", "C"], [])
        db.declare_constraint("p", "C = B + 1")
        schema = db.relation("p").schema
        constraint = db.constraints.get("p")
        assert key_determines_row(schema, ("B",), constraint)
        assert determined_row(schema, ("B",), (4,), constraint) == (4, 5)
        assert not key_determines_row(schema, ("B",), None)


# ----------------------------------------------------------------------
# Analyzer findings and self-maintainability
# ----------------------------------------------------------------------
class TestKeyFindings:
    def codes(self, findings):
        return [f.code for f in findings]

    def test_view_key_and_counter_free_fire_with_proof(self):
        db = keyed_database()
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("v", fk_join_view())
        findings = analyze_definition(view.definition, keys=db.keys)
        by_code = {f.code: f for f in findings}
        assert F_VIEW_KEY in by_code and F_COUNTER_FREE in by_code
        assert by_code[F_VIEW_KEY].severity is Severity.INFO
        assert "declared key (B) of p" in by_code[F_VIEW_KEY].message
        assert "multiplicity 1" in by_code[F_COUNTER_FREE].message

    def test_duplicate_sensitive_warns_on_keyless_self_maintainable(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [])
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("v", BaseRef("r").select("A > 0"))
        findings = analyze_definition(view.definition, keys=db.keys)
        warned = [f for f in findings if f.code == F_DUPLICATE_SENSITIVE]
        assert len(warned) == 1
        assert warned[0].severity is Severity.WARN
        assert warned[0].subject == "r"
        # Declaring the key retires the warning.
        db.declare_key("r", ["A"])
        findings = analyze_definition(view.definition, keys=db.keys)
        assert F_DUPLICATE_SENSITIVE not in self.codes(findings)

    def test_analyze_report_is_byte_identical_across_runs(self):
        db = keyed_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", fk_join_view())
        maintainer.define_view("w", BaseRef("r").select("A = B").project(["A"]))
        first = maintainer.analyze().format()
        second = maintainer.analyze().format()
        assert first == second

    def test_fk_join_class_requires_the_declarations(self):
        db = keyed_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", fk_join_view())
        verdict = maintainer.self_maintainability("v")
        assert verdict.self_maintainable
        assert verdict.kind == KIND_FK_JOIN
        assert "executes the reduced single-occurrence" in verdict.reason

        bare = Database()
        bare.create_relation("p", ["B", "C"], [])
        bare.create_relation("r", ["A", "B"], [])
        other = ViewMaintainer(bare)
        other.define_view("v", fk_join_view())
        verdict = other.self_maintainability("v")
        assert not verdict.self_maintainable
        assert verdict.kind == KIND_JOIN


# ----------------------------------------------------------------------
# Plan cache integration: key DDL stales dependency proofs
# ----------------------------------------------------------------------
class TestKeyDdlInvalidation:
    def test_declaring_keys_recompiles_to_a_counter_free_plan(self):
        db = Database()
        db.create_relation("p", ["B", "C"], [(0, 0)])
        db.create_relation("r", ["A", "B"], [(1, 0)])
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", fk_join_view())
        plan = maintainer.compiled_plan("v")
        assert plan is not None and not plan.counter_free
        assert plan.view_key is None

        db.declare_key("p", ["B"])
        db.declare_foreign_key("r", ["B"], "p", ["B"])
        with db.transact() as txn:
            txn.insert("r", (2, 0))
        plan = maintainer.compiled_plan("v")
        assert plan is not None and plan.counter_free
        assert plan.view_key is not None
        assert plan.reduction is not None

    def test_dropping_the_key_retires_the_proofs(self):
        db = keyed_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", fk_join_view())
        assert maintainer.compiled_plan("v").counter_free
        db.drop_foreign_key("r", "p")
        db.drop_key("p")
        with db.transact() as txn:
            txn.insert("r", (9, 1))
        plan = maintainer.compiled_plan("v")
        assert plan is not None and not plan.counter_free
        assert maintainer.view("v").contents.counts() == {
            row: 1
            for row in maintainer.view("v").contents.counts()
        }

    def test_explain_prints_the_chase_proofs(self):
        db = keyed_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", fk_join_view())
        text = maintainer.explain("v", ["r", "p"])
        assert "derived view key" in text
        assert "counter-free" in text


# ----------------------------------------------------------------------
# Counter-free parity: five execution paths, byte-for-byte against the
# counted, unreduced reference functions
# ----------------------------------------------------------------------
def counted_reference():
    """The FK-join view after LEGAL_OPS, by the reference functions."""
    db = keyed_database()
    reference = ReferenceViews(db, {"v": fk_join_view()})
    apply_ops(db)
    counts = reference.view("v").contents.counts()
    assert counts  # non-vacuous
    return counts


class TestCounterFreeParity:
    def test_immediate_commit_path(self):
        db = keyed_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", fk_join_view())
        plan = maintainer.compiled_plan("v")
        assert plan.counter_free and plan.reduction is not None
        apply_ops(db)
        assert maintainer.view("v").contents.counts() == counted_reference()

    def test_deferred_refresh_path(self):
        db = keyed_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view(
            "v", fk_join_view(), policy=MaintenancePolicy.DEFERRED
        )
        apply_ops(db, LEGAL_OPS[:3])
        maintainer.refresh("v")
        apply_ops(db, LEGAL_OPS[3:])
        maintainer.refresh("v")
        assert maintainer.view("v").contents.counts() == counted_reference()

    def test_wal_replay_recovery_path(self, tmp_path):
        directory = str(tmp_path / "wal")
        db = keyed_database()
        leader = ViewMaintainer(db)
        leader.define_view("v", fk_join_view())
        durability = DurabilityManager(db, directory, sync="never")
        durability.checkpoint(leader)
        apply_ops(db)
        durability.close()

        recovery = Recovery(directory)
        recovery.database.declare_key("p", ["B"])
        recovery.database.declare_foreign_key("r", ["B"], "p", ["B"])
        maintainer = ViewMaintainer(recovery.database)
        recovery.restore_view(maintainer, "v", fk_join_view())
        assert maintainer.compiled_plan("v").counter_free
        recovery.replay()
        counts = maintainer.view("v").contents.counts()
        assert counts == leader.view("v").contents.counts()
        assert counts == counted_reference()

    def test_follower_path(self, tmp_path):
        directory = str(tmp_path / "wal")
        db = keyed_database()
        leader = ViewMaintainer(db)
        durability = DurabilityManager(db, directory, sync="never")
        durability.checkpoint(leader)

        follower = Follower(directory)
        follower.declare_key("p", ["B"])
        follower.declare_foreign_key("r", ["B"], "p", ["B"])
        follower.define_view("v", fk_join_view())
        assert follower.maintainer.compiled_plan("v").counter_free

        apply_ops(db)
        durability.close()
        follower.poll()
        assert follower.view("v").contents.counts() == counted_reference()

    def test_server_path(self):
        from repro.server import ServerConfig, ViewServer

        db = keyed_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", fk_join_view())
        server = ViewServer(db, maintainer, ServerConfig())
        for ops in LEGAL_OPS:
            request = {"insert": {}, "delete": {}}
            for op, name, row in ops:
                bucket = "insert" if op == "ins" else "delete"
                request[bucket].setdefault(name, []).append(list(row))
            server._op_txn(None, request)
        assert maintainer.view("v").contents.counts() == counted_reference()


# ----------------------------------------------------------------------
# Acceptance: an FK-join view hosted base-free, deletes included,
# against a full-base follower oracle
# ----------------------------------------------------------------------
class TestBaseFreeFkJoin:
    def test_base_free_follower_matches_full_base_oracle(self, tmp_path):
        directory = str(tmp_path / "wal")
        db = keyed_database()
        leader = ViewMaintainer(db)
        durability = DurabilityManager(db, directory, sync="never")
        durability.checkpoint(leader)

        full = Follower(directory)
        bare = Follower(directory, base_free=True)
        for follower in (full, bare):
            follower.declare_key("p", ["B"])
            follower.declare_foreign_key("r", ["B"], "p", ["B"])
            follower.define_view("v", fk_join_view())
        verdict = bare.maintainer.self_maintainability("v")
        assert verdict.self_maintainable and verdict.kind == KIND_FK_JOIN

        apply_ops(db)  # includes local deletes on r and p
        durability.close()
        full.poll()
        bare.poll()

        assert bare.base_dropped and bare.base_rows_dropped > 0
        for name in bare.database.relation_names():
            assert not list(bare.database.relation(name).value_tuples())
        counts = bare.view("v").contents.counts()
        assert counts == full.view("v").contents.counts()
        assert counts, "the oracle comparison must be non-vacuous"

    def test_shed_base_copies_sheds_the_index_rows_too(self, tmp_path):
        """The indexes a key and a foreign key bound at declaration are
        part of the base copy: none of them holds a row afterwards."""
        directory = str(tmp_path / "wal")
        db = keyed_database()
        leader = ViewMaintainer(db)
        durability = DurabilityManager(db, directory, sync="never")
        durability.checkpoint(leader)
        durability.close()

        bare = Follower(directory, base_free=True)
        bare.declare_key("p", ["B"])
        bare.declare_foreign_key("r", ["B"], "p", ["B"])
        bare.define_view("v", fk_join_view())
        assert len(bare.database.relation("p").indexes[("B",)]) > 0
        assert bare.shed_base_copies() > 0
        for name in bare.database.relation_names():
            relation = bare.database.relation(name)
            assert len(relation) == 0
            for attrs, index in relation.indexes.items():
                assert len(index) == 0, (name, attrs)
                assert index._stale_key(relation) is None
        assert set(bare.database.relation("r").indexes) == {("B",)}


# ----------------------------------------------------------------------
# Property: derived view keys are sound over random legal streams
# ----------------------------------------------------------------------
#: View shapes over the SPJ schema whose keys derive from equality
#: atoms alone, a declared key, or both.
PROPERTY_VIEWS = [
    ("v_eq", BaseRef("r").select("A = B").project(["A"])),
    ("v_join", BaseRef("r").join(BaseRef("s")).select("B = C").project(["A", "B", "D"])),
    ("v_keyed", BaseRef("r").join(BaseRef("s")).select("B = C").project(["A", "B"])),
]


@settings(max_examples=40, deadline=None)
@given(data=update_streams())
def test_derived_view_keys_are_sound(data):
    """No two materialized rows ever agree on a derived view key, and
    every row's multiplicity is exactly one — across random legal
    update streams, for the maintainer's counter-free kernels and for
    the counted reference functions alike.

    The stream strategy is key-oblivious; enforcement itself keeps the
    replayed stream legal (violating transactions abort and are
    skipped), which is exactly the premise the chase's conclusions rest
    on.
    """
    initial, transactions = data
    db = Database()
    for name, attrs in sorted(SPJ_TABLES.items()):
        rows = initial[name]
        if name == "s":  # one row per C value so the key declares
            seen, kept = set(), []
            for row in rows:
                if row[0] not in seen:
                    seen.add(row[0])
                    kept.append(row)
            rows = kept
        db.create_relation(name, list(attrs), rows)
    db.declare_key("s", ["C"])
    maintainer = ViewMaintainer(db)
    reference = ReferenceViews(db, dict(PROPERTY_VIEWS))
    views = {}
    for name, expression in PROPERTY_VIEWS:
        views[name] = maintainer.define_view(name, expression)
        assert maintainer.compiled_plan(name).counter_free

    def check_soundness():
        for name, view in views.items():
            assert view.contents == reference.view(name).contents
            view_key = maintainer.compiled_plan(name).view_key
            schema = view.contents.schema
            positions = tuple(
                schema.index(a) for a in view_key.view_attributes
            )
            seen_keys = set()
            for row, count in view.contents.counts().items():
                assert count == 1, (name, row, count)
                key_values = tuple(row[i] for i in positions)
                assert key_values not in seen_keys, (name, key_values)
                seen_keys.add(key_values)

    check_soundness()
    for ops in transactions:
        txn = db.begin()
        for op, name, row in ops:
            (txn.insert if op == "ins" else txn.delete)(name, row)
        try:
            txn.commit()
        except KeyViolationError:
            continue
        check_soundness()
