"""Focused tests for the counted OLD-operand arithmetic.

The OLD operand of a truth-table row must hold exactly the tuples (and
counts) present both before and after the transaction:
``old_count = post_count − insert_count``.  For set-semantics base
relations this degenerates to "skip inserted tuples"; for counted
operands — views used as bases of other views — the subtraction is
essential.  The generated row kernels compute the same subtraction
inline; the stacked-view test holds them to the reference functions.
"""


from repro import BaseRef, Database, ViewMaintainer
from repro.algebra.relation import Delta, Relation
from repro.algebra.schema import RelationSchema
from repro.algebra.tags import Tag
from repro.core.differential import _old_operand
from repro.instrumentation import CostRecorder, recording
from tests.reference import REFERENCE_PARITY_COUNTERS, ReferenceViews

SCHEMA = RelationSchema(["A"])


def _counts(tagged):
    return {
        values: count
        for values, tag, count in tagged.items()
        if tag is Tag.OLD
    }


class TestSetSemantics:
    def test_inserted_tuple_excluded(self):
        post = Relation.from_rows(SCHEMA, [(1,), (2,)])
        delta = Delta(SCHEMA, inserted=[(2,)])
        assert _counts(_old_operand(post, delta, SCHEMA)) == {(1,): 1}

    def test_deleted_tuple_absent_from_post_already(self):
        post = Relation.from_rows(SCHEMA, [(1,)])
        delta = Delta(SCHEMA, deleted=[(9,)])
        assert _counts(_old_operand(post, delta, SCHEMA)) == {(1,): 1}

    def test_no_delta(self):
        post = Relation.from_rows(SCHEMA, [(1,), (2,)])
        assert _counts(_old_operand(post, None, SCHEMA)) == {(1,): 1, (2,): 1}


class TestCountedSemantics:
    def test_partial_insert_leaves_remainder_old(self):
        # Pre-state count 2; insert raises it to 5. OLD must be 2.
        post = Relation.from_counts(SCHEMA, {(1,): 5})
        delta = Delta.from_counts(SCHEMA, {(1,): 3}, {})
        assert _counts(_old_operand(post, delta, SCHEMA)) == {(1,): 2}

    def test_full_insert_excludes_tuple(self):
        post = Relation.from_counts(SCHEMA, {(1,): 3})
        delta = Delta.from_counts(SCHEMA, {(1,): 3}, {})
        assert _counts(_old_operand(post, delta, SCHEMA)) == {}

    def test_partial_delete_remainder_is_old(self):
        # Pre-state count 5, delete 2: post holds 3, all of them OLD.
        post = Relation.from_counts(SCHEMA, {(1,): 3})
        delta = Delta.from_counts(SCHEMA, {}, {(1,): 2})
        assert _counts(_old_operand(post, delta, SCHEMA)) == {(1,): 3}

    def test_identity_old_equals_pre_minus_deletes(self):
        """old = post − i must equal pre − d, count for count."""
        pre = Relation.from_counts(SCHEMA, {(1,): 4, (2,): 1, (3,): 2})
        delta = Delta.from_counts(SCHEMA, {(1,): 2, (4,): 1}, {(2,): 1, (3,): 1})
        post = pre.copy()
        delta.apply_to(post)
        old = _counts(_old_operand(post, delta, SCHEMA))
        expected = {}
        for values, count in pre.items():
            remaining = count - delta.deleted.get(values, 0)
            if remaining > 0:
                expected[values] = remaining
        assert old == expected


class TestStackedViewKernel:
    """One transaction changes a base relation *and* the upstream view
    of a stacked view: the row ``i_t * p`` probes the index the counted
    view ``p`` keeps on ``B`` and reads each OLD multiplicity as the
    live counter less the copies this transaction inserted."""

    VIEWS = {
        "p": BaseRef("r").project(["B"]),
        "st": BaseRef("t").product(BaseRef("p")).select("E = B"),
    }

    def _run(self, reference):
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 6), (2, 6), (3, 7), (9, 9)])
        db.create_relation("t", ["E", "F"], [(6, 0), (7, 1), (9, 2)])
        if reference:
            views = ReferenceViews(db, self.VIEWS)
        else:
            views = ViewMaintainer(db)
            for name, expression in self.VIEWS.items():
                views.define_view(name, expression)
        recorder = CostRecorder()
        with recording(recorder):
            with db.transact() as txn:
                # p: (6,) rises 2 -> 4 (two copies stay OLD), (8,) is
                # new (no OLD copy), (9,) disappears.
                txn.insert_many("r", [(4, 6), (5, 6), (6, 8)])
                txn.delete("r", (9, 9))
                txn.insert_many("t", [(6, 5), (8, 5)])
                txn.delete("t", (7, 1))
            with db.transact() as txn:
                # p: (6,) drops 4 -> 3, all of them OLD.
                txn.delete("r", (1, 6))
                txn.insert("t", (6, 7))
        contents = {
            name: views.view(name).contents.counts() for name in self.VIEWS
        }
        return views, contents, recorder.snapshot()

    def test_kernels_match_reference_contents_and_work(self):
        maintainer, have, work = self._run(reference=False)
        _, want, reference_work = self._run(reference=True)
        maintainer.verify_all()
        assert have == want
        assert have["p"][(6,)] == 3
        assert have["st"][(6, 7, 6)] == 3
        for name in REFERENCE_PARITY_COUNTERS:
            assert work.get(name, 0) == reference_work.get(name, 0), name
        assert maintainer.codegen_stats().get("codegen_fallback_tuples") == 0
