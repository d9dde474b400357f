"""Unit tests for the maintainer's index recommendations."""

import pytest

from repro.algebra.expressions import BaseRef
from repro.core.maintainer import ViewMaintainer
from repro.engine.database import Database


@pytest.fixture
def db():
    database = Database()
    database.create_relation("r", ["A", "B"], [(1, 2)])
    database.create_relation("s", ["B", "C"], [(2, 3)])
    database.create_relation("t", ["C", "D"], [(3, 4)])
    return database


class TestRecommendations:
    def test_chain_join_recommends_link_attributes(self, db):
        m = ViewMaintainer(db)
        m.define_view(
            "v", BaseRef("r").join(BaseRef("s")).join(BaseRef("t"))
        )
        # Every row grows outward from its delta along the links, so
        # each relation is probed through one join attribute at a time
        # — s through B when r changes and through C when t does — and
        # no operand waits behind a cross join to be probed through a
        # composite key.
        assert set(m.recommended_indexes("v")) == {
            ("r", ("B",)),
            ("s", ("B",)),
            ("s", ("C",)),
            ("t", ("C",)),
        }

    def test_all_changed_shape_contributes_its_probes(self, db):
        # Over the cycle r - u - s, any one change reaches r through a
        # single link (B from s, A from u).  Only when u and s change
        # together and r does not is r joined last behind two deltas —
        # i_u -> i_s [hash] -> r — and probed through both links at
        # once, a key no single-relation shape asks for.
        db.create_relation("u", ["A", "C"], [(1, 3)])
        m = ViewMaintainer(db)
        m.define_view(
            "v",
            BaseRef("r")
            .join(BaseRef("u"))
            .product(BaseRef("s").rename({"B": "B2", "C": "C2"}))
            .select("B = B2 and C = C2"),
        )
        recs = set(m.recommended_indexes("v"))
        assert {("r", ("A",)), ("r", ("B",)), ("r", ("A", "B"))} <= recs

    def test_select_only_view_recommends_nothing(self, db):
        m = ViewMaintainer(db)
        m.define_view("v", BaseRef("r").select("A < 5"))
        assert m.recommended_indexes("v") == ()

    def test_offset_equality_counts_as_link(self, db):
        m = ViewMaintainer(db)
        m.define_view(
            "v", BaseRef("r").product(BaseRef("t")).select("B = C + 2")
        )
        recs = set(m.recommended_indexes("v"))
        assert ("t", ("C",)) in recs or ("r", ("B",)) in recs

    def test_unknown_view(self, db):
        from repro.errors import UnknownViewError

        m = ViewMaintainer(db)
        with pytest.raises(UnknownViewError):
            m.recommended_indexes("nope")


class TestCreation:
    def test_create_recommended_indexes(self, db):
        m = ViewMaintainer(db)
        m.define_view("v", BaseRef("r").join(BaseRef("s")))
        created = m.create_recommended_indexes("v")
        assert created >= 2
        assert db.relation("r").indexes.get(("B",)) is not None
        assert db.relation("s").indexes.get(("B",)) is not None

    def test_creation_is_idempotent(self, db):
        m = ViewMaintainer(db)
        m.define_view("v", BaseRef("r").join(BaseRef("s")))
        m.create_recommended_indexes("v")
        assert m.create_recommended_indexes("v") == 0

    def test_precreated_indexes_used_and_maintained(self, db):
        m = ViewMaintainer(db)
        view = m.define_view("v", BaseRef("r").join(BaseRef("s")))
        m.create_recommended_indexes("v")
        from repro.instrumentation import CostRecorder, recording

        recorder = CostRecorder()
        with recording(recorder):
            with db.transact() as txn:
                txn.insert("r", (9, 2))
        assert recorder.get("index_probes") > 0
        assert (9, 2, 3) in view.contents
