"""Unit tests for the adaptive strategy estimator (§6 extension)."""

import random

import pytest

from repro.algebra.expressions import BaseRef
from repro.core.consistency import check_view_consistency
from repro.engine.database import Database
from repro.errors import MaintenanceError
from repro.extensions.estimator import (
    AdaptiveMaintainer,
    MaintenanceCostModel,
    StrategyDecision,
)
from tests.reference import evaluate


@pytest.fixture
def db():
    database = Database()
    database.create_relation("r", ["A", "B"], [(i, i % 10) for i in range(300)])
    database.create_relation("s", ["B", "C"], [(i % 10, i) for i in range(300)])
    return database


EXPR = BaseRef("r").join(BaseRef("s")).select("C >= 3").project(["A", "C"])


class TestCostModel:
    def test_smoothing_bounds(self):
        with pytest.raises(MaintenanceError):
            MaintenanceCostModel(smoothing=0)
        with pytest.raises(MaintenanceError):
            MaintenanceCostModel(smoothing=1.5)

    def test_size_features_shapes(self):
        model = MaintenanceCostModel()
        diff1, full1 = model.size_features(10, 1, 1000, 2000)
        diff2, full2 = model.size_features(10, 2, 1000, 2000)
        assert full1 == full2 == 2000
        assert diff2 > diff1  # more changed relations -> more rows

    def test_estimates_scale_with_coefficients(self):
        model = MaintenanceCostModel()
        base_diff, base_full = model.estimate(10, 1, 100, 200)
        model.c_diff *= 2
        model.c_full *= 3
        new_diff, new_full = model.estimate(10, 1, 100, 200)
        assert new_diff == pytest.approx(2 * base_diff)
        assert new_full == pytest.approx(3 * base_full)

    def test_observe_moves_coefficient_toward_sample(self):
        model = MaintenanceCostModel(smoothing=0.5)
        model.observe("differential", size_term=100.0, observed_work=300)
        # sample = 3.0; c_diff moves halfway from 1.0 to 3.0.
        assert model.c_diff == pytest.approx(2.0)
        model.observe("full", size_term=100.0, observed_work=500)
        assert model.c_full == pytest.approx(3.0)

    def test_observe_ignores_zero_size(self):
        model = MaintenanceCostModel()
        model.observe("differential", size_term=0.0, observed_work=999)
        assert model.c_diff == 1.0


class TestAdaptiveMaintainer:
    def test_view_stays_correct_regardless_of_choices(self, db):
        maintainer = AdaptiveMaintainer(db, "v", EXPR, exploration=2)
        rng = random.Random(42)
        for i in range(30):
            with db.transact() as txn:
                for _ in range(rng.randint(1, 3)):
                    txn.insert("r", (1000 + rng.randint(0, 10_000), rng.randint(0, 9)))
            check_view_consistency(maintainer.view, db.instances())

    def test_exploration_alternates(self, db):
        maintainer = AdaptiveMaintainer(db, "v", EXPR, exploration=4)
        for i in range(4):
            with db.transact() as txn:
                txn.insert("r", (1000 + i, i % 10))
        chosen = [d.chosen for d in maintainer.decisions]
        assert chosen == ["differential", "full", "differential", "full"]

    def test_small_deltas_choose_differential_after_calibration(self, db):
        maintainer = AdaptiveMaintainer(db, "v", EXPR, exploration=4)
        for i in range(20):
            with db.transact() as txn:
                txn.insert("r", (1000 + i, i % 10))
        post_exploration = maintainer.decisions[4:]
        assert post_exploration, "expected decisions after exploration"
        counts = {"differential": 0, "full": 0}
        for decision in post_exploration:
            counts[decision.chosen] += 1
        # Single-tuple deltas against a 300-tuple base: differential
        # must dominate once the model is calibrated.
        assert counts["differential"] > counts["full"]

    def test_decisions_record_estimates(self, db):
        maintainer = AdaptiveMaintainer(db, "v", EXPR, exploration=1)
        with db.transact() as txn:
            txn.insert("r", (5000, 3))
        (decision,) = maintainer.decisions
        assert isinstance(decision, StrategyDecision)
        assert decision.estimated_differential > 0
        assert decision.estimated_full > 0
        assert decision.observed_work > 0

    def test_untouched_commits_make_no_decision(self, db):
        db.create_relation("other", ["X"], [(1,)])
        maintainer = AdaptiveMaintainer(db, "v", EXPR)
        with db.transact() as txn:
            txn.insert("other", (2,))
        assert maintainer.decisions == []

    def test_irrelevant_updates_make_no_decision(self, db):
        expr = BaseRef("r").select("A < 0")
        maintainer = AdaptiveMaintainer(db, "neg", expr)
        with db.transact() as txn:
            txn.insert("r", (5000, 3))  # A = 5000 can never satisfy A < 0
        assert maintainer.decisions == []

    def test_strategy_counts(self, db):
        maintainer = AdaptiveMaintainer(db, "v", EXPR, exploration=2)
        for i in range(2):
            with db.transact() as txn:
                txn.insert("r", (1000 + i, i % 10))
        assert maintainer.strategy_counts() == {"differential": 1, "full": 1}

    def test_detach(self, db):
        maintainer = AdaptiveMaintainer(db, "v", EXPR)
        maintainer.detach()
        with db.transact() as txn:
            txn.insert("r", (9999, 1))
        assert maintainer.decisions == []

    def test_full_choice_keeps_correctness(self, db):
        """Force 'full' decisions by biasing the model and verify the
        view still tracks the database."""
        model = MaintenanceCostModel()
        model.c_diff = 1e9  # make differential look terrible
        maintainer = AdaptiveMaintainer(
            db, "v", EXPR, exploration=0, model=model
        )
        for i in range(5):
            with db.transact() as txn:
                txn.insert("r", (2000 + i, i % 10))
        assert all(d.chosen == "full" for d in maintainer.decisions)
        check_view_consistency(maintainer.view, db.instances())


class TestAdaptiveMaintainerDdl:
    """Both strategies run one compiled plan, which holds the live
    operand relations and the indexes it probes: DDL must not leave it
    stale."""

    @staticmethod
    def _differential_only():
        model = MaintenanceCostModel()
        model.c_full = 1e9  # make full re-evaluation look terrible
        return model

    def test_a_dropped_index_is_not_probed(self, db):
        maintainer = AdaptiveMaintainer(
            db, "v", EXPR, exploration=0, model=self._differential_only()
        )
        db.apply(inserts={"r": [(1000, 3)]})  # binds an index on s(B)
        assert db.drop_index("s", ["B"])
        db.apply(inserts={"s": [(3, 5000)]})  # the dropped index misses it
        db.apply(inserts={"r": [(1001, 3)]})
        assert maintainer.strategy_counts()["full"] == 0
        assert maintainer.view.contents == evaluate(EXPR, db.instances())
        assert (1001, 5000) in maintainer.view.contents

    def test_dropping_an_operand_is_refused(self, db):
        maintainer = AdaptiveMaintainer(
            db, "v", EXPR, exploration=0, model=self._differential_only()
        )
        relation = db.relation("s")
        with pytest.raises(MaintenanceError, match="read by view 'v'"):
            db.drop_relation("s")
        assert db.relation("s") is relation
        db.apply(inserts={"r": [(1000, 7)]})
        assert maintainer.view.contents == evaluate(EXPR, db.instances())
        maintainer.detach()
        db.drop_relation("s")
        assert "s" not in db.relation_names()
