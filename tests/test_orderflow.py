"""Unit tests for the order-flow macro workload."""

import pytest

from repro.core.consistency import check_view_consistency
from repro.core.maintainer import ViewMaintainer
from repro.errors import ReproError
from repro.workloads.orderflow import OrderFlow


class TestSchema:
    def test_tables_populated(self):
        flow = OrderFlow(customers=20, products=10, lineitems=50)
        db = flow.database
        assert len(db.relation("customer")) == 20
        assert len(db.relation("product")) == 10
        assert len(db.relation("lineitem")) == 50

    def test_deterministic(self):
        a = OrderFlow(customers=20, products=10, lineitems=50, seed=3)
        b = OrderFlow(customers=20, products=10, lineitems=50, seed=3)
        assert a.database.relation("lineitem") == b.database.relation("lineitem")

    def test_invalid_sizes(self):
        with pytest.raises(ReproError):
            OrderFlow(customers=0)


class TestViews:
    def test_definitions_register_in_order(self):
        flow = OrderFlow(customers=20, products=10, lineitems=50)
        maintainer = ViewMaintainer(flow.database)
        for name, expression in flow.view_definitions().items():
            maintainer.define_view(name, expression)
        assert set(maintainer.view_names()) == {
            "open_lines",
            "open_premium",
            "pricey_open",
            "region_activity",
        }

    def test_open_premium_is_stacked(self):
        flow = OrderFlow(customers=20, products=10, lineitems=50)
        maintainer = ViewMaintainer(flow.database)
        for name, expression in flow.view_definitions().items():
            maintainer.define_view(name, expression)
        assert "open_lines" in maintainer.dependencies("open_premium")


class TestStream:
    def test_transactions_yield_per_commit(self):
        flow = OrderFlow(customers=20, products=10, lineitems=50)
        count = sum(1 for _ in flow.transactions(15))
        assert count == 15

    def test_views_stay_consistent_through_stream(self):
        flow = OrderFlow(customers=15, products=8, lineitems=40)
        maintainer = ViewMaintainer(flow.database, auto_verify=False)
        for name, expression in flow.view_definitions().items():
            maintainer.define_view(name, expression)
        for i, _ in enumerate(flow.transactions(40)):
            if i % 10 == 9:
                for name in maintainer.view_names():
                    check_view_consistency(
                        maintainer.view(name),
                        maintainer.instances(),
                    )

    def test_line_ids_never_collide(self):
        flow = OrderFlow(customers=15, products=8, lineitems=40)
        for _ in flow.transactions(30):
            pass
        lineitem = flow.database.relation("lineitem")
        ids = [row[0] for row in lineitem.value_tuples()]
        assert len(ids) == len(set(ids))
