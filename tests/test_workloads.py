"""Unit tests for workload generators and named scenarios."""

import random

import pytest

from repro.algebra.expressions import to_normal_form
from repro.core.irrelevance import RelevanceFilter
from repro.errors import ReproError
from repro.workloads.generators import (
    RelationSpec,
    UpdateStreamSpec,
    generate_chain_database,
    generate_relation_rows,
    generate_update_stream,
)
from repro.workloads.scenarios import (
    alerter_scenario,
    example_4_1,
    paper_p3_join,
    sales_scenario,
)


class TestRelationSpec:
    def test_single_range_broadcast(self):
        spec = RelationSpec("r", ["A", "B"], 10, (0, 5))
        assert spec.ranges == [(0, 5), (0, 5)]

    def test_per_attribute_ranges(self):
        spec = RelationSpec("r", ["A", "B"], 10, [(0, 5), (10, 20)])
        assert spec.ranges == [(0, 5), (10, 20)]

    def test_range_count_mismatch(self):
        with pytest.raises(ReproError):
            RelationSpec("r", ["A", "B"], 10, [(0, 5)])

    def test_generate_rows_distinct_and_in_range(self):
        spec = RelationSpec("r", ["A", "B"], 50, (0, 9))
        rows = generate_relation_rows(spec, random.Random(1))
        assert len(rows) == 50
        assert len(set(rows)) == 50
        assert all(0 <= v <= 9 for row in rows for v in row)

    def test_generation_is_deterministic(self):
        spec = RelationSpec("r", ["A", "B"], 30, (0, 9))
        a = generate_relation_rows(spec, random.Random(7))
        b = generate_relation_rows(spec, random.Random(7))
        assert a == b

    def test_impossible_cardinality_rejected(self):
        spec = RelationSpec("r", ["A"], 100, (0, 5))
        with pytest.raises(ReproError):
            generate_relation_rows(spec, random.Random(1))


class TestUpdateStream:
    def test_insert_only_stream(self):
        spec = RelationSpec("r", ["A", "B"], 10, (0, 100))
        stream = UpdateStreamSpec(spec, batch_size=5, insert_fraction=1.0)
        rows = generate_relation_rows(spec, random.Random(2))
        batches = list(generate_update_stream(stream, rows, 4, random.Random(3)))
        assert len(batches) == 4
        for inserts, deletes in batches:
            assert len(inserts) == 5 and deletes == []

    def test_deletes_target_existing_rows(self):
        spec = RelationSpec("r", ["A", "B"], 30, (0, 100))
        stream = UpdateStreamSpec(spec, batch_size=6, insert_fraction=0.5)
        rows = generate_relation_rows(spec, random.Random(2))
        live = set(rows)
        for inserts, deletes in generate_update_stream(
            stream, rows, 5, random.Random(3)
        ):
            for row in deletes:
                assert row in live
                live.discard(row)
            live.update(inserts)

    def test_irrelevant_fraction_draws_from_special_ranges(self):
        spec = RelationSpec("r", ["A", "B"], 5, (0, 9))
        stream = UpdateStreamSpec(
            spec,
            batch_size=20,
            irrelevant_fraction=1.0,
            irrelevant_ranges=[(100, 200), (100, 200)],
        )
        rows = generate_relation_rows(spec, random.Random(2))
        (batch,) = list(generate_update_stream(stream, rows, 1, random.Random(3)))
        inserts, _ = batch
        assert all(v >= 100 for row in inserts for v in row)

    def test_validation(self):
        spec = RelationSpec("r", ["A"], 5, (0, 9))
        with pytest.raises(ReproError):
            UpdateStreamSpec(spec, 5, insert_fraction=1.5)
        with pytest.raises(ReproError):
            UpdateStreamSpec(spec, 5, irrelevant_fraction=0.5)


class TestChainDatabase:
    def test_shapes(self):
        db, names = generate_chain_database(4, 25, seed=5)
        assert names == ["r1", "r2", "r3", "r4"]
        for i, name in enumerate(names):
            schema = db.relation(name).schema
            assert schema.names == (f"A{i}", f"A{i + 1}")
            assert len(db.relation(name)) == 25

    def test_at_least_one_relation(self):
        with pytest.raises(ReproError):
            generate_chain_database(0, 10)


class TestScenarios:
    def test_example_4_1_instance_matches_paper(self):
        sc = example_4_1()
        assert set(sc.database.relation("r").value_tuples()) == {
            (1, 2),
            (5, 10),
            (12, 15),
        }
        assert set(sc.database.relation("s").value_tuples()) == {
            (2, 10),
            (10, 20),
        }
        from tests.reference import evaluate

        view = evaluate(sc.expression, sc.database.instances())
        assert view.counts() == {(5, 20): 1}

    def test_paper_p3_join_is_three_relation_chain(self):
        sc = paper_p3_join(cardinality=20)
        nf = to_normal_form(sc.expression, sc.database.schema_catalog())
        assert nf.relation_names == ("r1", "r2", "r3")

    def test_sales_scenario_view_evaluates(self):
        sc = sales_scenario(customers=20, orders=50)
        from tests.reference import evaluate

        view = evaluate(sc.expression, sc.database.instances())
        # Every surviving order satisfies the condition.
        orders = {
            row[0]: row for row in sc.database.relation("orders").value_tuples()
        }
        for values in view.value_tuples():
            order = orders[values[0]]
            assert order[3] == 0 and order[2] > 2500

    def test_alerter_scenario_has_screenable_updates(self):
        sc = alerter_scenario(sensors=10, readings=40)
        nf = to_normal_form(sc.expression, sc.database.schema_catalog())
        screen = RelevanceFilter(
            nf, "reading", sc.database.relation("reading").schema
        )
        # A reading far above any threshold is relevant; far below the
        # smallest threshold + 10 it still *may* match some sensor, so
        # relevance is the safe answer — the screen must never divide
        # by relation contents, only by the condition.
        assert screen.is_relevant((0, 10_000))

    def test_scenarios_are_deterministic(self):
        a = sales_scenario(customers=15, orders=30, seed=9)
        b = sales_scenario(customers=15, orders=30, seed=9)
        assert a.database.relation("orders") == b.database.relation("orders")
