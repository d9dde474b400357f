"""Unit tests for the row planner: sharing, pushdown, index probes."""

import pytest

from repro.algebra.expressions import BaseRef, to_normal_form
from repro.algebra.relation import Delta, Relation, TaggedRelation
from repro.algebra.schema import RelationSchema
from repro.algebra.tags import Tag
from repro.core.differential import compute_view_delta
from repro.core.planner import RowPlanner, evaluate_normal_form
from repro.core.truthtable import DeltaRowChoice, enumerate_delta_rows
from repro.instrumentation import CostRecorder, recording


@pytest.fixture
def catalog():
    return {
        "r": RelationSchema(["A", "B"]),
        "s": RelationSchema(["B", "C"]),
        "t": RelationSchema(["C", "D"]),
    }


def _chain_instances(catalog, n=20):
    return {
        "r": Relation.from_rows(catalog["r"], [(i, i % 5) for i in range(n)]),
        "s": Relation.from_rows(catalog["s"], [(i % 5, i % 7) for i in range(n)]),
        "t": Relation.from_rows(catalog["t"], [(i % 7, i) for i in range(n)]),
    }


class TestEvaluateNormalForm:
    """The pipelined evaluator must agree with the naive tree walker."""

    @pytest.mark.parametrize(
        "make_expr",
        [
            lambda: BaseRef("r"),
            lambda: BaseRef("r").select("A < 10"),
            lambda: BaseRef("r").project(["B"]),
            lambda: BaseRef("r").join(BaseRef("s")),
            lambda: BaseRef("r").join(BaseRef("s")).join(BaseRef("t")),
            lambda: (
                BaseRef("r")
                .join(BaseRef("s"))
                .select("A <= C + 2 and B >= 1")
                .project(["A", "C"])
            ),
            lambda: BaseRef("r").select("A < 3 or B > 3"),
            lambda: BaseRef("r").join(BaseRef("s")).select("A < 2 or C > 5"),
        ],
    )
    def test_agrees_with_tree_evaluator(self, make_expr, catalog):
        from repro.algebra.evaluate import evaluate

        instances = _chain_instances(catalog)
        expr = make_expr()
        nf = to_normal_form(expr, catalog)
        assert evaluate_normal_form(nf, instances) == evaluate(expr, instances)

    def test_empty_relation(self, catalog):
        instances = _chain_instances(catalog)
        instances["s"] = Relation(catalog["s"])
        nf = to_normal_form(BaseRef("r").join(BaseRef("s")), catalog)
        assert len(evaluate_normal_form(nf, instances)) == 0


class TestSubexpressionSharing:
    def _run(self, share):
        catalog = {
            "r": RelationSchema(["A", "B"]),
            "s": RelationSchema(["B", "C"]),
            "t": RelationSchema(["C", "D"]),
        }
        instances = _chain_instances(catalog, n=30)
        nf = to_normal_form(
            BaseRef("r").join(BaseRef("s")).join(BaseRef("t")), catalog
        )
        deltas = {
            "r": Delta(catalog["r"], inserted=[(100, 0)]),
            "s": Delta(catalog["s"], inserted=[(0, 100)]),
            "t": Delta(catalog["t"], inserted=[(100, 100)]),
        }
        instances["r"].add((100, 0))
        instances["s"].add((0, 100))
        instances["t"].add((100, 100))
        recorder = CostRecorder()
        with recording(recorder):
            out = compute_view_delta(
                nf, instances, deltas, share_subexpressions=share
            )
        return out, recorder

    def test_sharing_gives_same_answer_with_memo_hits(self):
        shared, rec_shared = self._run(True)
        unshared, rec_unshared = self._run(False)
        assert shared == unshared
        assert rec_shared.get("subexpression_memo_hits") > 0
        assert rec_unshared.get("subexpression_memo_hits") == 0

    def test_sharing_reduces_join_probes(self):
        _, rec_shared = self._run(True)
        _, rec_unshared = self._run(False)
        assert rec_shared.get("join_probes") <= rec_unshared.get("join_probes")

    def test_2k_minus_1_rows_evaluated(self):
        _, recorder = self._run(True)
        assert recorder.get("delta_rows_evaluated") == 2**3 - 1


class TestEqualityLinkOffsets:
    def test_join_on_offset_equality(self, catalog):
        """x = y + c equality atoms must be honoured as shifted hash keys."""
        from repro.algebra.evaluate import evaluate

        expr = (
            BaseRef("r")
            .product(BaseRef("t"))
            .select("B = C + 2")
            .project(["A", "D"])
        )
        nf = to_normal_form(expr, catalog)
        instances = {
            "r": Relation.from_rows(catalog["r"], [(1, 5), (2, 7)]),
            "t": Relation.from_rows(catalog["t"], [(3, 30), (5, 50)]),
        }
        got = evaluate_normal_form(nf, instances)
        want = evaluate(expr, instances)
        assert got == want
        assert got.counts() == {(1, 30): 1, (2, 50): 1}


class TestIndexProbe:
    def test_index_probe_used_and_correct(self, catalog):
        nf = to_normal_form(BaseRef("r").join(BaseRef("s")), catalog)
        instances = _chain_instances(catalog)
        delta = Delta(catalog["r"], inserted=[(100, 2)])
        instances["r"].add((100, 2))

        probes = []

        def index_probe(position, link_attrs):
            occurrence = nf.occurrences[position]
            if occurrence.name != "s":
                return None
            probes.append((position, link_attrs))
            base_attr = tuple(occurrence.inverse[q] for q in link_attrs)
            positions = catalog["s"].positions(base_attr)

            def probe(key):
                for values, count in instances["s"].items():
                    if tuple(values[i] for i in positions) == key:
                        yield values, Tag.OLD, count

            return probe

        with_index = compute_view_delta(
            nf, instances, {"r": delta}, index_probe=index_probe
        )
        without = compute_view_delta(nf, instances, {"r": delta})
        assert with_index == without
        assert probes  # the hook was actually consulted

    def test_index_probe_only_for_old_operands(self, catalog):
        """DELTA operands must never be answered from an index."""
        nf = to_normal_form(BaseRef("r").join(BaseRef("s")), catalog)
        instances = _chain_instances(catalog)
        delta = Delta(catalog["s"], inserted=[(2, 100)])
        instances["s"].add((2, 100))
        seen_positions = []

        def index_probe(position, link_attrs):
            seen_positions.append(position)
            return None

        compute_view_delta(nf, instances, {"s": delta}, index_probe=index_probe)
        # Position 1 (s) is changed; its DELTA operand must not probe.
        # Its OLD operand may. Position 0 (r, unchanged old) may probe.
        assert all(p in (0, 1) for p in seen_positions)


class TestPlannerPlumbing:
    def test_every_row_starts_at_its_lowest_delta(self, catalog):
        nf = to_normal_form(
            BaseRef("r").join(BaseRef("s")).join(BaseRef("t")), catalog
        )
        for changed in ([2], [0, 1], [0, 2], [0, 1, 2]):
            planner = RowPlanner(nf, changed_positions=changed)
            assert len(planner.chains) == 2 ** len(changed) - 1
            for row, chain in planner.chains.items():
                deltas = [p for p in changed if row[p] is DeltaRowChoice.DELTA]
                assert chain[0].position == deltas[0]
                assert sorted(step.position for step in chain) == [0, 1, 2]
                # r - s - t is connected, so growing along the links
                # never leaves an operand to be cross-joined.
                assert all(step.link_attr_names for step in chain[1:])

    def test_linked_delta_is_joined_before_linked_old(self, catalog):
        star = to_normal_form(
            BaseRef("r")
            .product(BaseRef("s").rename({"B": "B2"}))
            .product(BaseRef("t").rename({"C": "C2"}))
            .select("B = B2 and A = D"),
            catalog,
        )
        chains = RowPlanner(star, changed_positions=[0, 2]).chains
        old, delta = DeltaRowChoice.OLD, DeltaRowChoice.DELTA
        orders = {
            row: [step.position for step in chain]
            for row, chain in chains.items()
        }
        assert orders == {
            (old, old, delta): [2, 0, 1],
            (delta, old, old): [0, 1, 2],
            (delta, old, delta): [0, 2, 1],
        }
        # Rows sharing an order prefix share its step plans.
        assert chains[(delta, old, old)][0] is chains[(delta, old, delta)][0]

    def test_unlinked_operand_comes_last(self, catalog):
        nf = to_normal_form(
            BaseRef("r")
            .product(BaseRef("t"))
            .product(BaseRef("s").rename({"B": "B2", "C": "C2"}))
            .select("B = B2"),
            catalog,
        )
        (chain,) = RowPlanner(nf, changed_positions=[0]).chains.values()
        assert [step.position for step in chain] == [0, 2, 1]
        assert not chain[2].link_attr_names

    def test_always_empty_condition_short_circuits(self, catalog):
        nf = to_normal_form(BaseRef("r").select("1 = 2"), catalog)
        planner = RowPlanner(nf, changed_positions=[0])
        tagged = TaggedRelation(
            nf.qualified_schema.project_schema(
                nf.occurrences[0].qualified_names()
            )
        )
        tagged.add((1, 2), Tag.INSERT)
        out = planner.evaluate_rows(
            enumerate_delta_rows(1, [0]),
            [{DeltaRowChoice.OLD: tagged, DeltaRowChoice.DELTA: tagged}],
        )
        assert out.is_empty()
