"""The SQL ground truth and the tree evaluator agree, bag for bag.

``check_view_consistency`` (and so ``verify_all``, ``auto_verify``,
recovery's ``verify=True`` and the simulator's oracles) recomputes a
view as SQL on ``sqlite3`` (``repro.algebra.sqlite_oracle``).  The
paper's own statement of complete re-evaluation is the counted tree
evaluator in ``tests/reference.py``.  The two share no code; here they
are held to each other:

* on the simulator's SPJ views and GROUP BY views, and on natural joins
  that link their operands by shared attribute names, over generated
  base rows after a generated update stream;
* on a view stacked over such a view, whose stored contents are a bag
  (counts above 1), both as a table holding each row ``count`` times
  and inlined from the base rows;
* on the macrobench catalog, after a stream of its commits;

and a tampered view is reported, so the check can fail at all.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro import BaseRef, Database, ViewMaintainer, check_view_consistency
from repro.algebra.sqlite_oracle import SqliteOracle
from repro.cli import parse_view_expression
from repro.core.views import ViewDefinition
from tests.reference import evaluate
from tests.strategies import (
    SPJ_TABLES,
    aggregate_expressions,
    natural_joins,
    spj_expressions,
    update_streams,
)
from tests.test_shared_traversals import CATALOG_SCHEMA, _catalog, catalog_streams

EXAMPLES = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _streamed(stream) -> Database:
    """A database over the SPJ schema after every commit of ``stream``."""
    initial, transactions = stream
    db = Database()
    for name, attributes in SPJ_TABLES.items():
        db.create_relation(name, list(attributes), initial[name])
    for ops in transactions:
        with db.transact() as txn:
            for kind, name, row in ops:
                (txn.insert if kind == "ins" else txn.delete)(name, row)
    return db


def _agree(instances, expression, definitions=None):
    want = evaluate(expression, instances).counts()
    with SqliteOracle(instances) as oracle:
        got = oracle.contents(expression, definitions)
    assert got == want
    return got


@EXAMPLES
@given(spj_expressions(), update_streams())
def test_spj_views_agree(expression, stream):
    _agree(_streamed(stream).instances(), expression)


@EXAMPLES
@given(natural_joins(), update_streams())
def test_natural_joins_agree(expression, stream):
    _agree(_streamed(stream).instances(), expression)


@EXAMPLES
@given(aggregate_expressions(), update_streams())
def test_aggregate_views_agree(expression, stream):
    _agree(_streamed(stream).instances(), expression)


@EXAMPLES
@given(spj_expressions(), update_streams())
def test_a_stacked_view_agrees_over_a_bag_and_inlined(expression, stream):
    db = _streamed(stream)
    instances = db.instances()
    upstream = ViewDefinition("up", expression, db.schema_catalog())
    instances["up"] = evaluate(expression, instances)
    first = upstream.normal_form.output_schema().names[0]
    stacked = BaseRef("up").project([first])
    got = _agree(instances, stacked)
    # The projection sums the upstream's counts: the table held each
    # row as often as it counts.
    assert sum(got.values()) == sum(instances["up"].count_map.values())
    with SqliteOracle(db.instances()) as oracle:
        assert oracle.contents(stacked, {"up": expression}) == got


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(catalog_streams())
def test_the_macrobench_catalog_agrees(stream):
    specs, _ = _catalog()
    initial, commits = stream
    db = Database()
    for name, attributes in CATALOG_SCHEMA.items():
        db.create_relation(name, attributes, initial[name])
    for inserts, deletes in commits:
        db.apply(inserts=inserts, deletes=deletes)
    definitions = {name: parse_view_expression(spec) for name, spec in specs.items()}
    instances = db.instances()
    for name, expression in definitions.items():
        instances[name] = evaluate(expression, instances)
    for expression in definitions.values():
        _agree(instances, expression)


def test_a_tampered_view_is_reported():
    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 2), (2, 2), (3, 4)])
    maintainer = ViewMaintainer(db)
    view = maintainer.define_view("v", BaseRef("r").project(["B"]))
    assert check_view_consistency(view, maintainer.instances()).is_consistent()
    view.contents._counts[(2,)] = 1  # one of the two supporting rows lost
    report = check_view_consistency(view, maintainer.instances(), raise_on_mismatch=False)
    assert report.count_mismatches == {(2,): (1, 2)}
    assert not maintainer.verify_all(raise_on_mismatch=False)["v"].is_consistent()
