"""A lowered shape's access decisions are the kernels' alone.

``RowPlanner.lower`` decides, once, how each node of a shape's terms
reads its operand: scanned or probed, as a set or as a bag (an upstream
view), as stored or as it stood before the commit.  The kernel
generator specialises on that decision; the reference walker
(``tests/reference.py``) takes the nodes, links and atoms from the same
ops but builds the stored and pre-commit operands itself from the live
count maps and the deltas.  So a wrong access cannot pass the parity suites: flipping one
here makes the kernels disagree with the reference, while the reference
gives the same answer as before.
"""

import pytest

from repro import BaseRef, Database, ViewMaintainer
from repro.core.planner import Access, RowPlanner
from tests.reference import ReferenceViews


def _bag_operand():
    """``base`` counts (2,) twice; an ``s`` insert probes it as OLD."""
    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 2), (3, 2), (4, 5)])
    db.create_relation("s", ["B", "C"], [(5, 1)])
    views = {
        "base": BaseRef("r").project(["B"]),
        "v": BaseRef("base").join(BaseRef("s")),
    }
    return db, views, [{"s": [(2, 7)]}]


def _path(relation):
    """Two-hop paths by their ends: no view key, so counters count."""
    return (
        BaseRef(relation)
        .rename({"S": "X0", "T": "X1"})
        .join(BaseRef(relation).rename({"S": "X1", "T": "X2"}))
        .project(["X0", "X2"])
    )


def _changed_self_join():
    """Both occurrences of ``e`` change: the term of the first one must
    read the second pre-commit, dropping the inserts, or the path
    2 → 3 → 4 is counted by both terms."""
    db = Database()
    db.create_relation("e", ["S", "T"], [(0, 1), (1, 2)])
    return db, {"v": _path("e")}, [{"e": [(2, 3), (3, 4)]}]


def _changed_bag_self_join():
    """The same over an upstream view: a changed bag operand."""
    db, _, stream = _changed_self_join()
    return db, {"hop": BaseRef("e").select("S >= 0"), "v": _path("hop")}, stream


def _contents(build, maintained):
    db, views, stream = build()
    maintainer = maintained(db, views)
    for inserts in stream:
        db.apply(inserts=inserts)
    return {name: dict(maintainer.view(name).contents.counts()) for name in views}


def _kernels(db, views):
    maintainer = ViewMaintainer(db)
    for name, expression in views.items():
        maintainer.define_view(name, expression)
    return maintainer


@pytest.mark.parametrize(
    "build, access, flipped",
    [
        (_bag_operand, Access.BAG_PROBE, Access.SET_PROBE),
        (_changed_self_join, Access.PRE_COMMIT_SET_PROBE, Access.SET_PROBE),
        (_changed_bag_self_join, Access.PRE_COMMIT_BAG_PROBE, Access.BAG_PROBE),
    ],
    ids=["bag", "less-inserts", "bag-less-inserts"],
)
def test_a_flipped_access_makes_the_kernels_disagree_with_the_reference(
    monkeypatch, build, access, flipped
):
    expected = _contents(build, ReferenceViews)
    assert _contents(build, _kernels) == expected

    real = RowPlanner.lower
    flips = []

    def lower(planner, *args):
        ops = real(planner, *args)
        nodes = tuple(
            node._replace(access=flipped) if node.access is access else node
            for node in ops.nodes
        )
        flips.append(nodes != ops.nodes)
        return ops._replace(nodes=nodes)

    monkeypatch.setattr(RowPlanner, "lower", lower)
    assert _contents(build, _kernels) != expected
    assert any(flips)
    # The reference read the same flipped ops and ignored the access.
    assert _contents(build, ReferenceViews) == expected
