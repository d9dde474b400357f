"""Every screen decision carries a certificate the solver-free checker
(``tests/certificates.py``) accepts.

The compiled screens decide per tuple; this test re-derives each
decision's certificate on the side and hands it to the checker:

* a tuple a screen kernel drops gets, per (occurrence, disjunct), a
  false ground atom or a negative cycle that
  :meth:`~repro.core.graph.ConstraintGraph.negative_cycle` recovers,
  every edge citing the condition atom it came from;
* a tuple a screen passes gets a witness database from
  :func:`~repro.core.irrelevance.construct_witness_database`, or is
  counted as *waste*: a pass a cycle would have dropped;
* a probe the generator left out (``codegen.bound_probes``) is checked
  to be one that can never fire.

Views come from ``tests/strategies.py`` and from the macrobench
catalog, read as ``tests/test_patch_points.py`` reads it.  Relations
dropped wholesale by a static or FK proof are outside this check.
"""

import ast
import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.conditions import Conjunction
from repro.algebra.expressions import BaseRef
from repro.cli import parse_view_expression
from repro.core import codegen
from repro.core.graph import ConstraintGraph
from repro.core.irrelevance import construct_witness_database
from repro.core.maintainer import ViewMaintainer
from repro.core.normalize import normalize_atom
from repro.core.substitution import binding_for
from repro.engine.database import Database
from repro.simulation.workload import random_spj_expression
from tests import certificates
from tests.strategies import SPJ_TABLES, conjunctions, spj_expressions

CATALOG_SCHEMA = {
    "customer": ["cust_id", "region", "tier"],
    "product": ["prod_id", "price", "category"],
    "lineitem": ["line_id", "cust_id", "prod_id", "qty", "status"],
}


def _catalog_specs():
    path = Path(__file__).resolve().parent.parent / "macrobench" / "catalog.py"
    assigned = {
        node.target.id: ast.literal_eval(node.value)
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.AnnAssign) and node.value is not None
    }
    return assigned["VIEW_SPECS"], assigned["KEYS"]


def _refutation(disjunct, bound):
    """A certificate that ``disjunct`` is unsatisfiable under ``bound``,
    or None."""
    graph = ConstraintGraph()
    for atom in disjunct.atoms:
        substituted = atom.substitute(bound)
        if substituted.is_ground():
            if not substituted.truth_value():
                return ("ground", atom)
            continue
        for normalized in normalize_atom(substituted):
            graph.add_atom(normalized, cite=atom)
    cycle = graph.negative_cycle()
    return None if cycle is None else ("cycle", cycle)


def _certify(plan, rows_of, relations=None):
    """Certify every decision of ``plan``'s screens (of ``relations``,
    or all) over the tuples ``rows_of(arity)`` gives; return the counts
    of each kind."""
    normal_form = plan.normal_form
    schemas = {name: operand.schema for name, operand in plan._operands.items()}
    attributes = {name: schema.names for name, schema in schemas.items()}
    tally = {"drops": 0, "passes": 0, "waste": 0, "cycles": 0, "probe drops": 0}
    for relation, screen in sorted(plan._screen_kernels.items()):
        if screen.drop or relations is not None and relation not in relations:
            continue
        schema = schemas[relation]
        for values in rows_of(len(schema)):
            kept = screen.kernel({values: 1}, {})[0] if screen.kernel else {values: 1}
            if values in kept:
                tally["passes"] += 1
                witness = construct_witness_database(normal_form, relation, values, schemas)
                if witness is None:
                    tally["waste"] += 1
                    continue
                rows = {name: list(found.count_map) for name, found in witness.items()}
                assert certificates.witnesses(normal_form, relation, values, rows, attributes)
                continue
            tally["drops"] += 1
            proofs = {}
            for occurrence in normal_form.occurrences_of(relation):
                bound = binding_for(occurrence, schema, values)
                for k, disjunct in enumerate(normal_form.condition.disjuncts):
                    proofs[occurrence.position, k] = _refutation(disjunct, bound)
                    assert proofs[occurrence.position, k] is not None, (relation, values, str(disjunct))
                    tally["cycles"] += proofs[occurrence.position, k][0] == "cycle"
            assert certificates.accepts_drop(normal_form, relation, schema.names, values, proofs)
        for disjunct_screen in plan._screens[relation]._screens:

            def col_expr(qualified, _occ=disjunct_screen.occurrence, _schema=schema):
                return f"v[{_schema.index(_occ.inverse[qualified])}]"

            for lower, path, upper in codegen.bound_probes(disjunct_screen, col_expr)[2]:
                assert certificates.accepts_probe_drop(lower, path, upper)
                tally["probe drops"] += 1
    return tally


def _catalog_maintainer():
    specs, keys = _catalog_specs()
    db = Database()
    for name, attributes in CATALOG_SCHEMA.items():
        db.create_relation(name, attributes, [])
    for name, key in keys.items():
        db.declare_key(name, list(key))
    maintainer = ViewMaintainer(db)
    for name, spec in specs.items():
        maintainer.define_view(name, parse_view_expression(spec))
    return maintainer


#: Cell values near the catalog's literals (``status = 0``, ``qty >=
#: 5``, ``tier = 2``, ``price > 400``) and the simulator's domain.
cells = st.sampled_from([-1, 0, 1, 2, 3, 5, 6, 399, 400, 401])


def _rows(draw_rows):
    return lambda arity: [tuple(row[:arity]) for row in draw_rows]


class TestCertificates:
    @settings(max_examples=60, deadline=None)
    @given(expression=spj_expressions(), rows=st.lists(st.lists(cells, min_size=5, max_size=5), max_size=8))
    def test_every_decision_on_a_random_view_is_certified(self, expression, rows):
        db = Database()
        for name, attributes in SPJ_TABLES.items():
            db.create_relation(name, list(attributes), [])
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", expression)
        _certify(maintainer.compiled_plan("v"), _rows(rows))

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.lists(cells, min_size=5, max_size=5), max_size=8))
    def test_every_decision_on_the_catalog_is_certified(self, rows):
        maintainer = _catalog_maintainer()
        for name in maintainer.view_names():
            _certify(maintainer.compiled_plan(name), _rows(rows))

    def test_a_probe_over_one_bound_that_always_fires_stays(self):
        """``A = C and A = D and C > D`` bounds both C and D by r's A,
        and the invariant path D ~> C weighs -1: the probe
        ``-(v[0]) + -1 + v[0] < 0`` holds for every r tuple.  Its two
        bounds are one expression, but its path is negative, so it is
        no never-true probe: every r tuple is dropped, by a cycle."""
        db = Database()
        db.create_relation("r", ["A", "B"], [])
        db.create_relation("s", ["C", "D"], [])
        maintainer = ViewMaintainer(db)
        maintainer.define_view(
            "v", BaseRef("r").product(BaseRef("s")).select("A = C and A = D and C > D")
        )
        rows = [(a, 1) for a in range(-2, 3)]
        tally = _certify(maintainer.compiled_plan("v"), lambda arity: rows, relations={"r"})
        assert tally == {"drops": 5, "passes": 0, "waste": 0, "cycles": 5, "probe drops": 2}

    def test_the_waste_count(self):
        """A fixed sample for the record (EXPERIMENTS.md): 60 simulator
        views and the catalog, each relation screened over the same 40
        rows.  No pass is waste; the catalog's drops are all false
        ground atoms, the random views' include negative cycles; each
        join equality leaves out a probe that never fires."""
        rng = random.Random(7)
        sample = _rows([[rng.choice(cells.elements) for _ in range(5)] for _ in range(40)])
        plans = [_catalog_maintainer().compiled_plan(name) for name in _catalog_specs()[0]]
        for seed in range(60):
            db = Database()
            for name, attributes in SPJ_TABLES.items():
                db.create_relation(name, list(attributes), [])
            maintainer = ViewMaintainer(db)
            maintainer.define_view("v", random_spj_expression(random.Random(seed), max_operands=3))
            plans.append(maintainer.compiled_plan("v"))
        total = dict.fromkeys(("drops", "passes", "waste", "cycles", "probe drops"), 0)
        for plan in plans:
            for kind, count in _certify(plan, sample).items():
                total[kind] += count
        assert total == {"drops": 2104, "passes": 2696, "waste": 0, "cycles": 209, "probe drops": 18}


class TestNegativeCycles:
    @settings(max_examples=200, deadline=None)
    @given(conjunction=conjunctions(max_atoms=6))
    def test_a_recovered_cycle_is_one_the_checker_accepts(self, conjunction):
        atoms = [a for a in conjunction.atoms if not a.is_ground()]
        graph = ConstraintGraph()
        for atom in atoms:
            for normalized in normalize_atom(atom):
                graph.add_atom(normalized, cite=atom)
        cycle = graph.negative_cycle()
        assert (cycle is None) == (not graph.has_negative_cycle("floyd"))
        if cycle is not None:
            assert certificates.refutes(("cycle", cycle), Conjunction(atoms), {})
