"""Hypothesis strategies shared across test modules."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.algebra.conditions import Atom, Condition, Conjunction
from repro.algebra.expressions import BaseRef, Expression
from repro.simulation.workload import (
    BASE_TABLES,
    random_aggregate_expression,
    random_spj_expression,
)

#: Small integer constants, biased toward the interesting region.
small_ints = st.integers(min_value=-8, max_value=8)

#: Variable names drawn from a tiny pool so atoms interact.
var_names = st.sampled_from(["x", "y", "z", "w"])

ops = st.sampled_from(["=", "<", ">", "<=", ">="])


@st.composite
def atoms(draw) -> Atom:
    """Random paper-class atoms: x op y + c, x op c, or c op d."""
    shape = draw(st.sampled_from(["two-var", "var-const", "ground"]))
    op = draw(ops)
    if shape == "two-var":
        return Atom(draw(var_names), op, draw(var_names), draw(small_ints))
    if shape == "var-const":
        return Atom(draw(var_names), op, draw(small_ints))
    return Atom(draw(small_ints), op, draw(small_ints))


@st.composite
def conjunctions(draw, max_atoms: int = 5) -> Conjunction:
    """Random conjunctions of paper-class atoms."""
    n = draw(st.integers(min_value=0, max_value=max_atoms))
    return Conjunction([draw(atoms()) for _ in range(n)])


two_var_names = st.sampled_from(["x", "y"])


@st.composite
def small_atoms(draw) -> Atom:
    """Atoms over only two variables, for brute-force oracle tests."""
    shape = draw(st.sampled_from(["two-var", "var-const", "ground"]))
    op = draw(ops)
    if shape == "two-var":
        return Atom(draw(two_var_names), op, draw(two_var_names), draw(small_ints))
    if shape == "var-const":
        return Atom(draw(two_var_names), op, draw(small_ints))
    return Atom(draw(small_ints), op, draw(small_ints))


@st.composite
def small_conjunctions(draw, max_atoms: int = 4) -> Conjunction:
    """Conjunctions over ≤2 variables — cheap to brute-force."""
    n = draw(st.integers(min_value=0, max_value=max_atoms))
    return Conjunction([draw(small_atoms()) for _ in range(n)])


def solution_box(conjunction: Conjunction) -> int:
    """A sound enumeration bound for the brute-force oracle.

    If a difference-constraint system is satisfiable over the integers,
    the shortest-path solution's values are bounded by the sum of
    absolute edge weights; each atom contributes at most two edges of
    weight |offset or constant| + 1.
    """
    bound = 1
    for atom in conjunction.atoms:
        weights = [abs(atom.offset) + 1]
        from repro.algebra.conditions import Const

        if isinstance(atom.right, Const):
            weights.append(abs(atom.right.value) + 1)
        if isinstance(atom.left, Const):
            weights.append(abs(atom.left.value) + 1)
        bound += 2 * max(weights)
    return bound


@st.composite
def conditions(draw, max_disjuncts: int = 3, max_atoms: int = 4) -> Condition:
    """Random DNF conditions."""
    n = draw(st.integers(min_value=1, max_value=max_disjuncts))
    return Condition([draw(conjunctions(max_atoms)) for _ in range(n)])


# ----------------------------------------------------------------------
# Whole SPJ views over the simulator's schema
# ----------------------------------------------------------------------

#: The three-table schema the simulation harness runs against — reused
#: here so hypothesis and the simulator generate the same view class.
SPJ_TABLES = BASE_TABLES


@st.composite
def spj_expressions(draw, max_operands: int = 3) -> Expression:
    """Random multi-relation paper-class SPJ views.

    Delegates to :func:`repro.simulation.workload.random_spj_expression`
    through a drawn seed, so hypothesis shrinking works on the seed
    while the view population is byte-identical to the simulator's —
    one generator, two harnesses.
    """
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_spj_expression(random.Random(seed), max_operands=max_operands)


@st.composite
def natural_joins(draw, max_operands: int = 3) -> Expression:
    """Natural joins of two or three of the SPJ_TABLES relations.

    :func:`spj_expressions` joins tables that share no attribute name,
    so every join of its views is a product and the condition carries
    the links.  Here each later operand is renamed so that one or two of
    its attributes take the names of attributes already joined: the
    join itself links them.  An optional atom and projection follow.
    """
    count = draw(st.integers(min_value=2, max_value=max_operands))
    names = draw(st.permutations(sorted(SPJ_TABLES)))[:count]
    expression: Expression = BaseRef(names[0])
    bound = list(SPJ_TABLES[names[0]])
    for name in names[1:]:
        attributes = SPJ_TABLES[name]
        shared = draw(st.integers(min_value=1, max_value=len(attributes)))
        sources = draw(st.permutations(attributes))[:shared]
        targets = draw(st.permutations(bound))[:shared]
        mapping = dict(zip(sources, targets))
        expression = expression.join(BaseRef(name).rename(mapping))
        bound += [a for a in attributes if a not in mapping]
    if draw(st.booleans()):
        attribute = draw(st.sampled_from(bound))
        expression = expression.select(f"{attribute} <= {draw(st.integers(0, 6))}")
    if draw(st.booleans()):
        kept = draw(st.lists(st.sampled_from(bound), min_size=1, unique=True))
        expression = expression.project(kept)
    return expression


@st.composite
def aggregate_expressions(
    draw, max_operands: int = 2, allow_minmax: bool = True
) -> Expression:
    """Random GROUP BY views over random SPJ cores.

    Same seed-delegation trick as :func:`spj_expressions`: hypothesis
    shrinks the seed, :func:`repro.simulation.workload.
    random_aggregate_expression` turns it into the identical view
    population the simulator runs — COUNT/SUM/AVG/MIN/MAX columns over
    a random grouping key (possibly empty, a global aggregate).
    ``allow_minmax=False`` draws the self-maintainable subset the
    base-free hosts accept.
    """
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_aggregate_expression(
        random.Random(seed),
        max_operands=max_operands,
        allow_minmax=allow_minmax,
    )


@st.composite
def update_streams(
    draw,
    max_txns: int = 6,
    max_ops: int = 4,
    value_max: int = 6,
):
    """A random legal update stream over the SPJ_TABLES schema.

    Returns ``(initial_rows, transactions)`` where each transaction is
    a list of ``("ins"|"del", table, row)`` ops.  Deletes only target
    rows live at that point in the stream (initial contents plus
    not-yet-deleted inserts), so every transaction commits — the
    property suites replay the stream through commit/refresh/WAL paths
    without tripping existence checks.
    """
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = random.Random(seed)
    initial = spj_database_rows(rng)
    live: dict[str, list[tuple[int, ...]]] = {
        name: list(rows) for name, rows in initial.items()
    }
    transactions: list[list[tuple[str, str, tuple[int, ...]]]] = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_txns))):
        ops: list[tuple[str, str, tuple[int, ...]]] = []
        for _ in range(rng.randint(1, max_ops)):
            name = rng.choice(sorted(SPJ_TABLES))
            if live[name] and rng.random() < 0.45:
                row = live[name].pop(rng.randrange(len(live[name])))
                ops.append(("del", name, row))
            else:
                row = tuple(
                    rng.randint(0, value_max) for _ in SPJ_TABLES[name]
                )
                if row in live[name]:
                    # Set semantics: a duplicate insert is a no-op, so
                    # don't record it as live twice (its single delete
                    # would otherwise be drawn twice).
                    ops.append(("ins", name, row))
                else:
                    live[name].append(row)
                    ops.append(("ins", name, row))
        transactions.append(ops)
    return initial, transactions


def spj_database_rows(rng: random.Random, rows_per_table: int = 6):
    """Deterministic initial contents for the SPJ_TABLES schema."""
    contents = {}
    for name in sorted(SPJ_TABLES):
        arity = len(SPJ_TABLES[name])
        contents[name] = sorted(
            {tuple(rng.randint(0, 6) for _ in range(arity)) for _ in range(rows_per_table)}
        )
    return contents
