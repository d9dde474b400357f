"""Generated batch kernels for the maintenance hot path.

The reference functions in :mod:`repro.core.planner` and
:mod:`repro.core.irrelevance` dispatch per tuple: every screened tuple
walks condition ASTs, every joined tuple goes through generic step
objects and closure predicates.  Algorithm 4.1 already amortizes the
*planning* work (invariant split, APSP) once per batch; this module
finishes the job in the DBToaster tradition by amortizing the
*dispatch* as well — at plan-compile time each
:class:`~repro.core.compiled.CompiledViewPlan` emits straight-line
Python source, ``compile()``s it once, and thereafter every transaction
runs the generated closures over whole batches:

* **screen kernels** — one per (view, relation-occurrence set): the
  Definition 4.2 invariant/variant split evaluated row by row over a
  delta's two count dicts, with the invariant APSP distances baked into
  the source as integer literals and the variant bounds unrolled into
  ``min``/``max`` expressions plus the O(B²) negative-cycle probes;
* **row kernels** — one per truth-table shape: the Section 5.3 rows
  unrolled, each along its own delta-rooted join order
  (``RowPlanner.chains``), into hash-join loops over the changed
  operands' count dicts and index probes of the OLD ones (a base
  relation's index or an upstream view's own), rows sharing the node
  of every common
  (position, choice) prefix, with equality-link keys, pre/post-filters
  and the paper's tag algebra all inlined (``insert ⊗ delete`` pairs
  dropped in-loop);
* **apply kernels** — one per distinct complete join order of a shape:
  the final DNF re-check, projection and Section 5.2
  multiplicity-counter folding into plain ``dict`` accumulators,
  collapsed to a net view delta by
  :func:`repro.core.counting.net_counts`.

One data format crosses every kernel boundary, in and out: the
``values → count`` dicts a :class:`~repro.algebra.relation.Delta`
already holds (``inserted`` / ``deleted``).

Generated source is a pure function of the plan structure — no
timestamps, no ids, no dict-order dependence — so two compiles of the
same plan emit byte-identical text (the CLI's ``explain <view> source``
determinism check).  Every kernel charges the same instrumentation
counters as the reference function it replaces (in bulk, from the
drivers), and the parity suites hold the two to byte-for-byte agreement
on every view state.

Relation and attribute names are chosen by users and reach generated
text only inside comments, always through :func:`quoted`, so no
identifier can end its comment and start a statement.

One selection remains: a shape whose truth table would unroll past
:data:`MAX_CODEGEN_ROWS` rows (it doubles per changed occurrence, and
so does the memory the unrolled source takes to compile) is executed by
:func:`~repro.core.differential.execute_planner` instead, charging
``codegen_fallback_tuples``; results are identical either way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Collection, Optional, Sequence

from repro.algebra.aggregates import column_plans
from repro.algebra.conditions import Atom, Condition, Var
from repro.algebra.schema import RelationSchema
from repro.algebra.tags import Tag
from repro.core.aggregates import accumulator_slots
from repro.core.graph import INF, ZERO
from repro.core.truthtable import DeltaRowChoice, count_delta_rows
from repro.errors import MaintenanceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.algebra.aggregates import AggregateSpec
    from repro.core.irrelevance import RelevanceFilter
    from repro.core.planner import RowPlanner, StepPlan

ValueTuple = tuple[int, ...]

#: Bumped whenever the shape of the generated source changes; written
#: into the header of every generated kernel source.
#: v2: aggregate fold kernels (group-apply + unrolled renderers).
#: v3: counter-free apply kernels (derived view keys pin counters to 1).
#: v4: every name in a comment is quoted (see :func:`quoted`).
#: v5: kernels read and write ``Delta``'s count dicts directly.
#: v6: a join order per truth-table row; steps numbered per shape.
#: v7: every linked OLD step is an index probe (view operands included).
#: v8: the fold kernel keeps per-group accumulators and renders from them.
#: v9: an OLD probe subscripts a table of bucket lookups and counts itself.
CODEGEN_VERSION = 9

#: Shapes whose truth table exceeds this many rows run on
#: :func:`~repro.core.differential.execute_planner` instead: the
#: unrolled source doubles per changed occurrence (255 rows take 0.3 s
#: and 79 MB to compile, 4 095 rows 11 s and 1 GB).
MAX_CODEGEN_ROWS = 64

_PY_OPS = {"=": "==", "<": "<", ">": ">", "<=": "<=", ">=": ">="}


# ----------------------------------------------------------------------
# Source-emission helpers
# ----------------------------------------------------------------------

def quoted(names: "str | tuple[str, ...] | list[str]") -> str:
    """A name (or a tuple/list of names) as one line of source text.

    The only route by which a user-chosen identifier enters generated
    source: ``repr`` of a string escapes quotes, newlines and every
    non-printable character, so whatever the name holds stays inside
    the comment it was written into.
    """
    return repr(names)


class _Emitter:
    """Tiny indented-source builder."""

    __slots__ = ("lines", "indent")

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0

    def emit(self, line: str = "") -> None:
        if line:
            self.lines.append("    " * self.indent + line)
        else:
            self.lines.append("")

    def skip_if(self, condition: str) -> None:
        """``if <condition>: continue`` at the current indent."""
        self.emit(f"if {condition}:")
        self.emit("    continue")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _atom_expr(atom: Atom, index_of: Callable[[str], int], var: str) -> str:
    """One atom as a Python expression over indexable row ``var``.

    ``index_of`` resolves a variable name to a tuple/column position.
    Canonicalization guarantees a non-ground atom's left term is a
    variable; ground atoms are folded by the planner before this point.
    """
    if atom.is_ground():
        return "True" if atom.truth_value() else "False"
    assert isinstance(atom.left, Var)
    left = f"{var}[{index_of(atom.left.name)}]"
    op = _PY_OPS[atom.op]
    if isinstance(atom.right, Var):
        right = f"{var}[{index_of(atom.right.name)}]"
        if atom.offset:
            right = f"{right} + {atom.offset}" if atom.offset > 0 else (
                f"{right} - {-atom.offset}"
            )
    else:
        right = str(atom.right.value + atom.offset)
    return f"{left} {op} {right}"


def _conjunction_expr(
    atoms: Sequence[Atom], index_of: Callable[[str], int], var: str
) -> str:
    if not atoms:
        return "True"
    return " and ".join(f"({_atom_expr(a, index_of, var)})" for a in atoms)


def _condition_expr(
    condition: Condition, index_of: Callable[[str], int], var: str
) -> str:
    """A DNF condition as one Python expression over row ``var``."""
    if condition.is_true():
        return "True"
    if condition.is_false():
        return "False"
    return " or ".join(
        f"({_conjunction_expr(d.atoms, index_of, var)})"
        for d in condition.disjuncts
    )


# ----------------------------------------------------------------------
# Screen kernels (Section 4 over a delta's count dicts)
# ----------------------------------------------------------------------

def generate_screen_source(
    relation_name: str,
    relevance_filter: "RelevanceFilter",
    schema: RelationSchema,
    statically_irrelevant: bool = False,
) -> str:
    """Emit the batch screen kernel for one participating relation.

    The generated ``screen_kernel(inserted, deleted)`` returns
    ``(kept_inserted, kept_deleted, ground_evals, bound_probes)``: the
    relevant entries of each count dict, in order, and the tallies the
    driver charges to the reference filter's per-tuple counters in bulk.
    Structure per tuple, mirroring ``RelevanceFilter._decide`` exactly:
    one block per live (occurrence, disjunct) screen, variant-evaluable
    atoms as nested short-circuit tests, variant bounds as ``min``/
    ``max`` folds, and the negative-cycle probe pairs unrolled with the
    invariant APSP distances baked in as integer literals (pairs whose
    invariant path is unreachable are omitted at generation time).
    """
    out = _Emitter()
    out.emit(f"# screen kernel: relation {quoted(relation_name)}")
    if statically_irrelevant:
        # The Theorem 4.1 static proof is baked into the source: the
        # kernel body is the proof's conclusion.  Constraint DDL
        # invalidates the whole plan, regenerating this file.
        out.emit("# statically irrelevant under the declared constraint:")
        out.emit("# every legal update is dropped with no per-tuple work")
        out.emit("def screen_kernel(inserted, deleted):")
        out.indent += 1
        out.emit("return {}, {}, 0, 0")
        return out.source()
    if relevance_filter._always_relevant:
        out.emit("# condition has an empty disjunct (constant TRUE):")
        out.emit("# every update is relevant, no screening possible")
        out.emit("def screen_kernel(inserted, deleted):")
        out.indent += 1
        out.emit("return inserted, deleted, 0, 0")
        return out.source()

    screens = relevance_filter._screens
    out.emit("def screen_kernel(inserted, deleted):")
    out.indent += 1
    if not screens:
        out.emit("# every disjunct's invariant part is unsatisfiable:")
        out.emit("# all updates screened out")
        out.emit("return {}, {}, 0, 0")
        return out.source()

    out.emit("ki = {}")
    out.emit("kd = {}")
    out.emit("ge = 0")
    out.emit("bp = 0")
    out.emit("for src, kept in ((inserted, ki), (deleted, kd)):")
    out.indent += 1
    out.emit("for v, c in src.items():")
    out.indent += 1
    base_indent = out.indent
    for screen_index, screen in enumerate(screens):
        occurrence = screen.occurrence
        out.indent = base_indent
        out.emit(
            f"# screen {screen_index}: occurrence "
            f"{quoted(occurrence.name)}#{occurrence.position}"
        )

        def col_expr(qualified: str, _occ=occurrence) -> str:
            return f"v[{schema.index(_occ.inverse[qualified])}]"

        # Variant evaluable atoms: nested short-circuit so the per-atom
        # ground-eval counter matches the reference filter's early exit.
        for atom in screen.variant_evaluable:
            expr = _substituted_ground_expr(atom, col_expr)
            out.emit("ge += 1")
            out.emit(f"if {expr}:")
            out.indent += 1
        out.emit("bp += 1")
        probes = _bound_probe_exprs(screen, col_expr, out)
        if probes:
            joined = " or ".join(probes)
            out.emit(f"if not ({joined}):")
            out.indent += 1
        out.emit("kept[v] = c")
        out.emit("continue")
    out.indent = base_indent - 2
    out.emit("return ki, kd, ge, bp")
    return out.source()


def _substituted_ground_expr(
    atom: Atom, col_expr: Callable[[str], str]
) -> str:
    """A variant-evaluable atom as an expression over the row's cells."""
    op = _PY_OPS[atom.op]
    assert isinstance(atom.left, Var)
    left = col_expr(atom.left.name)
    if isinstance(atom.right, Var):
        right = col_expr(atom.right.name)
        if atom.offset > 0:
            right = f"{right} + {atom.offset}"
        elif atom.offset < 0:
            right = f"{right} - {-atom.offset}"
    else:
        right = str(atom.right.value + atom.offset)
    return f"{left} {op} {right}"


def _bound_probe_exprs(
    screen, col_expr: Callable[[str], str], out: _Emitter
) -> list[str]:
    """Emit tightest-bound folds; return the negative-cycle probe exprs.

    Reproduces ``_DisjunctScreen.admits``: each variant non-evaluable
    atom contributes an upper (``x ≤ e``) or lower (``x ≥ e``) bound
    whose constant is a cell expression; discrete-domain
    normalization (``<`` → ``≤ e−1``, ``>`` → ``≥ e+1``, ``=`` → both)
    is applied symbolically here, and the probe pairs are unrolled with
    the APSP entries as literals.
    """
    uppers: dict[str, list[str]] = {}
    lowers: dict[str, list[str]] = {}
    order: list[str] = []
    for atom in screen.variant_non_evaluable:
        assert isinstance(atom.left, Var) and isinstance(atom.right, Var)
        x, y = atom.left.name, atom.right.name
        substituted_left = _is_substituted(screen, x)
        if substituted_left:
            # Const(vx) op y + c mirrors to y mirror(op) (vx - c).
            free = y
            op = {"=": "=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}[
                atom.op
            ]
            base = col_expr(x)
            shift = -atom.offset
        else:
            free = x
            op = atom.op
            base = col_expr(y)
            shift = atom.offset
        if free not in order:
            order.append(free)
        if op in ("<=", "<"):
            expr = _shifted(base, shift - (1 if op == "<" else 0))
            uppers.setdefault(free, []).append(expr)
        elif op in (">=", ">"):
            expr = _shifted(base, shift + (1 if op == ">" else 0))
            lowers.setdefault(free, []).append(expr)
        else:  # "=": both bounds
            uppers.setdefault(free, []).append(_shifted(base, shift))
            lowers.setdefault(free, []).append(_shifted(base, shift))

    lower_items: list[tuple[str, str]] = []
    upper_items: list[tuple[str, str]] = []
    for var_index, free in enumerate(order):
        if free in lowers:
            name = f"l{var_index}"
            out.emit(f"{name} = {_fold('max', lowers[free])}")
            lower_items.append((free, name))
        if free in uppers:
            name = f"u{var_index}"
            out.emit(f"{name} = {_fold('min', uppers[free])}")
            upper_items.append((free, name))
    lower_items.append((ZERO, "0"))
    upper_items.append((ZERO, "0"))

    dist = screen.dist
    probes: list[str] = []
    for y, cl in lower_items:
        for x, cu in upper_items:
            if y == ZERO and x == ZERO:
                continue
            path = dist[y][x]
            if path == INF:
                continue
            probes.append(f"(-({cl}) + {int(path)} + {cu} < 0)")
    return probes


def _is_substituted(screen, name: str) -> bool:
    return name in screen.occurrence.inverse


def _shifted(base: str, shift: int) -> str:
    if shift > 0:
        return f"{base} + {shift}"
    if shift < 0:
        return f"{base} - {-shift}"
    return base


def _fold(func: str, exprs: list[str]) -> str:
    if len(exprs) == 1:
        return exprs[0]
    return f"{func}({', '.join(exprs)})"


# ----------------------------------------------------------------------
# Row + apply kernels (Section 5.3 over one truth-table shape)
# ----------------------------------------------------------------------

def generate_shape_source(
    planner: "RowPlanner",
    counter_free: bool = False,
    bag_operands: Collection[str] = (),
) -> str:
    """Emit the row kernel + apply kernels for one truth-table shape.

    The row kernel ``row_kernel(deltas, old, index_for)`` unrolls
    ``planner.chains``: each row's own join order, one named list per
    distinct (position, choice) prefix, so rows whose orders begin
    alike share the node — exactly the prefixes the reference planner
    memoizes.  ``deltas[p]`` is the
    :class:`~repro.algebra.relation.Delta` of changed occurrence ``p``
    — its ``inserted``/``deleted`` dicts are the DELTA operand —
    ``old(p)`` the live post-commit count map of occurrence ``p``, and
    ``index_for[s]`` the bucket lookup (:attr:`~repro.algebra.relation.
    HashIndex.lookup`) of the hash index bound to the OLD probe of
    distinct step ``s`` (``StepPlan.number``).  Every OLD operand joined
    through equality links is answered by that lookup and nothing else,
    ``ix(k, NO_ROWS)`` per parent row; the kernel counts those probes
    itself.
    The index holds the post-commit operand and OLD means ``r − d_r``,
    so a changed base operand (a set) drops this transaction's inserts
    from each bucket, and an operand named in ``bag_operands`` — an
    upstream view, whose tuples carry Section 5.2 counters — takes each
    multiplicity from ``old(p)`` less the inserted copies (``count −
    inserted.get(values, 0) > 0``, exactly
    :func:`repro.core.differential._old_operand`); which of the two a
    step emits is decided here, at generation time.  A DELTA operand,
    or an OLD one no link reaches (a cross join), is hashed: one table
    per (distinct step, choice) — mirroring the reference planner's
    ``hash_cache`` — built lazily behind a ``None`` guard so an operand
    never reached because its accumulator is empty is never scanned.
    The kernel returns ``(ins, dele, tuples_scanned, join_probes,
    tuples_emitted, tuples_ignored, index_probes)``.

    Names follow the steps' numbers, which count distinct steps in
    first-use order: the table of step ``s`` is ``h_{s}_{CHOICE}``, a
    node is ``n_`` plus its prefix's choice letters, and the apply
    kernel of a complete order is ``apply_kernel`` — each of the last
    two suffixed ``_{s}`` with its last step's number unless that is
    the node's depth, which holds exactly along row 0's order.  A shape
    whose rows all share one order therefore reads as it did when the
    order was the shape's.

    There is one apply kernel per distinct complete order: it folds
    each completed row through the final DNF re-check, the projection
    and the Section 5.2 counter accumulators, and the first two read
    positions of the joined row, whose layout is the order's.

    With ``counter_free`` (sound only when a derived view key proves
    every view row has multiplicity ≤ 1 — see
    :func:`repro.analysis.dependencies.derive_view_key`) the apply
    kernel pins each accumulator entry to one instead of summing
    multiplicities: the counts carry no information, so the
    ``get``-then-add round trip per emitted row is dropped.  The final
    :func:`~repro.core.counting.net_counts` pass still runs — one
    transaction may legitimately delete a view row and re-insert it.
    """
    nf = planner.normal_form
    chains = planner.chains
    out = _Emitter()
    names = [occ.name for occ in nf.occurrences]
    bags = frozenset(
        occ.position for occ in nf.occurrences if occ.name in bag_operands
    )
    out.emit(
        "# row kernel: shape "
        + quoted(tuple(names[i] for i in planner.changed))
        + f" of view over {quoted(names)}"
    )
    for row_index, row in enumerate(chains):
        out.emit(f"# row {row_index}: {planner.describe_chain(row, quoted)}")
    if counter_free:
        out.emit(
            "# counter-free: a derived view key proves multiplicity <= 1;"
        )
        out.emit("# the apply kernel pins every counter to one")

    apply_kernels: set[str] = set()
    for chain in chains.values():
        name = _numbered("apply_kernel", chain)
        if name not in apply_kernels:
            apply_kernels.add(name)
            _emit_apply_kernel(out, planner, chain, name, counter_free)
            out.emit()
    out.emit("def row_kernel(deltas, old, index_for):")
    out.indent += 1
    out.emit("ins = {}")
    out.emit("dele = {}")
    if planner.always_empty:
        out.emit("# a shared ground atom is false: no row can contribute")
        out.emit("return ins, dele, 0, 0, 0, 0, 0")
        return out.source()
    out.emit("ts = 0")
    out.emit("jp = 0")
    out.emit("te = 0")
    out.emit("ti = 0")
    out.emit("ip = 0")
    for p in planner.changed:
        out.emit(f"i{p} = deltas[{p}].inserted")
        out.emit(f"d{p} = deltas[{p}].deleted")

    # One hash table per joined (distinct step, choice) that no index
    # answers: DELTA operands and link-less OLD ones.
    hash_nodes = {
        (step.number, row[step.position])
        for row, chain in chains.items()
        for step in chain[1:]
        if not _probes_index(step, row[step.position])
    }
    for number, choice in sorted(
        hash_nodes, key=lambda item: (item[0], item[1].value)
    ):
        out.emit(f"h_{number}_{choice.name} = None")

    emitted: set[str] = set()
    for row_index, (row, chain) in enumerate(chains.items()):
        out.emit(f"# row {row_index}")
        parent = ""
        sig = ""
        for depth, step in enumerate(chain):
            choice = row[step.position]
            sig += "D" if choice is DeltaRowChoice.DELTA else "O"
            node = _numbered(f"n_{sig}", chain[: depth + 1])
            if node not in emitted:
                if depth == 0:
                    _emit_first_operand(out, planner, node, step, choice)
                else:
                    _emit_join_node(
                        out, planner, node, parent, step, choice, step.position in bags
                    )
                emitted.add(node)
            parent = node
        out.emit(f"{_numbered('apply_kernel', chain)}({parent}, ins, dele)")
    out.emit("return ins, dele, ts, jp, te, ti, ip")
    return out.source()


def _numbered(name: str, chain: Sequence["StepPlan"]) -> str:
    """``name`` for the (prefix of a) chain: suffixed with its last
    step's number unless that number is the depth (row 0's order)."""
    number = chain[-1].number
    return name if number == len(chain) - 1 else f"{name}_{number}"


def _emit_apply_kernel(
    out: _Emitter,
    planner: "RowPlanner",
    chain: Sequence["StepPlan"],
    name: str,
    counter_free: bool,
) -> None:
    final_schema = chain[-1].acc_schema
    _, positions = planner.finish_of(chain)
    key = _key_tuple_expr(positions, "v")
    out.emit(f"def {name}(rows, ins, dele):")
    out.indent += 1
    out.emit("for v, t, c in rows:")
    out.indent += 1
    if planner.needs_final_filter:
        expr = _condition_expr(
            planner.normal_form.condition, final_schema.index, "v"
        )
        out.skip_if(f"not ({expr})")
    out.emit(f"k = {key}")
    out.emit("if t is T_I:")
    out.indent += 1
    if counter_free:
        out.emit("ins[k] = 1")
    else:
        out.emit("ins[k] = ins.get(k, 0) + c")
    out.indent -= 1
    out.emit("elif t is T_D:")
    out.indent += 1
    if counter_free:
        out.emit("dele[k] = 1")
    else:
        out.emit("dele[k] = dele.get(k, 0) + c")
    out.indent -= 2
    out.indent -= 1


def _emit_scan(
    out: _Emitter, planner: "RowPlanner", step: "StepPlan", choice: DeltaRowChoice
) -> int:
    """Open the loop binding ``bv, bt, bc`` over one operand's tuples.

    Tallies ``tuples_scanned`` as the reference planner does (every
    operand tuple, before the prefilter) and skips prefiltered tuples;
    the caller emits the loop body, then closes the returned number of
    indent levels.
    """
    p = step.position
    if choice is DeltaRowChoice.DELTA:
        out.emit(f"ts += len(i{p}) + len(d{p})")
        out.emit(f"for src, bt in ((i{p}, T_I), (d{p}, T_D)):")
        out.indent += 1
        out.emit("for bv, bc in src.items():")
        out.indent += 1
        depth = 2
    else:
        out.emit("bt = T_O")
        if p in planner.changed:
            # r − d_r from the post-state: inserted copies are not OLD.
            out.emit(f"for bv, bc in old({p}).items():")
            out.indent += 1
            out.emit(f"bc -= i{p}.get(bv, 0)")
            out.skip_if("bc <= 0")
            out.emit("ts += 1")
        else:
            out.emit(f"src = old({p})")
            out.emit("ts += len(src)")
            out.emit("for bv, bc in src.items():")
            out.indent += 1
        depth = 1
    prefilter = _prefilter_expr(step, "bv")
    if prefilter is not None:
        out.skip_if(f"not ({prefilter})")
    return depth


def _emit_first_operand(
    out: _Emitter,
    planner: "RowPlanner",
    node: str,
    step: "StepPlan",
    choice: DeltaRowChoice,
) -> None:
    out.emit(f"{node} = []")
    out.emit(f"{node}_append = {node}.append")
    depth = _emit_scan(out, planner, step, choice)
    out.emit(f"{node}_append((bv, bt, bc))")
    out.indent -= depth


def _probes_index(step: "StepPlan", choice: DeltaRowChoice) -> bool:
    """Whether a joined step is an index probe (else a hash join)."""
    return choice is DeltaRowChoice.OLD and bool(step.link_attr_names)


def _emit_join_node(
    out: _Emitter,
    planner: "RowPlanner",
    node: str,
    parent: str,
    step: "StepPlan",
    choice: DeltaRowChoice,
    bag: bool,
) -> None:
    key_expr = _probe_key_expr(step)
    out.emit(f"{node} = []")
    out.emit(f"if {parent}:")
    out.indent += 1
    out.emit(f"{node}_append = {node}.append")
    if _probes_index(step, choice):
        _emit_probe_loop(out, planner, node, parent, step, key_expr, bag)
    else:
        _emit_hash_join(out, planner, node, parent, step, choice, key_expr)
    out.indent -= 1


def _emit_probe_loop(
    out: _Emitter,
    planner: "RowPlanner",
    node: str,
    parent: str,
    step: "StepPlan",
    key_expr: str,
    bag: bool,
) -> None:
    """An OLD operand answered from its persistent hash index.

    Indexes hold the distinct tuples of the post-commit operand.  A base
    operand is a set: count one, and a changed one's probe results drop
    this transaction's inserts.  A ``bag`` operand (an upstream view)
    reads each tuple's count from the live count map, less the copies
    this transaction inserted.  Every parent row is one join probe and
    one index probe, both counted in bulk.
    """
    p = step.position
    prefilter = _prefilter_expr(step, "bv")
    out.emit(f"ix = index_for[{step.number}]")
    if bag:
        out.emit(f"counts = old({p})")
    else:
        out.emit("bc = 1")
    out.emit(f"jp += len({parent})")
    out.emit(f"ip += len({parent})")
    out.emit(f"for av, at, ac in {parent}:")
    out.indent += 1
    out.emit(f"k = {key_expr}")
    out.emit("for bv in ix(k, NO_ROWS):")
    out.indent += 1
    if bag and p in planner.changed:
        out.emit(f"bc = counts[bv] - i{p}.get(bv, 0)")
        out.skip_if("bc <= 0")
    elif bag:
        out.emit("bc = counts[bv]")
    elif p in planner.changed:
        out.skip_if(f"bv in i{p}")
    if prefilter is not None:
        out.skip_if(f"not ({prefilter})")
    _emit_combine_emit(out, node, step, probed=True)
    out.indent -= 2


def _emit_hash_join(
    out: _Emitter,
    planner: "RowPlanner",
    node: str,
    parent: str,
    step: "StepPlan",
    choice: DeltaRowChoice,
    key_expr: str,
) -> None:
    table = f"h_{step.number}_{choice.name}"
    build_key = _key_tuple_expr(step.operand_key_positions, "bv")
    out.emit(f"if {table} is None:")
    out.indent += 1
    out.emit(f"{table} = {{}}")
    depth = _emit_scan(out, planner, step, choice)
    out.emit(f"bk = {build_key}")
    out.emit(f"bucket = {table}.get(bk)")
    out.emit("if bucket is None:")
    out.indent += 1
    out.emit(f"{table}[bk] = [(bv, bt, bc)]")
    out.indent -= 1
    out.emit("else:")
    out.indent += 1
    out.emit("bucket.append((bv, bt, bc))")
    out.indent -= 1
    out.indent -= depth
    out.indent -= 1
    out.emit(f"for av, at, ac in {parent}:")
    out.indent += 1
    out.emit("jp += 1")
    out.emit(f"k = {key_expr}")
    out.emit(f"bucket = {table}.get(k)")
    out.emit("if bucket is not None:")
    out.indent += 1
    out.emit("for bv, bt, bc in bucket:")
    out.indent += 1
    _emit_combine_emit(out, node, step, probed=False)
    out.indent -= 3


def _emit_combine_emit(
    out: _Emitter, node: str, step: "StepPlan", probed: bool
) -> None:
    """Tag algebra + postfilter + emit, shared by both join paths.  A
    ``probed`` operand is OLD by construction, so the joined row keeps
    the parent's tag; a hashed one may be a DELTA operand."""
    if probed:
        out.emit("t = at")
    else:
        out.emit("if at is T_O:")
        out.emit("    t = bt")
        out.emit("elif bt is T_O:")
        out.emit("    t = at")
        out.emit("elif at is bt:")
        out.emit("    t = at")
        out.emit("else:")
        out.emit("    ti += 1")
        out.emit("    continue")
    out.emit("rv = av + bv")
    postfilter = _postfilter_expr(step, "rv")
    if postfilter is not None:
        out.skip_if(f"not ({postfilter})")
    out.emit("te += 1")
    out.emit(f"{node}_append((rv, t, ac * bc))")


def _probe_key_expr(step) -> str:
    parts = []
    for pos, _, shift in step.eq_links:
        parts.append(_shifted(f"av[{pos}]", shift))
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


def _prefilter_expr(step, var: str) -> Optional[str]:
    atoms = step.prefilter_atoms
    if not atoms:
        return None
    return _conjunction_expr(atoms, step.operand_schema.index, var)


def _postfilter_expr(step, var: str) -> Optional[str]:
    atoms = step.postfilter_atoms
    if not atoms:
        return None
    return _conjunction_expr(atoms, step.acc_schema.index, var)


# ----------------------------------------------------------------------
# Aggregate fold kernels (group-apply over core deltas)
# ----------------------------------------------------------------------

def _key_tuple_expr(positions: Sequence[int], var: str) -> str:
    """``(v[i], v[j],)`` for the grouping-key positions (``()`` if none)."""
    if not positions:
        return "()"
    inner = ", ".join(f"{var}[{p}]" for p in positions)
    return "(" + inner + ("," if len(positions) == 1 else "") + ")"


def generate_aggregate_source(
    spec: "AggregateSpec", core_schema: RelationSchema
) -> str:
    """Emit the fold kernel for one aggregate view.

    ``fold_kernel(groups, accs, ins, dele)`` applies one core delta to
    the support bags *and* the per-group accumulator lists (layout:
    :func:`~repro.core.aggregates.accumulator_slots`), and renders each
    touched group's row on both sides of the mutation from its
    accumulators — O(columns) per group, so the whole fold is
    proportional to the delta.  A bag is iterated in one place only:
    when a delete removed a core row carrying the group's current
    MIN/MAX, the group's extrema are recomputed from the surviving bag,
    once per such group per fold.

    Every delete is checked against its bag before the first mutation
    (the delta is netted, so the pre-state is what counts); an
    underflow returns the offending core row in the last slot with
    nothing changed.  Otherwise the kernel returns ``(inserted,
    deleted, touched, rescanned, None)`` — the visible delta's two
    count dicts (touched groups in delta order, inserts first; a changed
    group contributes its old row out and its new row in), the number
    of touched groups and the bag rows rescanned; the driver
    (:meth:`~repro.core.compiled.CompiledViewPlan.fold_aggregate`)
    charges the counters.  The reference it is held to, cell for cell
    and in dict order, is :meth:`repro.core.aggregates.AggregateState.fold`,
    which renders from the bags instead.
    """
    positions = core_schema.positions(spec.keys)
    plans = column_plans(spec, core_schema)
    slots = accumulator_slots(plans)
    cells = [f"k[{i}]" for i in range(len(positions))]
    for func, p in plans:
        if func == "count":
            cells.append("a[0]")
        elif func == "avg":
            cells.append(f"a[{slots.index(('sum', p))}] // a[0]")
        else:
            cells.append(f"a[{slots.index((func, p))}]")
    row = "(" + ", ".join(cells) + ("," if len(cells) == 1 else "") + ")"
    extrema = [
        (i, func, p) for i, (func, p) in enumerate(slots) if func in ("min", "max")
    ]
    key = _key_tuple_expr(positions, "v")

    out = _Emitter()
    out.emit(f"# aggregate kernel: {quoted(str(spec))}")
    out.emit(f"# core row layout: {quoted(tuple(core_schema.names))}")
    out.emit(f"# accumulators per group: {quoted([f for f, _ in slots])}")
    out.emit()
    out.emit("def fold_kernel(groups, accs, ins, dele):")
    out.indent += 1
    out.emit("for v, c in dele.items():")
    out.indent += 1
    out.emit(f"bag = groups.get({key})")
    out.emit("if bag is None or bag.get(v, 0) < c:")
    out.emit("    return {}, {}, 0, 0, v")
    out.indent -= 1
    # A group's before-row is rendered the first time a delta row
    # reaches it, ahead of that row's own update: inserts run first, so
    # ``before`` keeps the reference fold's touched order.
    out.emit("before = {}")
    out.emit("for v, c in ins.items():")
    out.indent += 1
    out.emit(f"k = {key}")
    out.emit("a = accs.get(k)")
    out.emit("if k not in before:")
    out.emit(f"    before[k] = None if a is None else {row}")
    out.emit("if a is None:")
    out.indent += 1
    out.emit("groups[k] = {v: c}")
    fresh = ", ".join(
        "c" if func == "count" else f"v[{p}] * c" if func == "sum" else f"v[{p}]"
        for func, p in slots
    )
    out.emit(f"accs[k] = [{fresh}]")
    out.indent -= 1
    out.emit("else:")
    out.indent += 1
    out.emit("bag = groups[k]")
    out.emit("bag[v] = bag.get(v, 0) + c")
    for i, (func, p) in enumerate(slots):
        if func == "count":
            out.emit("a[0] += c")
        elif func == "sum":
            out.emit(f"a[{i}] += v[{p}] * c")
        else:
            out.emit(f"if v[{p}] {'<' if func == 'min' else '>'} a[{i}]:")
            out.emit(f"    a[{i}] = v[{p}]")
    out.indent -= 2
    if extrema:
        out.emit("stale = {}")
    out.emit("for v, c in dele.items():")
    out.indent += 1
    out.emit(f"k = {key}")
    out.emit("bag = groups[k]")
    out.emit("a = accs[k]")
    out.emit("if k not in before:")
    out.emit(f"    before[k] = {row}")
    for i, (func, p) in enumerate(slots):
        if func == "count":
            out.emit("a[0] -= c")
        elif func == "sum":
            out.emit(f"a[{i}] -= v[{p}] * c")
    out.emit("n = bag[v] - c")
    out.emit("if n:")
    out.indent += 1
    out.emit("bag[v] = n")
    out.indent -= 1
    out.emit("else:")
    out.indent += 1
    out.emit("del bag[v]")
    out.emit("if not bag:")
    out.indent += 1
    out.emit("del groups[k]")
    out.emit("del accs[k]")
    out.indent -= 1
    if extrema:
        carried = " or ".join(f"v[{p}] == a[{i}]" for i, _, p in extrema)
        out.emit(f"elif {carried}:")
        out.emit("    stale[k] = a")
    out.indent -= 2
    if extrema:
        # The extremum-exhaustion branch: the only place a bag is
        # iterated.  A stale group that went on to vanish (a[0] == 0)
        # has no bag left to scan.
        out.emit("rescanned = 0")
        out.emit("for k, a in stale.items():")
        out.indent += 1
        out.emit("if a[0]:")
        out.indent += 1
        out.emit("bag = groups[k]")
        out.emit("rescanned += len(bag)")
        for i, func, p in extrema:
            out.emit(f"a[{i}] = {func}(v[{p}] for v in bag)")
        out.indent -= 2
    out.emit("inserted = {}")
    out.emit("deleted = {}")
    out.emit("for k, old in before.items():")
    out.indent += 1
    out.emit("a = accs.get(k)")
    out.emit(f"new = None if a is None else {row}")
    out.emit("if old != new:")
    out.indent += 1
    out.emit("if old is not None:")
    out.emit("    deleted[old] = 1")
    out.emit("if new is not None:")
    out.emit("    inserted[new] = 1")
    out.indent -= 2
    out.emit(
        "return inserted, deleted, len(before), "
        f"{'rescanned' if extrema else '0'}, None"
    )
    return out.source()


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------

#: Constants available to every generated kernel.  This is the entire
#: ambient namespace — generated source may not reach anything else,
#: which is what keeps kernels deterministic and side-effect-free.
_KERNEL_GLOBALS = {
    "__builtins__": {
        "len": len,
        "min": min,
        "max": max,
    },
    "T_O": Tag.OLD,
    "T_I": Tag.INSERT,
    "T_D": Tag.DELETE,
    #: What an index lookup answers for a key no row carries.
    "NO_ROWS": frozenset(),
}

ScreenKernel = Callable[[dict, dict], tuple[dict, dict, int, int]]
RowKernel = Callable[..., tuple[dict, dict, int, int, int, int, int]]
AggregateKernel = Callable[
    [dict, dict, dict, dict], tuple[dict, dict, int, int, object]
]


def compile_kernel(source: str, name: str, filename: str) -> Callable:
    """``compile()`` + ``exec`` one generated module; return ``name``.

    ``filename`` shows up in tracebacks (``<codegen:view:kind>``) so a
    bug in generated code is attributable to its generator.
    """
    namespace: dict = dict(_KERNEL_GLOBALS)
    try:
        code = compile(source, filename, "exec")
        exec(code, namespace)  # noqa: S102 - the codegen seam
    except SyntaxError as exc:  # pragma: no cover - generator bug
        raise MaintenanceError(
            f"generated kernel {filename} failed to compile: {exc}\n{source}"
        ) from exc
    kernel = namespace.get(name)
    if kernel is None:  # pragma: no cover - generator bug
        raise MaintenanceError(
            f"generated module {filename} defines no {name!r}"
        )
    return kernel


class ShapeKernels:
    """The compiled row + apply kernels for one truth-table shape."""

    __slots__ = ("source", "row_kernel", "rows_evaluated", "memo_hits")

    def __init__(
        self,
        source: str,
        row_kernel: RowKernel,
        rows_evaluated: int,
        memo_hits: int,
    ) -> None:
        self.source = source
        self.row_kernel = row_kernel
        #: Rows this shape charges per execution (0 when the planner is
        #: statically empty, mirroring the reference planner's early
        #: return).
        self.rows_evaluated = rows_evaluated
        #: ``subexpression_memo_hits`` the reference planner charges
        #: per execution.  The memo holds every prefix of each
        #: evaluated row, so a row scores exactly one hit iff an
        #: earlier row's order opens with the same (position, choice) —
        #: a compile-time constant of the shape (0 for a statically
        #: empty plan).
        self.memo_hits = memo_hits

    def __repr__(self) -> str:
        return f"<ShapeKernels {self.rows_evaluated} rows>"


def compile_shape_kernels(
    planner: "RowPlanner",
    view_name: str,
    counter_free: bool = False,
    bag_operands: Collection[str] = (),
) -> ShapeKernels | None:
    """Generate + compile one shape's kernels; None triggers fallback."""
    if count_delta_rows(len(planner.changed)) > MAX_CODEGEN_ROWS:
        return None
    source = generate_shape_source(planner, counter_free, bag_operands)
    shape_tag = "".join(str(p) for p in planner.changed)
    kernel = compile_kernel(
        source, "row_kernel", f"<codegen:{view_name}:shape{shape_tag}>"
    )
    if planner.always_empty:
        rows_evaluated = memo_hits = 0
    else:
        chains = planner.chains
        rows_evaluated = len(chains)
        memo_hits = len(chains) - len(
            {(chain[0].position, row[chain[0].position])
             for row, chain in chains.items()}
        )
    return ShapeKernels(source, kernel, rows_evaluated, memo_hits)
