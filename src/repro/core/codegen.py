"""Generated batch kernels for the maintenance hot path.

The per-tuple statement of the paper's algorithms — the test reference
in ``tests/reference.py`` — dispatches per tuple: every screened tuple
walks condition ASTs, every joined tuple goes through generic step
objects and closure predicates.  Algorithm 4.1 already amortizes the
*planning* work (invariant split, APSP) once per batch; this module
finishes the job in the DBToaster tradition by amortizing the
*dispatch* as well — at plan-compile time each
:class:`~repro.core.compiled.CompiledViewPlan` emits straight-line
Python source, ``compile()``s it once — once per distinct program, so
views of one shape share the compiled code (:func:`compile_kernel`) —
and thereafter every transaction runs the generated closures over
whole batches:

* **screen kernels** — one per (view, relation-occurrence set): the
  Definition 4.2 invariant/variant split evaluated row by row over a
  delta's two count dicts, with the invariant APSP distances baked into
  the source as integer literals and the variant bounds unrolled into
  ``min``/``max`` expressions plus the O(B²) negative-cycle probes;
* **row kernels** — one per truth-table shape: the ops the planner
  lowered the shape to (:class:`~repro.core.planner.ShapeOps`, one
  node per distinct (position, choice) prefix of the rows' delta-rooted
  join orders) unrolled into hash-join loops over the changed operands'
  count dicts and index probes of the OLD ones (a base relation's index
  or an upstream view's own), with equality-link keys, pre/post-filters
  and the paper's tag algebra all inlined (``insert ⊗ delete`` pairs
  dropped in-loop);
* **apply kernels** — one per finish (distinct complete join order):
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
determinism check; ``tools/kernel_digest.py`` pins the text of a corpus
to :data:`CODEGEN_VERSION`).  Every kernel charges the same
instrumentation counters as the reference does per tuple (in bulk, from
the drivers), and the parity suites hold the two to byte-for-byte
agreement on every view state.

Relation and attribute names are chosen by users and reach generated
text only inside comments, always through :func:`quoted`, so no
identifier can end its comment and start a statement.

Every shape runs on kernels, however wide: a truth table past
:data:`MAX_CODEGEN_ROWS` rows is emitted and compiled as row kernels of
at most that many rows each, which ``row_kernel`` calls in sequence.
"""

from __future__ import annotations

import functools
import re
from types import CodeType
from typing import TYPE_CHECKING, Callable, Sequence

from repro.algebra.aggregates import column_plans
from repro.algebra.conditions import Atom, Condition, Var
from repro.algebra.schema import RelationSchema
from repro.algebra.tags import Tag
from repro.core.aggregates import accumulator_slots
from repro.core.graph import INF, ZERO
from repro.core.planner import Access
from repro.errors import MaintenanceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.algebra.aggregates import AggregateSpec
    from repro.core.irrelevance import RelevanceFilter
    from repro.core.planner import Finish, Node, ShapeOps, StepPlan

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
#: (Compiling once per distinct program left the text byte-identical,
#: so it kept v9.)
CODEGEN_VERSION = 9

#: The most truth-table rows one compiled module unrolls; a larger
#: shape is several such modules.  Unrolled in one module, the source
#: doubles per changed occurrence, and so does what compiling it takes
#: (255 rows 0.3 s and 79 MB, 4 095 rows 11 s and 1 GB).
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


def _cells(schema: RelationSchema, var: str) -> Callable[[str], str]:
    """Renders a variable as its cell of row ``var``, laid out as ``schema``."""
    return lambda name: f"{var}[{schema.index(name)}]"


def _atom_expr(atom: Atom, cell: Callable[[str], str]) -> str:
    """One atom as a Python expression; ``cell`` renders a variable.

    Canonicalization guarantees a non-ground atom's left term is a
    variable; ground atoms are folded by the planner before this point.
    """
    if atom.is_ground():
        return "True" if atom.truth_value() else "False"
    assert isinstance(atom.left, Var)
    if isinstance(atom.right, Var):
        right = _shifted(cell(atom.right.name), atom.offset)
    else:
        right = str(atom.right.value + atom.offset)
    return f"{cell(atom.left.name)} {_PY_OPS[atom.op]} {right}"


def _conjunction_expr(atoms: Sequence[Atom], cell: Callable[[str], str]) -> str:
    if not atoms:
        return "True"
    return " and ".join(f"({_atom_expr(a, cell)})" for a in atoms)


def _condition_expr(condition: Condition, cell: Callable[[str], str]) -> str:
    """A DNF condition as one Python expression."""
    if condition.is_true():
        return "True"
    if condition.is_false():
        return "False"
    return " or ".join(
        f"({_conjunction_expr(d.atoms, cell)})" for d in condition.disjuncts
    )


def _skip_unless(
    out: _Emitter, atoms: Sequence[Atom], schema: RelationSchema, var: str
) -> None:
    """Skip row ``var`` unless it satisfies ``atoms`` (if any)."""
    if atoms:
        out.skip_if(f"not ({_conjunction_expr(atoms, _cells(schema, var))})")


# ----------------------------------------------------------------------
# Screen kernels (Section 4 over a delta's count dicts)
# ----------------------------------------------------------------------

def generate_screen_source(
    relation_name: str,
    relevance_filter: "RelevanceFilter",
    schema: RelationSchema,
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
            expr = _atom_expr(atom, col_expr)
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

def generate_shape_sources(ops: "ShapeOps") -> list[str]:
    """Emit the row kernel + apply kernels for one lowered shape.

    The row kernel ``row_kernel(deltas, old, index_for)`` unrolls
    ``ops.nodes`` in order, one named list per node, so rows whose
    orders begin alike share it; each row then hands its final node to
    its finish's apply kernel.  ``deltas[p]`` is the
    :class:`~repro.algebra.relation.Delta` of changed occurrence ``p``
    — its ``inserted``/``deleted`` dicts are the DELTA operand —
    ``old(p)`` the live post-commit count map of occurrence ``p``, and
    ``index_for[s]`` the bucket lookup (:attr:`~repro.algebra.relation.
    HashIndex.lookup`) of the hash index bound to the probe target of
    distinct step ``s`` (``StepPlan.number``): ``ix(k, NO_ROWS)`` per
    parent row, the probes counted by the kernel itself.  Each node's
    :class:`~repro.core.planner.Access` picks its template (``_SCANS``,
    ``_PROBES``).  A hash join's table is built lazily behind a ``None``
    guard, so an operand never reached because its accumulator is empty
    is never scanned.  The kernel returns ``(ins, dele, tuples_scanned,
    join_probes, tuples_emitted, tuples_ignored, index_probes)``.

    There is one apply kernel per finish: it folds each completed row
    through the final DNF re-check, the projection and the Section 5.2
    counter accumulators — pinned to one for a counter-free finish
    (sound only when a derived view key proves every view row has
    multiplicity ≤ 1, see
    :func:`repro.analysis.dependencies.derive_view_key`), which drops
    the ``get``-then-add round trip per emitted row.  The final
    :func:`~repro.core.counting.net_counts` pass still runs — one
    transaction may legitimately delete a view row and re-insert it.

    A shape of more than :data:`MAX_CODEGEN_ROWS` rows is emitted as
    several modules — chunks — of at most that many rows each, so no one
    compile grows with the truth table (it doubles per changed
    occurrence: 4 095 rows took 1 GB to compile unrolled in one
    function, and 632 MB as 64 functions of one module).  Chunk ``c > 0``
    defines ``row_kernel_{c}``; ``row_kernel`` runs chunk 0 and then
    calls ``row_kernel_1``, ``row_kernel_2`` … in sequence, handing each
    the two accumulators, the five tallies and every node and hash table
    bound before it that it or a later chunk reads; each returns the
    same for the chunk after it.  Prefixes and tables are thus shared
    across the whole shape as within one chunk, the stack stays two
    frames deep however many chunks there are, and the caller still
    calls one ``row_kernel``.  A shape of at most
    :data:`MAX_CODEGEN_ROWS` rows is one module, ``row_kernel`` alone.
    """
    planner, nodes = ops.planner, ops.nodes
    names = [occ.name for occ in planner.normal_form.occurrences]
    rows = list(ops.rows.items())
    if not ops.rows_evaluated:
        # A shared ground atom is false and the row kernel returns
        # before any row: one chunk will do.
        rows = rows[:MAX_CODEGEN_ROWS]
    # Which chunk first binds, and which last reads, each node and each
    # hash table; each row's new nodes are the ones after the previous
    # row's final node, up to its own.
    born: dict[str, int] = {}
    read: dict[str, int] = {}
    first_node = [0]
    for index, (_, (final, _)) in enumerate(rows):
        chunk = index // MAX_CODEGEN_ROWS
        for node in nodes[first_node[-1]: final + 1]:
            born[node.name] = chunk
            if node.parent is not None:
                read[nodes[node.parent].name] = chunk
                if node.table:
                    born.setdefault(node.table, chunk)
                    read[node.table] = chunk
        read[nodes[final].name] = chunk
        first_node.append(final + 1)

    chunks = (len(rows) + MAX_CODEGEN_ROWS - 1) // MAX_CODEGEN_ROWS
    # What each chunk is handed, and what the last one returns:
    # everything bound before it and read in it or after it.
    state = ["ins", "dele", "ts", "jp", "te", "ti", "ip"]
    handed = [list(state) for _ in range(chunks + 1)]
    for name, first in born.items():
        for chunk in range(first + 1, read.get(name, -1) + 1):
            handed[chunk].append(name)
    tables = sorted(
        {(n.step.number, n.choice.value, n.table) for n in nodes if n.table}
    )
    sources = []
    for chunk in range(chunks):
        first = chunk * MAX_CODEGEN_ROWS
        span = range(first, min(first + MAX_CODEGEN_ROWS, len(rows)))
        out = _Emitter()
        out.emit(
            "# row kernel: shape "
            + quoted(tuple(names[i] for i in planner.changed))
            + f" of view over {quoted(names)}"
        )
        if chunks > 1:
            out.emit(
                f"# chunk {chunk} of {chunks}: rows {span[0]} to {span[-1]}"
            )
        for row_index in span:
            out.emit(
                f"# row {row_index}: {ops.describe_row(rows[row_index][0], quoted)}"
            )
        if ops.finishes[0].counter_free:
            out.emit(
                "# counter-free: a derived view key proves multiplicity <= 1;"
            )
            out.emit("# the apply kernel pins every counter to one")

        emitted: set[int] = set()
        for row_index in span:
            finish = rows[row_index][1][1]
            if finish not in emitted:
                emitted.add(finish)
                _emit_apply_kernel(out, ops.finishes[finish])
                out.emit()
        if chunk == 0:
            out.emit("def row_kernel(deltas, old, index_for):")
            out.indent += 1
            out.emit("ins = {}")
            out.emit("dele = {}")
            if not ops.rows_evaluated:
                out.emit("# a shared ground atom is false: no row can contribute")
                out.emit("return ins, dele, 0, 0, 0, 0, 0")
                return [out.source()]
            for tally in state[2:]:
                out.emit(f"{tally} = 0")
        else:
            out.emit(
                f"def row_kernel_{chunk}(deltas, old, index_for, "
                f"{', '.join(handed[chunk])}):"
            )
            out.indent += 1
        for p in planner.changed:
            out.emit(f"i{p} = deltas[{p}].inserted")
            out.emit(f"d{p} = deltas[{p}].deleted")
        for _, _, table in tables:
            if born[table] == chunk:
                out.emit(f"{table} = None")

        for row_index in span:
            out.emit(f"# row {row_index}")
            final, finish = rows[row_index][1]
            for node in nodes[first_node[row_index]: final + 1]:
                if node.parent is None:
                    _emit_root(out, node)
                else:
                    _emit_join_node(out, node, nodes[node.parent].name)
            out.emit(f"{ops.finishes[finish].name}({nodes[final].name}, ins, dele)")
        if chunk == 0:
            for later in range(1, chunks):
                out.emit(
                    f"{', '.join(handed[later + 1])} = row_kernel_{later}("
                    f"deltas, old, index_for, {', '.join(handed[later])})"
                )
        out.emit(f"return {', '.join(handed[chunk + 1] if chunk else state)}")
        sources.append(out.source())
    return sources


def _emit_apply_kernel(out: _Emitter, finish: "Finish") -> None:
    key = _key_tuple_expr(finish.positions, "v")
    out.emit(f"def {finish.name}(rows, ins, dele):")
    out.indent += 1
    out.emit("for v, t, c in rows:")
    out.indent += 1
    if finish.condition is not None:
        expr = _condition_expr(finish.condition, _cells(finish.schema, "v"))
        out.skip_if(f"not ({expr})")
    out.emit(f"k = {key}")
    out.emit("if t is T_I:")
    out.indent += 1
    if finish.counter_free:
        out.emit("ins[k] = 1")
    else:
        out.emit("ins[k] = ins.get(k, 0) + c")
    out.indent -= 1
    out.emit("elif t is T_D:")
    out.indent += 1
    if finish.counter_free:
        out.emit("dele[k] = 1")
    else:
        out.emit("dele[k] = dele.get(k, 0) + c")
    out.indent -= 3


#: Per scan access: the lines opening the loop that binds ``bv, bt, bc``
#: over one operand's tuples, tallying ``tuples_scanned`` (every operand
#: tuple, before the prefilter), and how many levels they open.
_SCANS: dict[Access, tuple[tuple[str, ...], int]] = {
    Access.DELTA_SCAN: ((
        "ts += len(i{p}) + len(d{p})",
        "for src, bt in ((i{p}, T_I), (d{p}, T_D)):",
        "    for bv, bc in src.items():",
    ), 2),
    Access.OLD_SCAN: ((
        "bt = T_O",
        "src = old({p})",
        "ts += len(src)",
        "for bv, bc in src.items():",
    ), 1),
    Access.OLD_SCAN_LESS_INSERTS: ((
        "bt = T_O",
        "for bv, bc in old({p}).items():",
        "    bc -= i{p}.get(bv, 0)",
        "    if bc <= 0:",
        "        continue",
        "    ts += 1",
    ), 1),
}

#: Per probe access: the line ahead of the loop over the parent's rows,
#: and the lines that count — or skip — each probed tuple ``bv``.
_PROBES: dict[Access, tuple[str, tuple[str, ...]]] = {
    Access.SET_PROBE: ("bc = 1", ()),
    Access.SET_PROBE_LESS_INSERTS: ("bc = 1", ("if bv in i{p}:", "    continue")),
    Access.BAG_PROBE: ("counts = old({p})", ("bc = counts[bv]",)),
    Access.BAG_PROBE_LESS_INSERTS: ("counts = old({p})", (
        "bc = counts[bv] - i{p}.get(bv, 0)",
        "if bc <= 0:",
        "    continue",
    )),
}


def _emit_scan(out: _Emitter, node: "Node") -> int:
    """Open the loop over one operand's tuples and skip prefiltered
    ones; the caller emits the loop body, then closes the returned
    number of indent levels."""
    lines, depth = _SCANS[node.access]
    for line in lines:
        out.emit(line.format(p=node.step.position))
    out.indent += depth
    _skip_unless(out, node.step.prefilter_atoms, node.step.operand_schema, "bv")
    return depth


def _emit_root(out: _Emitter, node: "Node") -> None:
    out.emit(f"{node.name} = []")
    out.emit(f"{node.name}_append = {node.name}.append")
    depth = _emit_scan(out, node)
    out.emit(f"{node.name}_append((bv, bt, bc))")
    out.indent -= depth


def _emit_join_node(out: _Emitter, node: "Node", parent: str) -> None:
    out.emit(f"{node.name} = []")
    out.emit(f"if {parent}:")
    out.indent += 1
    out.emit(f"{node.name}_append = {node.name}.append")
    if node.table is None:
        _emit_probe_loop(out, node, parent)
    else:
        _emit_hash_join(out, node, parent)
    out.indent -= 1


def _emit_probe_loop(out: _Emitter, node: "Node", parent: str) -> None:
    """An OLD operand answered from its persistent hash index: every
    parent row is one join probe and one index probe, both counted in
    bulk."""
    step, p = node.step, node.step.position
    setup, count = _PROBES[node.access]
    out.emit(f"ix = index_for[{step.number}]")
    out.emit(setup.format(p=p))
    out.emit(f"jp += len({parent})")
    out.emit(f"ip += len({parent})")
    out.emit(f"for av, at, ac in {parent}:")
    out.indent += 1
    out.emit(f"k = {_probe_key_expr(step)}")
    out.emit("for bv in ix(k, NO_ROWS):")
    out.indent += 1
    for line in count:
        out.emit(line.format(p=p))
    _skip_unless(out, step.prefilter_atoms, step.operand_schema, "bv")
    _emit_combine_emit(out, node.name, step, probed=True)
    out.indent -= 2


def _emit_hash_join(out: _Emitter, node: "Node", parent: str) -> None:
    step, table = node.step, node.table
    out.emit(f"if {table} is None:")
    out.indent += 1
    out.emit(f"{table} = {{}}")
    depth = _emit_scan(out, node)
    out.emit(f"bk = {_key_tuple_expr(step.operand_key_positions, 'bv')}")
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
    out.emit(f"k = {_probe_key_expr(step)}")
    out.emit(f"bucket = {table}.get(k)")
    out.emit("if bucket is not None:")
    out.indent += 1
    out.emit("for bv, bt, bc in bucket:")
    out.indent += 1
    _emit_combine_emit(out, node.name, step, probed=False)
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
    _skip_unless(out, step.postfilter_atoms, step.acc_schema, "rv")
    out.emit("te += 1")
    out.emit(f"{node}_append((rv, t, ac * bc))")


def _probe_key_expr(step) -> str:
    parts = []
    for pos, _, shift in step.eq_links:
        parts.append(_shifted(f"av[{pos}]", shift))
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


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


#: How many distinct compiled programs :func:`compile_kernel` keeps.
#: A catalog of hundreds of views has a few dozen (one per view shape
#: and kernel kind); past the bound the least recently used is dropped
#: and, if asked for again, compiled again.
PROGRAM_CACHE_SIZE = 256

_COMMENT = re.compile(r"#[^\n]*")


def program_key(source: str) -> str:
    """``source`` with every comment reduced to a bare ``#``.

    Line numbers do not move.  User-chosen names reach generated text
    only inside comments (through :func:`quoted`, which escapes
    newlines) and generated code has no string literals, so every ``#``
    opens a comment and two sources with one key are one program.
    """
    return _COMMENT.sub("#", source)


@functools.lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def _program(key: str) -> CodeType:
    """The module code of one comment-free program (compiled once)."""
    return compile(key, "<codegen>", "exec")


def _renamed(code: CodeType, filename: str) -> CodeType:
    """``code`` and every code object nested in it, under ``filename``."""
    consts = tuple(
        _renamed(const, filename) if isinstance(const, CodeType) else const
        for const in code.co_consts
    )
    return code.replace(co_filename=filename, co_consts=consts)


def compile_kernel(
    source: str | Sequence[str], name: str, filename: str
) -> Callable:
    """``compile()`` + ``exec`` one generated module; return ``name``.

    The module code is compiled once per distinct program
    (:func:`program_key`) and shared; each kernel runs a copy renamed
    to its own ``filename``, which shows up in tracebacks and profiles
    (``<codegen:view:kind>``) so a bug in generated code is
    attributable to its generator.  ``source`` may also be the chunks
    of one module (a chunked row kernel, :func:`generate_shape_sources`):
    each is compiled as a program of its own, and all run in one
    namespace, where ``row_kernel``'s calls of the later chunks resolve.
    """
    namespace: dict = dict(_KERNEL_GLOBALS)
    for chunk in [source] if isinstance(source, str) else source:
        try:
            code = _renamed(_program(program_key(chunk)), filename)
        except SyntaxError as exc:  # pragma: no cover - generator bug
            raise MaintenanceError(
                f"generated kernel {filename} failed to compile: {exc}\n{chunk}"
            ) from exc
        exec(code, namespace)  # noqa: S102 - the codegen seam
    kernel = namespace.get(name)
    if kernel is None:  # pragma: no cover - generator bug
        raise MaintenanceError(
            f"generated module {filename} defines no {name!r}"
        )
    return kernel


def compile_shape_kernels(ops: "ShapeOps", view_name: str) -> RowKernel:
    """Generate + compile one lowered shape's kernels; its ``row_kernel``."""
    shape_tag = "".join(str(p) for p in ops.planner.changed)
    return compile_kernel(
        generate_shape_sources(ops),
        "row_kernel",
        f"<codegen:{view_name}:shape{shape_tag}>",
    )
