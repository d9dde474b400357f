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
* **row kernels** — one per shape (the set of changed occurrences):
  the ops the planner lowered the shape's terms to
  (:class:`~repro.core.planner.ShapeOps`, one node per step of each
  term's delta-rooted join order) unrolled into pipelined loops — a
  scan of one changed operand's count dicts per term, hash-table
  lookups and index probes of the others (a base relation's index or
  an upstream view's own, read as stored or as before the commit) —
  with equality-link keys and pre/post-filters inlined, and the term's
  tag the delta's, each joined row
  folded in the innermost loop into its finish: the final DNF re-check,
  projection and Section 5.2 multiplicity counters in plain ``dict``
  accumulators, collapsed to a net view delta by
  :func:`repro.core.counting.net_counts`.  Views one commit reaches
  whose cores are equal, or implied, share one row kernel with a
  finish per view (:func:`traversals`);
* **trigger programs** — one per set of changed relations: every view
  a commit reaches, in order, as straight-line code that calls its
  kernels, counts, applies, records what it applied for an undo and
  queues the deliveries (Algorithm 5.1).

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

Every shape runs on kernels, however wide: a shape of k changed
occurrences is k terms, one function.
"""

from __future__ import annotations

import functools
import re
from collections import defaultdict
from types import CodeType
from typing import TYPE_CHECKING, AbstractSet, Any, Callable, Mapping, NamedTuple, Sequence

from repro.algebra.aggregates import column_plans
from repro.algebra.conditions import Atom, Condition, Var
from repro.algebra.relation import Delta, apply_counts
from repro.algebra.schema import RelationSchema
from repro.algebra.tags import Tag
from repro.core.aggregates import accumulator_slots
from repro.core.counting import net_counts
from repro.core.graph import INF, ZERO
from repro.core.planner import BAG_PROBES, Access
from repro.errors import IntegrityViolation, MaintenanceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.algebra.aggregates import AggregateSpec
    from repro.core.irrelevance import RelevanceFilter, _DisjunctScreen
    from repro.core.planner import Finish, Node, ShapeOps, StepPlan
    from repro.instrumentation import Tally

ValueTuple = tuple[int, ...]

#: Bumped whenever the shape of the generated source changes; written
#: into the header of every generated kernel source.
#: v2: aggregate fold kernels (group-apply + unrolled renderers).
#: v3: counter-free finishes (derived view keys pin counters to 1).
#: v4: every name in a comment is quoted (see :func:`quoted`).
#: v5: kernels read and write ``Delta``'s count dicts directly.
#: v6: a join order per truth-table row; steps numbered per shape.
#: v7: every linked OLD step is an index probe (view operands included).
#: v8: the fold kernel keeps per-group accumulators and renders from them.
#: v9: an OLD probe subscripts a table of bucket lookups and counts itself.
#: (Compiling once per distinct program left the text byte-identical,
#: so it kept v9.)
#: v10: a never-true probe is left out, a screen with nothing to test
#: has no kernel, and the first atom's tests are counted in bulk.
#: v11: row kernels are pipelined: a node one consumer reads runs in its
#: loop, and each joined row goes straight into its finish.
#: v12: a shape is k telescoped terms, not 2^k − 1 truth-table rows, and
#: an operand right of a term's delta is read as before the commit.
CODEGEN_VERSION = 12

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
    """Tiny indented-source builder.  ``tally`` says what :meth:`count`
    also appends to the generated code's ``tally`` list: nothing (None),
    the recorder-only charges (``"charges"``) or every count
    (``"counts"``)."""

    __slots__ = ("lines", "indent", "tally")

    def __init__(self, tally: str | None = None) -> None:
        self.lines: list[str] = []
        self.indent = 0
        self.tally = tally

    def emit(self, line: str = "", shift: int = 0) -> None:
        if line:
            self.lines.append("    " * (self.indent + shift) + line)
        else:
            self.lines.append("")

    def count(self, *pairs: tuple[str, str]) -> None:
        """Count each ``(counter, amount expression)`` pair: a row
        counter into the row ``c``, and into ``tally`` as it says."""
        for name, amount in pairs:
            assert name in TRIGGER_ROW_COUNTS + TRIGGER_CHARGES, name
            if name in TRIGGER_ROW_COUNTS:
                self.emit(f"c[{name!r}] += {amount}")
        if self.tally != "counts":
            pairs = tuple(p for p in pairs if self.tally and p[0] in TRIGGER_CHARGES)
        if pairs:
            self.emit(f"tally += ({', '.join(f'({n!r}, {a})' for n, a in pairs)},)")

    def text(self, text: str) -> None:
        """``text``'s lines at the current indent."""
        self.lines += map(("    " * self.indent).__add__, text.splitlines())

    def block(self, template: str, *args: object, **fields: object) -> None:
        """``template`` filled in, at the current indent; a line ``@
        name=amount, ...`` counts, and a run of them counts as one."""
        prefix = "    " * self.indent
        pairs: list = []
        # A last empty line ends a last run of counts.
        for line in template.format(*args, **fields).splitlines() + [""]:
            stripped = line.lstrip()
            if pairs and not stripped.startswith("@"):
                self.indent += at
                self.count(*pairs)
                self.indent -= at
                pairs = []
            if stripped.startswith("@"):
                pairs += [(n.strip(), a.strip()) for n, a in (p.split("=") for p in stripped[1:].split(","))]
                at = (len(line) - len(stripped)) // 4
            elif stripped:
                self.lines.append(prefix + line)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


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


def _skip_unless(out: _Emitter, atoms: Sequence[Atom], cell: Callable[[str], str]) -> None:
    """Skip the row whose variables ``cell`` renders unless it satisfies
    ``atoms`` (if any)."""
    if atoms:
        out.text(f"if not ({_conjunction_expr(atoms, cell)}):\n    continue")


# ----------------------------------------------------------------------
# Screen kernels (Section 4 over a delta's count dicts)
# ----------------------------------------------------------------------

#: One live (occurrence, disjunct) screen as text: its variant-evaluable
#: atom tests in order, the bound folds its probes read, and its
#: negative-cycle probe disjunction ("" when no probe can fire).
Block = tuple[tuple[str, ...], tuple[str, ...], str]
#: A screen with nothing left to test: every tuple reaching it passes.
OPEN: Block = ((), (), "")

_SCREEN_NONE = """\
def screen_kernel(inserted, deleted):
    # every disjunct's invariant part is unsatisfiable:
    # all updates screened out
    return {}, {}, 0, 0"""


class Screen(NamedTuple):
    """One relation's compiled Section 4 screen, as a plan keeps it and
    a trigger reads it."""

    #: The kernel's text, or the comment line that stands for it.
    source: str
    #: None when no tuple needs testing: the delta goes on as it came,
    #: or, when ``drop`` names the counter it is booked under, a
    #: compile-time proof drops it unscreened.
    kernel: ScreenKernel | None
    #: The live screens the kernel tests, in order; ``(OPEN,)`` when the
    #: first has nothing left to test, ``()`` when there are none.
    blocks: tuple[Block, ...] = ()
    drop: str = ""

    @property
    def kind(self) -> str:
        """How a trigger screens with it, and which stage
        (:func:`stage`) runs it alone: ``"screen"``, ``"pass"``,
        ``"probed pass"`` (counting a bound probe per tuple) or
        ``"drop"``."""
        if self.kernel is not None:
            return "screen"
        return "drop" if self.drop else "probed pass" if self.blocks else "pass"


def screen_for(
    relation_name: str,
    relevance_filter: "RelevanceFilter",
    schema: RelationSchema,
    compile_screen: Callable[[str], ScreenKernel],
) -> Screen:
    """The batch screen of one participating relation, its kernel
    compiled by ``compile_screen`` when it needs one.

    The generated ``screen_kernel(inserted, deleted)`` returns
    ``(kept_inserted, kept_deleted, ground_evals, bound_probes)``: the
    relevant entries of each count dict, in order, and the tallies the
    trigger charges to the reference filter's per-tuple counters in
    bulk.  Structure per tuple, mirroring ``RelevanceFilter._decide``
    exactly: one block per live (occurrence, disjunct) screen,
    variant-evaluable atoms as nested short-circuit tests, variant
    bounds as ``min``/``max`` folds, and the negative-cycle probe pairs
    unrolled with the invariant APSP distances baked in as integer
    literals (pairs whose invariant path is unreachable, or that can
    never fire, are omitted at generation time).  The first screen's
    first atom is tested for every tuple, so it is not counted per
    tuple; with no probe, every tuple that reaches the probe stage is
    kept, so that count is the kept count.

    A relation whose condition has a constant TRUE disjunct, or whose
    first screen has nothing left to test, needs no kernel: every
    update is relevant.
    """
    name = quoted(relation_name)
    if relevance_filter._always_relevant:
        return Screen(
            f"# screen: relation {name} has a constant TRUE disjunct: "
            "every update is relevant; no kernel\n",
            None,
        )
    screens = relevance_filter._screens
    if not screens:
        source = f"# screen kernel: relation {name}\n{_SCREEN_NONE}\n"
        return Screen(source, compile_screen(source))
    blocks: list[Block] = []
    probed = evals = 0  # any probe; atom tests counted per tuple
    for screen in screens:

        def col_expr(qualified: str, _inverse: dict[str, str] = screen.occurrence.inverse) -> str:
            return f"v[{schema.index(_inverse[qualified])}]"

        folds, probes, _ = bound_probes(screen, col_expr)
        atoms = tuple(_atom_expr(atom, col_expr) for atom in screen.variant_evaluable)
        blocks.append((atoms, tuple(folds), " or ".join(probes)))
        probed = probed or bool(probes)
        evals += len(atoms) - (len(blocks) == 1 and bool(atoms))
        if not (atoms or probes):
            # Every tuple reaching it passes: later screens never run.
            break
    if blocks[0] == OPEN:
        return Screen(
            f"# screen: relation {name} has nothing left to test: every "
            "update is relevant; no kernel\n",
            None,
            (OPEN,),
        )
    out = _Emitter()
    out.lines = [f"# screen kernel: relation {name}", "def screen_kernel(inserted, deleted):",
                 "    ki = {}", "    kd = {}"] + ["    ge = 0"] * bool(evals) + ["    bp = 0"] * probed + [
                 "    for src, kept in ((inserted, ki), (deleted, kd)):", "        for v, c in src.items():"]
    out.indent = 3
    for index, block in enumerate(blocks):
        occurrence = screens[index].occurrence
        out.emit(f"# screen {index}: occurrence {quoted(occurrence.name)}#{occurrence.position}")
        _emit_tests(out, block, "ge", "bp" * probed,
                    "kept[v] = c\ncontinue" if index < len(blocks) - 1 else "kept[v] = c",
                    first_counted=bool(index))
    out.indent = 1
    ge = " + ".join(["ge"] * bool(evals) + ["len(inserted) + len(deleted)"] * bool(blocks[0][0])) or "0"
    out.emit(f"return ki, kd, {ge}, {'bp' if probed else 'len(ki) + len(kd)'}")
    source = out.source()
    return Screen(source, compile_screen(source), tuple(blocks))


def _emit_tests(
    out: _Emitter, block: Block, ge: str, bp: str, keep: str, first_counted: bool = True
) -> None:
    """One screen's tests at the current indent, ending in ``keep``:
    each atom counted into ``ge`` (the first only if ``first_counted``),
    the probe stage into ``bp`` (if named)."""
    atoms, folds, probe = block
    opened = out.indent
    for index, atom in enumerate(atoms):
        if index or first_counted:
            out.emit(f"{ge} += 1")
        out.emit(f"if {atom}:")
        out.indent += 1
    if bp:
        out.emit(f"{bp} += 1")
    out.text("\n".join(folds))
    if probe:
        out.emit(f"if not ({probe}):")
        out.indent += 1
    out.text(keep)
    out.indent = opened


def generate_pass_source(relation_name: str, blocks: Sequence[Block]) -> str:
    """One fused screen pass over a delta for several single-screen
    programs whose tests open alike.

    ``screen_kernel(inserted, deleted)`` tests the leading atoms every
    program shares once per tuple, then each program's remaining tests,
    and returns one ``(kept_inserted, kept_deleted, ground_evals,
    bound_probes)`` per program, in order — what that program's own
    kernel returns: a shared atom is counted for every program that
    would have tested it.
    """
    shared = 0
    while all(len(atoms) > shared for atoms, _, _ in blocks) and len(
        {atoms[shared] for atoms, _, _ in blocks}
    ) == 1:
        shared += 1
    lead = blocks[0][0][:shared]
    out = _Emitter()
    out.emit(f"# screen pass: relation {quoted(relation_name)}, {len(blocks)} screens "
             f"sharing {shared} leading test(s)")
    out.emit("def screen_kernel(inserted, deleted):")
    out.indent = 1
    for r, (atoms, _, probe) in enumerate(blocks):
        out.text(f"ki{r} = {{}}\nkd{r} = {{}}" + f"\nge{r} = 0" * (len(atoms) > shared)
                 + f"\nbp{r} = 0" * bool(probe))
    out.text("g = 0" * (shared > 1))
    kept = ", ".join(f"k{r}" for r in range(len(blocks)))
    out.text(f"for src, {kept} in ((inserted, {', '.join(f'ki{r}' for r in range(len(blocks)))}), "
             f"(deleted, {', '.join(f'kd{r}' for r in range(len(blocks)))})):\n"
             "    for v, c in src.items():")
    out.indent = 3
    _emit_tests(out, (lead, (), ""), "g", "", "", first_counted=False)
    out.indent = 3 + shared
    for r, (atoms, folds, probe) in enumerate(blocks):
        out.emit(f"# screen {r}")
        _emit_tests(out, (atoms[shared:], folds, probe), f"ge{r}", f"bp{r}" * bool(probe), f"k{r}[v] = c")
    out.indent = 1
    out.emit("n = len(inserted) + len(deleted)" + " + g" * (shared > 1))
    out.emit("return " + ", ".join(
        f"(ki{r}, kd{r}, n{f' + ge{r}' * (len(atoms) > shared)}, "
        f"{f'bp{r}' if probe else f'len(ki{r}) + len(kd{r})'})"
        for r, (atoms, _, probe) in enumerate(blocks)
    ) + "," * (len(blocks) == 1))
    return out.source()


def bound_probes(
    screen: "_DisjunctScreen", col_expr: Callable[[str], str]
) -> tuple[list[str], list[str], list[tuple[str, int, str]]]:
    """A screen's tightest-bound folds, its negative-cycle probes, and
    the probes left out because they can never fire.

    Reproduces ``_DisjunctScreen.admits``: each variant non-evaluable
    atom contributes an upper (``x ≤ e``) or lower (``x ≥ e``) bound
    whose constant is a cell expression; discrete-domain
    normalization (``<`` → ``≤ e−1``, ``>`` → ``≥ e+1``, ``=`` → both)
    is applied symbolically here, and the probe pairs are unrolled with
    the APSP entries as literals.  A probe ``-(e) + w + e < 0`` whose
    two bounds are one expression ``e`` over a path ``w ≥ 0`` cannot
    hold — a join equality gives one for every tuple — so it is left
    out as ``(e, w, e)``, and so is a fold only such probes read.
    """
    if not screen.variant_non_evaluable:
        # No bound: the one pair left is the zero node's with itself.
        return [], [], []
    uppers: dict[str, list[str]] = {}
    lowers: dict[str, list[str]] = {}
    order: list[str] = []
    for atom in screen.variant_non_evaluable:
        assert isinstance(atom.left, Var) and isinstance(atom.right, Var)
        x, y = atom.left.name, atom.right.name
        if _is_substituted(screen, x):
            # Const(vx) op y + c mirrors to y mirror(op) (vx - c).
            free = y
            op = {"=": "=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}[atom.op]
            base = col_expr(x)
            shift = -atom.offset
        else:
            free = x
            op = atom.op
            base = col_expr(y)
            shift = atom.offset
        if free not in order:
            order.append(free)
        if op in ("<=", "<", "="):
            uppers.setdefault(free, []).append(_shifted(base, shift - (op == "<")))
        if op in (">=", ">", "="):
            lowers.setdefault(free, []).append(_shifted(base, shift + (op == ">")))

    # (variable, fold name, fold expression) per bound, then the zero node.
    lower_items = [(free, f"l{k}", _fold("max", lowers[free]))
                   for k, free in enumerate(order) if free in lowers] + [(ZERO, "0", "0")]
    upper_items = [(free, f"u{k}", _fold("min", uppers[free]))
                   for k, free in enumerate(order) if free in uppers] + [(ZERO, "0", "0")]
    dist = screen.dist
    probes: list[str] = []
    dropped: list[tuple[str, int, str]] = []
    read: set[str] = set()
    for y, cl, lower in lower_items:
        for x, cu, upper in upper_items:
            path = dist[y][x]
            if (y == ZERO and x == ZERO) or path == INF:
                continue
            if lower == upper and path >= 0:
                dropped.append((lower, int(path), upper))
                continue
            probes.append(f"(-({cl}) + {int(path)} + {cu} < 0)")
            read |= {cl, cu}
    exprs = {name: expr for _, name, expr in lower_items + upper_items}
    folds = [f"{name} = {exprs[name]}" for k in range(len(order))
             for name in (f"l{k}", f"u{k}") if name in read]
    return folds, probes, dropped


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
# Row kernels (Section 5.3 over one shape's terms)
# ----------------------------------------------------------------------

def generate_shape_source(
    ops: "ShapeOps", outputs: "Sequence[Sequence[Finish]] | None" = None
) -> str:
    """Emit the row kernel of one lowered shape, pipelined.

    ``row_kernel(deltas, old, index_for)`` runs ``ops.rows`` — the
    shape's terms — in order.  Each term opens one loop per node of its
    join order, nested: the root scans one side of the term's delta, a
    joined node probes an index or a hash table for each row of its
    parent, and the innermost loop folds each joined row straight into
    its finish — the final DNF re-check, the projection key read from
    the operands' own cells, and the Section 5.2 counters (pinned to one
    for a counter-free finish, sound only when a derived view key proves
    every view row has multiplicity ≤ 1, see
    :func:`repro.analysis.dependencies.derive_view_key`).  No joined row
    is built and no node is kept, except one :data:`~repro.core.planner.MAX_NESTING`
    loops deep (:attr:`~repro.core.planner.ShapeOps.stored`), which is
    filled as a list of ``(row, tag, count)`` that the rest of its term
    loops over.  ``deltas[p]`` is the
    :class:`~repro.algebra.relation.Delta` of changed occurrence ``p`` —
    its ``inserted``/``deleted`` dicts are the delta operand — ``old(p)``
    the live post-commit count map of occurrence ``p``, and
    ``index_for[s]`` the bucket lookup
    (:attr:`~repro.algebra.relation.HashIndex.lookup`) of the hash index
    bound to the probe target of distinct step ``s``
    (``StepPlan.number``): one lookup per parent row, resolved when the
    first parent row reaches it, the probes counted by the kernel
    itself.  Each node's :class:`~repro.core.planner.Access` picks its
    template (``_SCANS``, ``_PROBES``); a pre-commit probe also reads
    the rows this commit deleted from the stored operand, hashed on the
    probe's key when the first parent row reaches it (``gone_<step>``).
    A hash join's table is built when the first parent row reaches it,
    so an operand no term reaches is never scanned.  The kernel returns
    ``(ins, dele, tuples_scanned, join_probes, tuples_emitted, 0,
    index_probes)`` — the sixth slot is 0: no term joins two deltas, so
    none drops an ``insert ⊗ delete`` pair — and the final
    :func:`~repro.core.counting.net_counts` pass runs in the caller: one
    transaction may legitimately delete a view row and re-insert it.

    ``outputs`` are the finishes of several views that share this
    traversal, one sequence per view aligned with ``ops.finishes``
    (default: ``ops.finishes`` alone).  With more than one, each joined
    row goes to every view's finish in turn, and the kernel returns
    ``ins0, dele0, ins1, dele1, …`` ahead of the five tallies.
    """
    planner, nodes = ops.planner, ops.nodes
    outputs = [ops.finishes] if outputs is None else list(outputs)
    accs = [("ins", "dele")] if len(outputs) == 1 else [
        (f"ins{m}", f"dele{m}") for m in range(len(outputs))
    ]
    names = [occ.name for occ in planner.normal_form.occurrences]
    rows = list(ops.rows.items())
    state = [name for pair in accs for name in pair]
    out = _Emitter()
    changed = quoted(tuple(names[i] for i in planner.changed))
    out.emit(f"# row kernel: shape {changed} of view over {quoted(names)}")
    if len(outputs) > 1:
        out.emit(f"# one traversal, {len(outputs)} views' finishes")
    for row_index, (row, _) in enumerate(rows):
        out.emit(f"# row {row_index}: {ops.describe_row(row, quoted)}")
    if len(outputs) == 1 and ops.finishes[0].counter_free:
        out.emit("# counter-free: a derived view key proves multiplicity <= 1;")
        out.emit("# the finish pins every counter to one")
    out.emit("def row_kernel(deltas, old, index_for):")
    out.indent += 1
    out.lines += [f"    {name} = {{}}" for name in state]
    if not ops.rows_evaluated:
        out.text("# a shared ground atom is false: no row can contribute\n"
                 f"return {', '.join(state)}, 0, 0, 0, 0, 0")
        return out.source()
    out.lines += [f"    {tally} = 0" for tally in ("ts", "jp", "te", "ti", "ip")]
    for p in planner.changed:
        out.text(f"i{p} = deltas[{p}].inserted\nd{p} = deltas[{p}].deleted")
    for table in sorted((n.step.number, n.table) for n in nodes if n.table):
        out.emit(f"{table[1]} = None")
    for node in nodes:
        if node.access in _GONE:
            out.emit(f"gone_{node.step.number} = None")
    stored = ops.stored
    first = 0
    for row_index, (_, (final, finish)) in enumerate(rows):
        out.emit(f"# row {row_index}")
        _emit_row(out, nodes, range(first, final + 1), stored,
                  [finishes[finish] for finishes in outputs], accs)
        first = final + 1
    out.emit(f"return {', '.join(state)}, ts, jp + ip, te, ti, ip")
    return out.source()


class _Joined(NamedTuple):
    """What the open loops bind for the joined row so far: one
    expression per cell of the order's layout, the row's tag and count
    expressions, the row variables whose concatenation is the row, and
    the next free loop level."""

    cells: tuple[str, ...]
    tag: str
    count: str
    parts: tuple[str, ...]
    level: int

    def cell(self, schema: RelationSchema) -> Callable[[str], str]:
        return lambda name: self.cells[schema.index(name)]


def _emit_row(
    out: _Emitter, nodes: Sequence["Node"], path: range, stored: AbstractSet[int],
    finishes: Sequence["Finish"], accs: Sequence[tuple[str, str]],
) -> None:
    """One term's nodes ``path`` as nested loops, its finishes in the
    innermost.  The term is cut after each stored node: a segment fills
    the node, and the next loops over it.  The first segment is emitted
    once per side of the term's delta, inserts then deletes, so its tag
    is a constant."""
    opened = out.indent
    for i in path:
        if i in stored:
            out.text(f"{nodes[i].name} = []\n{nodes[i].name}_append = {nodes[i].name}.append")
    for p in dict.fromkeys(nodes[i].step.position for i in path if nodes[i].access in BAG_PROBES):
        out.emit(f"o{p} = old({p})")
    cuts = [n + 1 for n, i in enumerate(path) if i in stored]
    segments = [path[start:end] for start, end in zip([0] + cuts, cuts + [len(path)])]
    level = 0
    for index, segment in enumerate(segments):
        root = nodes[segment[0]]
        if not index:
            out.emit(f"ts += len(i{root.step.position}) + len(d{root.step.position})")
        for side in (("i", "T_I"), ("d", "T_D")) if not index else (None,):
            joined = _emit_root(out, root, side) if side else _loop_over(out, nodes[segments[index - 1][-1]], level)
            for i in segment[not index:]:
                joined = _emit_join(out, nodes[i], joined)
            if index < len(segments) - 1:
                out.emit(f"{nodes[segment[-1]].name}_append("
                         f"({' + '.join(joined.parts)}, {joined.tag}, {joined.count}))")
            else:
                _emit_finishes(out, joined, finishes, accs)
            out.indent = opened
        level = joined.level


def _loop_over(out: _Emitter, node: "Node", level: int) -> _Joined:
    """Open the loop over a stored node's rows."""
    out.emit(f"for a{level}, t{level}, c{level} in {node.name}:")
    out.indent += 1
    width = len(node.step.acc_schema)
    return _Joined(tuple(f"a{level}[{j}]" for j in range(width)), f"t{level}", f"c{level}",
                   (f"a{level}",), level + 1)


#: Per scan of a hash join's operand: the lines opening the loop that
#: binds row ``{v}`` and count ``{c}`` over the operand's tuples,
#: tallying ``tuples_scanned`` (every operand tuple, before the
#: prefilter).  A pre-commit scan reads the stored tuples and the ones
#: this commit deleted from them, each with its count before the commit.
_SCANS: dict[Access, tuple[str, ...]] = {
    Access.OLD_SCAN: (
        "{s} = old({p})",
        "ts += len({s})",
        "for {v}, {c} in {s}.items():",
    ),
    Access.PRE_COMMIT_SCAN: (
        "{s} = old({p})",
        "for {v} in (*{s}, *[x for x in d{p} if x not in {s}]):",
        "    {c} = {s}.get({v}, 0) - i{p}.get({v}, 0) + d{p}.get({v}, 0)",
        "    if {c} <= 0:",
        "        continue",
        "    ts += 1",
    ),
}

#: Per probe access: the lines that count — or skip — each probed
#: tuple ``b{L}``, binding its count ``n{L}`` if it is a bag's.  A
#: pre-commit probe's count is the one before the commit: less this
#: commit's inserts, plus its deletes.
_PROBES: dict[Access, tuple[str, ...]] = {
    Access.SET_PROBE: (),
    Access.PRE_COMMIT_SET_PROBE: ("if b{L} in i{p}:", "    continue"),
    Access.BAG_PROBE: ("n{L} = o{p}[b{L}]",),
    Access.PRE_COMMIT_BAG_PROBE: (
        "n{L} = o{p}.get(b{L}, 0) - i{p}.get(b{L}, 0) + d{p}.get(b{L}, 0)",
        "if n{L} <= 0:",
        "    continue",
    ),
}

#: Per pre-commit probe: which of this commit's deleted rows the stored
#: operand no longer holds, so that its index cannot answer them — every
#: one of a set's, and a bag's whose count fell to none.
_GONE: dict[Access, str] = {
    Access.PRE_COMMIT_SET_PROBE: "",
    Access.PRE_COMMIT_BAG_PROBE: "if hv in o{p}:\n    continue\n",
}


def _prefilter(out: _Emitter, step: "StepPlan", v: str) -> None:
    """Skip operand row ``v`` unless it passes ``step``'s prefilter."""
    _skip_unless(out, step.prefilter_atoms, lambda name: f"{v}[{step.operand_schema.index(name)}]")


def _emit_root(out: _Emitter, node: "Node", side: tuple[str, str]) -> _Joined:
    """Open the scan of one ``side`` of a term's delta, ``(dict prefix,
    tag)``."""
    out.emit(f"for b0, c0 in {side[0]}{node.step.position}.items():")
    out.indent += 1
    _prefilter(out, node.step, "b0")
    width = len(node.step.operand_schema)
    return _Joined(tuple(f"b0[{j}]" for j in range(width)), side[1], "c0", ("b0",), 1)


def _bucketed(table: str, key: str, entry: str) -> str:
    """The lines adding ``entry`` to ``table``'s bucket under ``key``."""
    return (f"hk = {key}\nbucket = {table}.get(hk)\n"
            f"if bucket is None:\n    {table}[hk] = [{entry}]\nelse:\n    bucket.append({entry})")


def _emit_join(out: _Emitter, node: "Node", parent: _Joined) -> _Joined:
    """Open the loop joining ``node``'s operand onto each parent row:
    an index probe or a hash-table lookup, its filters, and the tally of
    rows it emits.  The operand is untagged: the row keeps the parent's
    tag."""
    step, level = node.step, parent.level
    key = "(" + ", ".join(_shifted(parent.cells[pos], shift) for pos, _, shift in step.eq_links) + (
        "," if len(step.eq_links) == 1 else "") + ")"
    operand = tuple(f"b{level}[{j}]" for j in range(len(step.operand_schema)))
    count = parent.count
    p = step.position
    hk = _key_tuple_expr(step.operand_key_positions, "hv")
    if node.table is None:
        # An operand answered from its persistent hash index: one join
        # probe and one index probe per parent row.
        probed = f"index_for[{step.number}]({key}, NO_ROWS)"
        out.emit("ip += 1")
        if node.access in _GONE:
            gone = f"gone_{step.number}"
            out.text(f"if {gone} is None:\n    {gone} = {{}}\n    for hv in d{p}:")
            out.indent += 2
            out.text(_GONE[node.access].format(p=p) + _bucketed(gone, hk, "hv"))
            out.indent -= 2
            probed = f"(*{probed}, *{gone}.get({key}, ()))"
        out.emit(f"for b{level} in {probed}:")
        out.indent += 1
        out.text("\n".join(_PROBES[node.access]).format(L=level, p=p))
        if node.access in BAG_PROBES:
            count = f"{count} * n{level}"
        _skip_unless(out, step.prefilter_atoms, lambda name: operand[step.operand_schema.index(name)])
    else:
        table = node.table
        out.text(f"jp += 1\nif {table} is None:\n    {table} = {{}}")
        out.indent += 1
        filled = out.indent
        out.text("\n".join(_SCANS[node.access]).format(p=p, v="hv", c="hc", s="hs"))
        out.indent += 1
        _prefilter(out, step, "hv")
        # Every entry of a table carries the untagged operand's tag.
        out.text(_bucketed(table, hk, "(hv, T_O, hc)"))
        out.indent = filled - 1
        out.emit(f"for b{level}, s{level}, n{level} in {table}.get({key}, NO_ROWS):")
        out.indent += 1
        count = f"{count} * n{level}"
    joined = _Joined(parent.cells + operand, parent.tag, count, parent.parts + (f"b{level}",), level + 1)
    _skip_unless(out, step.postfilter_atoms, joined.cell(step.acc_schema))
    out.emit("te += 1")
    return joined


def _emit_finishes(
    out: _Emitter, joined: _Joined, finishes: Sequence["Finish"], accs: Sequence[tuple[str, str]]
) -> None:
    """Fold the joined row into each view's finish in turn: its DNF
    re-check, its projection key and its counters; a constant tag folds
    into its side alone."""
    constant = {"T_I": 0, "T_D": 1}.get(joined.tag)
    tests = ([("", constant)] if constant is not None else
             [(f"if {joined.tag} is T_I:", 0), (f"elif {joined.tag} is T_D:", 1)])
    for test, side in tests:
        if test:
            out.emit(test)
        out.indent += bool(test)
        for finish, acc in zip(finishes, accs):
            opened = out.indent
            if finish.condition is not None:
                out.emit(f"if {_condition_expr(finish.condition, joined.cell(finish.schema))}:")
                out.indent += 1
            key = [joined.cells[p] for p in finish.positions]
            out.emit(f"k = ({', '.join(key)}{',' * (len(key) == 1)})")
            count = "1" if finish.counter_free else f"{acc[side]}.get(k, 0) + {joined.count}"
            out.emit(f"{acc[side]}[k] = {count}")
            out.indent = opened
        out.indent -= bool(test)


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
    grow = shrink = ""
    for i, (func, p) in enumerate(slots):
        if func in ("count", "sum"):
            slot, change = (0, "c") if func == "count" else (i, f"v[{p}] * c")
            grow += f"            a[{slot}] += {change}\n"
            shrink += f"        a[{slot}] -= {change}\n"
        else:
            grow += f"            if v[{p}] {'<' if func == 'min' else '>'} a[{i}]:\n"
            grow += f"                a[{i}] = v[{p}]\n"
    carried = rescan = ""
    if extrema:
        # The extremum-exhaustion branch: the only place a bag is
        # iterated.  A stale group that went on to vanish (a[0] == 0)
        # has no bag left to scan.
        carried = " or ".join(f"v[{p}] == a[{i}]" for i, _, p in extrema)
        carried = f"            elif {carried}:\n                stale[k] = a\n"
        rescan = "".join(
            f"            a[{i}] = {func}(v[{p}] for v in bag)\n" for i, func, p in extrema
        )
        rescan = _RESCAN + rescan
    out = _Emitter()
    out.emit(f"# aggregate kernel: {quoted(str(spec))}")
    out.emit(f"# core row layout: {quoted(tuple(core_schema.names))}")
    out.emit(f"# accumulators per group: {quoted([f for f, _ in slots])}")
    out.emit()
    fresh = ", ".join(
        "c" if func == "count" else f"v[{p}] * c" if func == "sum" else f"v[{p}]"
        for func, p in slots
    )
    out.text(_FOLD_KERNEL.format(
        key=key, row=row, fresh=fresh, grow=grow, shrink=shrink,
        stale="    stale = {}\n" * bool(extrema), carried=carried, rescan=rescan,
        rescanned="rescanned" if extrema else "0",
    ))
    return out.source()


# A group's before-row is rendered the first time a delta row reaches
# it, ahead of that row's own update: inserts run first, so ``before``
# keeps the reference fold's touched order.
_FOLD_KERNEL = """\
def fold_kernel(groups, accs, ins, dele):
    for v, c in dele.items():
        bag = groups.get({key})
        if bag is None or bag.get(v, 0) < c:
            return {{}}, {{}}, 0, 0, v
    before = {{}}
    for v, c in ins.items():
        k = {key}
        a = accs.get(k)
        if k not in before:
            before[k] = None if a is None else {row}
        if a is None:
            groups[k] = {{v: c}}
            accs[k] = [{fresh}]
        else:
            bag = groups[k]
            bag[v] = bag.get(v, 0) + c
{grow}{stale}    for v, c in dele.items():
        k = {key}
        bag = groups[k]
        a = accs[k]
        if k not in before:
            before[k] = {row}
{shrink}        n = bag[v] - c
        if n:
            bag[v] = n
        else:
            del bag[v]
            if not bag:
                del groups[k]
                del accs[k]
{carried}{rescan}    inserted = {{}}
    deleted = {{}}
    for k, old in before.items():
        a = accs.get(k)
        new = None if a is None else {row}
        if old != new:
            if old is not None:
                deleted[old] = 1
            if new is not None:
                inserted[new] = 1
    return inserted, deleted, len(before), {rescanned}, None
"""
_RESCAN = """\
    rescanned = 0
    for k, a in stale.items():
        if a[0]:
            bag = groups[k]
            rescanned += len(bag)
"""


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------

#: Constants available to every generated kernel (and, with
#: :data:`_TRIGGER_GLOBALS`, trigger).  This is the entire ambient
#: namespace — generated source may not reach anything else, which is
#: what keeps it deterministic.
_KERNEL_GLOBALS = {
    "__builtins__": {"len": len, "min": min, "max": max},
    #: The tag an untagged operand's hash-table entries carry.
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
    newlines), and the only string literals in generated code are the
    counter names of :data:`TRIGGER_ROW_COUNTS` and
    :data:`TRIGGER_CHARGES`, which hold no ``#``: every ``#`` opens a
    comment, and two sources with one key are one program.
    """
    return _COMMENT.sub("#", source)


@functools.lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def _program(key: str) -> CodeType:
    """The module code of one comment-free program (compiled once)."""
    return compile(key, "<codegen>", "exec")


def _load(source: str, filename: str) -> CodeType:
    """The module code of ``source``'s program (:func:`_program`)."""
    try:
        return _program(program_key(source))
    except SyntaxError as exc:  # pragma: no cover - generator bug
        raise MaintenanceError(
            f"generated kernel {filename} failed to compile: {exc}\n{source}"
        ) from exc


def _renamed(code: CodeType, filename: str) -> CodeType:
    """``code`` and every code object nested in it, under ``filename``."""
    consts = tuple(
        _renamed(const, filename) if isinstance(const, CodeType) else const
        for const in code.co_consts
    )
    return code.replace(co_filename=filename, co_consts=consts)


def compile_kernel(source: str, name: str, filename: str) -> Callable:
    """``compile()`` + ``exec`` one generated module; return ``name``.

    The module code is compiled once per distinct program
    (:func:`program_key`) and shared; each kernel runs a copy renamed
    to its own ``filename``, which shows up in tracebacks and profiles
    (``<codegen:view:kind>``) so a bug in generated code is
    attributable to its generator.
    """
    namespace: dict = dict(_KERNEL_GLOBALS)
    exec(_renamed(_load(source, filename), filename), namespace)  # noqa: S102 - the codegen seam
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
        generate_shape_source(ops),
        "row_kernel",
        f"<codegen:{view_name}:shape{shape_tag}>",
    )


# ----------------------------------------------------------------------
# Trigger programs (Algorithm 5.1 over every view one commit reaches)
# ----------------------------------------------------------------------

#: Every counter the templates below count: into a view's row ``c`` ...
TRIGGER_ROW_COUNTS = (
    "transactions_seen", "plan_cache_hits", "plan_cache_misses", "tuples_screened",
    "tuples_irrelevant", "tuples_static_dropped", "static_tuples_dropped",
    "fk_probe_tuples_dropped", "transactions_skipped", "codegen_plans_compiled",
    "codegen_batch_rows", "view_tuples_inserted", "view_tuples_deleted", "deltas_applied",
)
#: ... or for an active recorder alone, through ``tally``.
TRIGGER_CHARGES = (
    "filter_tuples_checked", "filter_ground_evals", "filter_bound_probes",
    "differential_updates", "truth_table_rows", "delta_rows_evaluated",
    "tuples_scanned", "join_probes", "index_probes", "tuples_emitted", "aggregate_rows_folded",
    "aggregate_groups_touched", "aggregate_support_rescanned",
)

# One template per stage; a line ``@ name=amount, ...`` counts.
# Section 4, once per source delta: its count dicts and their size.
_SOURCE = """\
{src}i = {src}.inserted
{src}d = {src}.deleted
{src}n = len({src}i) + len({src}d)
"""
# Once per distinct screen program over a source: ``s{p}`` is what of
# the delta can affect the views holding the program, or None; a delta
# the screen took nothing from goes on as it came.
_KEPT = """\
ki, kd, ge{p}, bp{p} = {result}
m{p} = len(ki) + len(kd)
s{p} = None if not m{p} else {src} if m{p} == {src}n else ADOPT({src}.schema, ki, kd)
"""
# Per view reading a source, by its screen's kind (``Screen.kind``): a
# screened source (the program runs, if it has not yet, after the first
# line), one that goes on as it came, and one a compile-time proof drops
# unscreened: static irrelevance, or an FK reduction's probe side.
_SCREENED = """\
@ tuples_irrelevant={src}n - m{p}, codegen_batch_rows={src}n, filter_tuples_checked={src}n
@ filter_ground_evals=ge{p}, filter_bound_probes=bp{p}
"""
_PASS = "@ tuples_screened={src}n, codegen_batch_rows={src}n, filter_tuples_checked={src}n\n"
_DROP = "@ tuples_screened={src}n, tuples_irrelevant={src}n, tuples_static_dropped={src}n, {drop}={src}n\n"
#: The template of a screen with no kernel, by its kind.
_UNSCREENED = {"pass": _PASS, "probed pass": _PASS + "@ filter_bound_probes={src}n\n", "drop": _DROP}
# Section 5: a shape's row kernel over a screened delta per occurrence,
# one term per changed occurrence.  What a traversal does is counted
# once, however many views take it.
_TRAVERSED = """\
@ truth_table_rows={rows}, delta_rows_evaluated={rows}
@ tuples_scanned=ts, join_probes=jp, index_probes=ip, tuples_emitted=te
"""
_NET = """\
if ins and dele:
    NET(ins, dele)
"""
_ROWS = """\
ins, dele, ts, jp, te, _, ip = {shape}[2]({operands}, {old}, {shape}[3])
rows = {shape}[1].rows_evaluated
@ codegen_batch_rows=rows, differential_updates=1
""" + _TRAVERSED.replace("{rows}", "rows") + _NET
# A traversal several views share runs in the first one's turn, its
# entry compiled on first survival; each view then takes its own
# accumulators, in its own turn.
_TRAVERSE = """\
gs = G{g}.get({key})
if gs is None:
    gs = G{g}[{key}] = CG{g}({key})
{outs}, ts, jp, te, _, ip = gs[2]({operands}, {old}, gs[3])
""" + _TRAVERSED.replace("{rows}", "gs[1].rows_evaluated")
_TAKE = """\
ins, dele = gi{g}_{m}, gd{g}_{m}
rows = sh[1].rows_evaluated
@ codegen_batch_rows=rows, differential_updates=1
""" + _NET
# An aggregate view's fold; an underflow changed, touched and rescanned
# nothing.
_FOLD = """\
rows = len(ins) + len(dele)
ins, dele, touched, rescanned, bad = {fold}({state}.groups, {state}.accumulators, ins, dele)
@ codegen_batch_rows=rows, aggregate_rows_folded=rows
@ aggregate_groups_touched=touched, aggregate_support_rescanned=rescanned
if bad is not None:
    raise UNDERFLOW({view_name}, bad)
"""
# The shape's entry, compiled on first survival.
_SHAPE = """\
sh = SH{i}.get({key})
if sh is None:
    t = []
    sh = CS{i}({key}, t)
    @ codegen_plans_compiled=len(t)
"""
# All or nothing: ``apply_counts`` refuses with nothing changed.  What is
# applied goes into the undo record ``u``.
_APPLY = """\
d{i} = ADOPT(S{i}, ins, dele) if ins or dele else None
@ view_tuples_inserted=len(ins), view_tuples_deleted=len(dele)
if d{i} is not None:
    APPLY(R{i}, ins, dele)
    V{i}.updates_applied += 1
    u[{i}] = {record}
@ deltas_applied=1
"""
# Delivered past the commit point.  Subscribe and unsubscribe replace
# the list: a callback may do either.
_DELIVER = """\
if d{i} is not None and E{i}.subscribers:
    DL.append((E{i}.subscribers, V{i}, d{i}))
"""
# An assertion's view must stay empty: the commit is undone.
_VIOLATION = """\
if ins:
    raise VIOLATION(V{i}, ins)
"""
# A deferred view reached by a commit composes its backlog, into a copy
# the undo record keeps the original of.
_BACKLOG = """\
c = C{i}
E{i}.commits_since_refresh += 1
u[{i}] = E{i}.pending
p = E{i}.pending = {{**u[{i}]}}
"""
_COMPOSE = """\
x = p.get(N{i}_{j})
x = {src} if x is None else x.compose({src})
if x.is_empty():
    p.pop(N{i}_{j}, None)
else:
    p[N{i}_{j}] = x
"""


def _underflow(view_name: str, row: ValueTuple) -> MaintenanceError:
    return MaintenanceError(
        f"aggregate maintenance for view {view_name!r} would delete more "
        f"copies of core row {row} than the group support holds"
    )


def violation(view: Any, inserted: Mapping[ValueTuple, int]) -> IntegrityViolation:
    """The error an assertion view holding the rows ``inserted`` raises:
    its witnesses are those rows, decoded and in order."""
    decode = view.contents.schema.decode_values
    return IntegrityViolation(view.definition.name, [decode(row) for row in sorted(inserted)])


def undo_views(views: Sequence[tuple[Any, bool, Any]], applied: list, stamps: Sequence[int]) -> None:
    """Reverse one trigger run's undo record, last view first: per
    ``(entry, compose, fold kernel)``, its stamp before the run, and
    what it ``applied`` — a view delta (an aggregate view's with the
    core delta it folded, refolded inverted) or a deferred view's
    backlog before it composed a copy — or None."""
    for (entry, compose, fold), record, stamp in reversed(tuple(zip(views, applied, stamps))):
        view = entry.view
        view.last_refresh_sequence = stamp
        if record is None:
            continue
        if compose:
            entry.pending = record
            entry.commits_since_refresh -= 1
            continue
        if fold is not None:
            record, inserted, deleted = record
            state = view.aggregate_state
            fold(state.groups, state.accumulators, deleted, inserted)
        apply_counts(view.contents, record.deleted, record.inserted)
        view.updates_applied -= 1


def raised_in(error: BaseException) -> Any:
    """The counters of the view whose stages in a trigger run raised
    ``error`` — what the trigger's frame held as ``c`` — or None when it
    raised before any view's stages began."""
    tb = error.__traceback__
    while tb is not None and tb.tb_frame.f_code.co_name != "trigger":
        tb = tb.tb_next
    return None if tb is None else tb.tb_frame.f_locals.get("c")


#: A trigger also builds, applies, nets and undoes view deltas.
_TRIGGER_GLOBALS = dict(
    _KERNEL_GLOBALS, ADOPT=Delta.adopt, APPLY=apply_counts, NET=net_counts, UNDERFLOW=_underflow,
    VIOLATION=violation, UNDO=undo_views,
)


class _Screens:
    """What one trigger screens.  Each source delta (a local ``a{k}`` or
    ``d{i}``) is sized once; each distinct screen program over it
    (:func:`program_key`) runs once, whichever views hold it; and the
    single-screen programs over one source that open with the same test
    run as one fused pass (:func:`generate_pass_source`), compiled here.
    The first view to read a source emits what it needs, so every later
    reader — which runs only when that one did — finds it bound."""

    def __init__(self, views: Sequence[tuple[Any, bool]], names: Sequence[str]) -> None:
        sources = {name: f"a{k}" for k, name in enumerate(names)}
        #: (source, program key) -> program number.
        self.program: dict[tuple[str, str], int] = {}
        # Per program: its source, the relation it screens, its screen.
        programs: list[tuple[str, str, Screen]] = []
        for i, (entry, compose) in enumerate(views):
            for dep in [] if compose else sorted(entry.dependencies & sources.keys()):
                screen = entry.plan._screen_kernels[dep]
                key = (sources[dep], program_key(screen.source))
                if screen.kernel is not None and key not in self.program:
                    self.program[key] = len(programs)
                    programs.append((sources[dep], dep, screen))
            if not compose:
                sources[entry.view.definition.name] = f"d{i}"
        leads: dict[tuple[str, str], list[int]] = {}
        for p, (src, _, screen) in enumerate(programs):
            if len(screen.blocks) == 1 and screen.blocks[0][0]:
                leads.setdefault((src, screen.blocks[0][0][0]), []).append(p)
        #: Per program, the expression of its result; the names the text
        #: reads.
        self.result: list[str] = []
        self.bound: dict[str, Any] = {}
        fused = [members for members in leads.values() if len(members) > 1]
        passes = {p: (g, r) for g, members in enumerate(fused) for r, p in enumerate(members)}
        for p, (src, _, screen) in enumerate(programs):
            if p in passes:
                self.result.append("r{0}[{1}]".format(*passes[p]))
            else:
                self.result.append(f"Q{p}({src}i, {src}d)")
                self.bound[f"Q{p}"] = screen.kernel
        #: Per program in a fused pass, the line that runs the pass.
        self.passes: dict[int, str] = {}
        for g, members in enumerate(fused):
            src, dep, _ = programs[members[0]]
            source = generate_pass_source(dep, [programs[p][2].blocks[0] for p in members])
            self.bound[f"P{g}"] = compile_kernel(source, "screen_kernel", f"<codegen:pass:{dep}>")
            self.passes.update((p, f"r{g} = P{g}({src}i, {src}d)") for p in members)
        # The sources sized, programs run and passes run so far.
        self.done: set[object] = set()

    def read(self, out: _Emitter, src: str, screen: Screen) -> str | None:
        """Screen ``src`` for one view reading it with ``screen``: the
        expression of what goes on, None when nothing can."""
        if src not in self.done:
            self.done.add(src)
            out.block(_SOURCE, src=src)
        if screen.kernel is None:
            out.block(_UNSCREENED[screen.kind], src=src, drop=screen.drop)
            return None if screen.drop else src
        p = self.program[src, program_key(screen.source)]
        out.block("@ tuples_screened={src}n", src=src)
        if p not in self.done:
            self.done.add(p)
            run = self.passes.get(p)
            if run is not None and run not in self.done:
                self.done.add(run)
                out.emit(run)
            out.block(_KEPT, src=src, p=p, result=self.result[p])
        out.block(_SCREENED, src=src, p=p)
        return f"s{p}"


def _screen_ident(screen: Screen) -> tuple[str, str]:
    """What one screen lets through, as far as text can tell: its kind
    and program (or the counter a proof drops the delta under)."""
    return screen.kind, program_key(screen.source) if screen.kernel is not None else screen.drop


def traversals(views: Sequence[tuple[Any, bool]], arrived: Sequence[str]) -> list[tuple[list[int], int]]:
    """The views of one trigger (:func:`generate_trigger_source`) that
    share one traversal: per group of two or more, its members' places
    in ``views``, in order, and the place of the view whose plan
    traverses.  A view joins a group when it reads the same deltas
    through the same screens as its members — so each skips, and runs
    the same shape, exactly when they do — and its core implies the
    atoms the traversing view's joins apply
    (:meth:`~repro.core.compiled.CompiledViewPlan.takes_traversal_of`);
    a view whose joins apply atoms every member implies takes the
    traversal over instead."""
    sources = {name: f"a{k}" for k, name in enumerate(sorted(arrived))}
    # Per group: what its views read, its members, the traversing view.
    groups: list[list[Any]] = []
    for i, (entry, compose) in enumerate(views):
        if compose:
            continue
        plan = entry.plan
        reads = tuple(
            (dep, sources[dep], _screen_ident(plan._screen_kernels[dep]))
            for dep in sorted(entry.dependencies) if dep in sources
        )
        sources[entry.view.definition.name] = f"d{i}"
        if all(plan._screen_kernels[dep].drop for dep, _, _ in reads):
            continue
        for group in groups:
            key, members, leader = group
            if key != reads:
                continue
            if plan.takes_traversal_of(views[leader][0].plan):
                members.append(i)
                break
            if all(views[j][0].plan.takes_traversal_of(plan) for j in members):
                members.append(i)
                group[2] = i
                break
        else:
            groups.append([reads, [i], i])
    return [(members, leader) for _, members, leader in groups if len(members) > 1]


def _emit_view(
    out: _Emitter, i: int, entry: Any, operands: list[tuple[str, str, bool]],
    screens: _Screens, refreshing: bool, verify: bool,
    share: tuple[int, int, list[Any], Any] | None = None,
) -> dict[str, Any]:
    """One maintained view's stages; its view delta is left in ``d{i}``
    (None when nothing changed).  ``share`` says which shared traversal
    the view takes (:func:`traversals`): its group's number, the view's
    place in it, the group's members' records and the traversing view's
    record.  Returns the names the text reads."""
    plan, view = entry.plan, entry.view
    bound = {f"E{i}": entry, f"V{i}": view, f"C{i}": entry.row.counters,
             f"S{i}": view.contents.schema, f"R{i}": view.contents, f"SH{i}": plan._shapes,
             f"CS{i}": plan._compile_shape, f"OLD{i}": plan._old_counts}
    # A plan DDL discarded counts a miss the first time it runs, once.
    out.block("c = C{0}\n" + (
        "if E{0}.missed:\n    E{0}.missed = False\n    @ transactions_seen=1, plan_cache_misses=1\n"
        "else:\n    " * entry.missed) + "@ transactions_seen=1, plan_cache_hits=1", i)
    # Operand name -> the expression of its screened delta, and whether
    # that may be None.
    live: dict[str, tuple[str, bool]] = {}
    for j, (name, src, dynamic) in enumerate(operands):
        screen = plan._screen_kernels[name]
        out.block(f"if {src} is not None:" * dynamic)
        out.indent += dynamic
        expr = screens.read(out, src, screen)
        out.indent -= dynamic
        if expr is not None and dynamic:
            out.block("    x{0} = {1}\nelse:\n    x{0} = None", j, expr)
            expr = f"x{j}"
        if expr is not None:
            live[name] = (expr, dynamic or screen.kernel is not None)
    # Applied: a raise from here on leaves no backlog to apply twice.
    settle = "V{i}.last_refresh_sequence = seq\n" + (
        "E{i}.pending = {{}}\nE{i}.commits_since_refresh = 0\n" * refreshing)
    skipped = all(nullable for _, nullable in live.values())
    if live and skipped:
        out.emit(f"if {' and '.join(f'{expr} is None' for expr, _ in live.values())}:")
    out.indent += bool(live) and skipped
    out.block(("@ transactions_skipped=1\n" + settle + "d{i} = None") * skipped, i=i)
    if not live:
        return bound
    if skipped:
        out.emit("else:", -1)
    key = f"K{i}"
    if len(live) == 1 or not any(nullable for _, nullable in live.values()):
        bound[key] = tuple(live)
    else:
        key = "k"
        out.emit("k = ()")
        for j, (name, (expr, nullable)) in enumerate(live.items()):
            bound[f"N{i}_{j}"] = name
            out.block(f"if {expr} is not None:\n    " * nullable + "k += (N{0}_{1},)", i, j)
    positions = ", ".join(live.get(name, ("None",))[0] for name in plan._occurrence_names)
    out.block(_SHAPE, i=i, key=key)
    if share is None:
        out.block(_ROWS, shape="sh", operands=f"[{positions}]", old=f"OLD{i}")
    else:
        g, m, members, leader = share
        if not m:
            bound[f"G{g}"] = {}
            bound[f"CG{g}"] = functools.partial(
                leader.plan.shared_shape, members=[member.plan for member in members],
                first=entry.view.definition.name,
            )
            outs = ", ".join(f"gi{g}_{n}, gd{g}_{n}" for n in range(len(members)))
            out.block(_TRAVERSE, g=g, key=key, outs=outs, operands=f"[{positions}]", old=f"OLD{i}")
        out.block(_TAKE, g=g, m=m)
    record = f"d{i}"
    if plan._aggregate_kernel is not None:
        bound[f"F{i}"] = plan._aggregate_kernel[1]
        record = f"(d{i}, ci, cd)"
        out.emit("ci, cd = ins, dele")
        out.block(_FOLD, fold=f"F{i}", state=f"V{i}.aggregate_state", view_name=f"V{i}.definition.name")
    assertion = entry.policy.value == "assertion"
    out.block(_APPLY + _VIOLATION * assertion + settle + f"VERIFY(V{i})\n" * verify + _DELIVER,
              i=i, record=record)
    out.indent -= skipped
    return bound


def generate_trigger_source(
    views: Sequence[tuple[Any, bool]], arrived: Sequence[str],
    refreshing: bool, recording: bool, verify: bool,
) -> tuple[str, dict[str, Any]]:
    """The trigger program of one set of changed relations, and the
    names its text reads — bound in the namespace, never written into
    the text but in comments, so triggers over relations of one shape
    are one program.  ``views`` are the maintainer's records of the
    views the deltas of ``arrived`` reach, in ordinal order, each with
    True for a deferred view a commit only backlogs; ``refreshing`` when
    the one view is a deferred view refreshed from its backlog.
    ``trigger(arrived, recorder, U, DL)`` runs each view's stages in
    order, hands a view delta on to what is stacked on it as a local,
    and passes over a view none of whose operands changed.  It appends
    its undo record to ``U`` (:func:`undo_views` reverses it) and each
    applied delta a view has subscribers for to ``DL``, to deliver once
    the commit stands.  Each view's stages run with its counters bound
    to ``c``, so whoever catches a raise can tell from the frame which
    view raised.  An assertion's view that the apply leaves non-empty
    raises ``IntegrityViolation``.  Each source
    delta is screened once per distinct program, however many views
    hold it (:class:`_Screens`).  With ``recording`` every count also
    joins one ``tally``, landed on ``recorder`` once, raise or not;
    ``verify`` re-derives each view it changed (``auto_verify``)."""
    names = sorted(arrived)
    out = _Emitter("counts" if recording else None)
    screens = _Screens(views, names)
    shares: dict[int, tuple[int, int, list[Any], Any]] = {}
    for g, (members, leader) in enumerate(traversals(views, names)):
        records = [views[j][0] for j in members]
        shares.update((j, (g, m, records, views[leader][0])) for m, j in enumerate(members))
    bound: dict[str, Any] = {f"A{k}": name for k, name in enumerate(names)}
    bound.update(screens.bound)
    bound["W"] = tuple(
        (entry, compose, None if compose or entry.plan._aggregate_kernel is None
         else entry.plan._aggregate_kernel[1])
        for entry, compose in views
    )
    bound.update((f"V{i}", entry.view) for i, (entry, _) in enumerate(views))
    out.emit(f"# trigger: {len(views)} view(s) reached from {quoted(names)}"
             + " (refresh)" * refreshing)
    out.emit("def trigger(arrived, recorder, U, DL):")
    out.lines += [f"    a{k} = arrived[A{k}]" for k in range(len(names))]
    out.block("    seq = LAST_SEQUENCE()" * any(not compose for _, compose in views)
              + "\n    tally = []\n    try:" * recording)
    out.indent = 1 + recording
    if not views:
        out.emit("pass")
    else:
        # The undo record: per view what it applied, and every view's
        # stamp before the run.
        stamps = "".join(f"V{i}.last_refresh_sequence, " for i in range(len(views)))
        out.block(f"u = [None] * {len(views)}\no = ({stamps})\nU.append((UNDO, W, u, o))")
    # Operand name -> the local holding its delta, and whether that may
    # be None at run time (a view delta).
    sources = {name: (f"a{k}", False) for k, name in enumerate(names)}
    for i, (entry, compose) in enumerate(views):
        operands = [(dep, *sources[dep]) for dep in sorted(entry.dependencies) if dep in sources]
        out.emit(f"# view {i}: {quoted(entry.view.definition.name)}")
        # Reached, but maybe no operand changed.
        guarded = all(dynamic for _, _, dynamic in operands)
        if guarded:
            out.block("d{0} = None\nif {1}:", i, " or ".join(f"{src} is not None" for _, src, _ in operands))
            operands = [(name, src, len(operands) > 1) for name, src, _ in operands]
        out.indent += guarded
        if not compose:
            bound.update(_emit_view(out, i, entry, operands, screens, refreshing, verify, shares.get(i)))
            sources[entry.view.definition.name] = (f"d{i}", True)
        else:
            bound[f"E{i}"], bound[f"C{i}"] = entry, entry.row.counters
            out.block(_BACKLOG, i=i)
            for j, (name, src, dynamic) in enumerate(operands):
                bound[f"N{i}_{j}"] = name
                out.block(f"if {src} is not None:" * dynamic)
                out.indent += dynamic
                out.block(_COMPOSE, i=i, j=j, src=src)
                out.indent -= dynamic
        out.indent -= guarded
    out.indent = 1
    out.block("finally:\n    if tally:\n        recorder.land(tally)" * recording)
    return out.source(), bound


Trigger = Callable[[Mapping[str, Any], Any, list, list], None]


def compile_trigger(
    views: Sequence[tuple[Any, bool]], arrived: Sequence[str], refreshing: bool,
    recording: bool, verify: Callable[[Any], object] | None, last_sequence: Callable[[], int],
) -> Trigger:
    """The program of :func:`generate_trigger_source`, compiled once per
    distinct program and bound to its names, to ``last_sequence`` (what
    a maintained view is stamped with) and to ``verify``."""
    source, bound = generate_trigger_source(
        views, arrived, refreshing, recording, verify is not None
    )
    namespace: dict = dict(_TRIGGER_GLOBALS, LAST_SEQUENCE=last_sequence, VERIFY=verify, **bound)
    exec(_load(source, "<codegen:trigger>"), namespace)  # noqa: S102 - the codegen seam
    return namespace["trigger"]


#: Per stage: its template, its parameters after ``c, tally``, its result.
_STAGES = {
    "screen": (_SOURCE + "@ tuples_screened={src}n\n" + _KEPT + _SCREENED, "a, kernel", "s0"),
    "pass": (_SOURCE + _UNSCREENED["pass"], "a, kernel", "a"),
    "probed pass": (_SOURCE + _UNSCREENED["probed pass"], "a, kernel", "a"),
    "drop": (_SOURCE + _DROP, "a, kernel", "None"),
    "rows": (_ROWS, "sh, operands, old", "ins, dele"),
    "fold": (_FOLD, "fold, st, view_name, ins, dele", "ins, dele"),
}


@functools.lru_cache(maxsize=None)
def _stage(kind: str, recording: bool, drop: str) -> Callable:
    template, parameters, result = _STAGES[kind]
    out = _Emitter("charges" if recording else None)
    out.block(f"def stage(c, tally, {parameters}):\n" + "\n".join(
        "    " + line for line in (template + f"return {result}").splitlines()
    ), src="a", p=0, result="kernel(ai, ad)", drop=drop, shape="sh", operands="operands",
        old="old", fold="fold", state="st", view_name="view_name")
    namespace: dict = dict(_TRIGGER_GLOBALS)
    exec(_load(out.source(), f"<codegen:stage:{kind}>"), namespace)  # noqa: S102 - the codegen seam
    return namespace["stage"]


def stage(kind: str, counted: Tally, charged: Tally | None, *args: Any, drop: str = "") -> Any:
    """Run one stage of a trigger — a screen of any kind
    (:attr:`Screen.kind`; ``drop`` names the counter of a delta a proof
    drops), ``"rows"`` or ``"fold"`` — as a function of its own, emitted
    from the same template: what the plan's stage methods run.  Row
    counts join ``counted``; the charges only an active recorder
    receives join ``charged`` (None: none is active)."""
    counters: defaultdict[str, int] = defaultdict(int)
    result = _stage(kind, charged is not None, drop)(counters, charged, *args)
    counted += counters.items()
    return result
