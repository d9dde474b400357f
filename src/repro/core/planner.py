"""Planning the evaluation of truth-table rows, with shared subexpressions.

Section 5.3 observes that once the truth-table rows to evaluate are
known, "we can further reduce the cost of materializing the view by
using an algorithm to determine a good order for execution of the
joins.  Notice that a new feature of our problem is the possibility of
saving computation by re-using partial subexpressions appearing in
multiple rows within the table."  Section 5.4 adds that each row's SPJ
expression can be evaluated by "some known algorithm" — the paper cites
QUEL decomposition; we substitute a direct pipelined hash-join
evaluator (see DESIGN.md).

This planner decides those ideas once per truth-table shape and lowers
them to plain data, :class:`ShapeOps` (:meth:`RowPlanner.lower`), which
the kernel generator (:mod:`repro.core.codegen`), ``explain``, the index
advisor, the analyzer and the test reference all read:

* **Order** — each truth-table row gets its own join order, chosen to
  start where that row is small: at its lowest DELTA position, then
  repeatedly the operand an equality atom links to what is already
  bound (DELTA before OLD, then the lower position), and an unlinked
  operand — a cross join — only when nothing is linked.  A row never
  opens with an OLD operand, so no row scans one whole: an OLD operand
  is reached through the keys of a delta-sized accumulator, which a
  persistent index answers.  The orders live in
  :attr:`RowPlanner.chains`, the one place a join order is decided.

* **Sharing** — every prefix result is memoized on its (position,
  choice) signature, so rows whose orders begin alike share the work
  up to the point they part; the :class:`StepPlan` of a step (its
  links, filters and accumulator layout) depends only on the positions
  joined so far and is likewise kept once per distinct order prefix.

* **Selection pushdown** — atoms of the view condition that appear in
  every DNF disjunct are applied as early as their variables are bound:
  equality atoms spanning the frontier become hash-join keys (with the
  paper's ``x = y + c`` offsets honoured), single-operand atoms become
  operand prefilters, and the rest become step post-filters.  With a
  purely conjunctive condition nothing is left for a final pass; a
  multi-disjunct condition is re-checked once at the end.

* **Access** — how each node reads its operand: a DELTA operand or an
  OLD one no link reaches is scanned (an OLD operand that changed less
  this transaction's inserts) and, once joined, hashed; a linked OLD
  operand is an index probe, as a set (a base relation) or a bag (an
  upstream view).
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Collection, NamedTuple, Optional, Sequence

from repro.algebra.conditions import Atom, Condition, Var
from repro.algebra.expressions import NormalForm
from repro.algebra.schema import RelationSchema
from repro.core.truthtable import DeltaRowChoice, Rows, delta_rows, render_row


class StepPlan:
    """Static plan for joining one operand onto the accumulator.

    Step plans are pure *plan-construction* artifacts: they hold the
    resolved hash-join links, the prefilter/postfilter atoms and key
    positions, and are reused verbatim across every execution of the
    owning :class:`RowPlanner` (and, through
    :class:`repro.core.compiled.CompiledViewPlan`, across transactions).

    A step is a function of the positions joined so far, in order
    (``prefix``, this operand last) — which atoms are links, which are
    filters and where the accumulator keeps each attribute all follow
    from it — so the planner keeps one per distinct prefix and every
    row chain that reaches the prefix shares it.  ``number`` counts the
    distinct steps of one planner in first-use order.
    """

    __slots__ = (
        "number",
        "prefix",
        "position",
        "operand_schema",
        "acc_schema",
        "eq_links",
        "link_attr_names",
        "prefilter_atoms",
        "postfilter_atoms",
        "operand_key_positions",
    )

    def __init__(
        self,
        number: int,
        prefix: tuple[int, ...],
        operand_schema: RelationSchema,
        acc_schema: RelationSchema,
        eq_links: Sequence[tuple[int, str, int]],
        prefilter_atoms: Sequence[Atom],
        postfilter_atoms: Sequence[Atom],
    ) -> None:
        self.number = number
        self.prefix = prefix
        self.position = prefix[-1]
        self.operand_schema = operand_schema
        self.acc_schema = acc_schema
        # (acc value position, operand attr name, shift): the operand
        # attribute must equal acc[pos] + shift.
        self.eq_links = tuple(eq_links)
        self.link_attr_names = tuple(name for _, name, _ in self.eq_links)
        self.operand_key_positions = tuple(
            operand_schema.index(name) for name in self.link_attr_names
        )
        # Conjunctions over the operand's tuple and the joined row.
        self.prefilter_atoms = tuple(prefilter_atoms)
        self.postfilter_atoms = tuple(postfilter_atoms)

    def describe(self, operand_names: Sequence[str]) -> str:
        """One human-readable line for this step of the plan."""
        head = f"step {self.number}: {operand_names[self.position]}"
        if len(self.prefix) > 1:
            joined = " ⋈ ".join(operand_names[p] for p in self.prefix[:-1])
            head += f" onto {joined}"
        parts = [head]
        if self.eq_links:
            links = ", ".join(
                f"{name} = acc[{pos}]{f' + {shift}' if shift else ''}"
                for pos, name, shift in self.eq_links
            )
            parts.append(f"hash-join on [{links}]")
        elif len(self.prefix) > 1:
            parts.append("cross join (no equality link)")
        if self.prefilter_atoms:
            parts.append("prefiltered")
        if self.postfilter_atoms:
            parts.append("post-filtered")
        return "; ".join(parts)


#: One truth-table row's plan: its steps in join order.
Chain = tuple[StepPlan, ...]

#: What an OLD probe reads: an operand's name and its attributes the
#: probe's links name — the hash index the probe binds.
ProbeTarget = tuple[str, tuple[str, ...]]


class Access(Enum):
    """How a node reads its operand's tuples.

    A root node, and the table of a hash join, are filled by a scan; a
    joined node with a probe target looks its operand up in a hash index
    instead.  OLD is ``r − d_r`` and an index holds the post-commit
    operand, so a changed operand's OLD drops this transaction's inserts;
    a bag operand (an upstream view) counts each tuple from its live
    count map, a set counts one.
    """

    DELTA_SCAN = "delta scan"
    OLD_SCAN = "OLD scan"
    OLD_SCAN_LESS_INSERTS = "OLD scan less inserts"
    SET_PROBE = "set probe"
    SET_PROBE_LESS_INSERTS = "set probe less inserts"
    BAG_PROBE = "bag probe"
    BAG_PROBE_LESS_INSERTS = "bag probe less inserts"


#: How many loops a row kernel nests before it stores a node and loops
#: over it afresh: Python compiles at most 20 nested blocks, and a hash
#: join fills its table two loops further in.
MAX_NESTING = 12


class Node(NamedTuple):
    """One distinct (position, choice) prefix of the shape's row orders:
    ``step``'s operand under ``choice`` joined onto node ``parent``
    (``None`` at a root).  A joined node with a ``table`` is a hash join
    whose table ``access`` fills; one with a ``target`` is an index
    probe."""

    name: str
    parent: Optional[int]
    step: StepPlan
    choice: DeltaRowChoice
    access: Access
    table: Optional[str]
    target: Optional[ProbeTarget]


class Finish(NamedTuple):
    """What turns a complete order's joined rows into view rows: the
    final DNF re-check (``None`` for a conjunctive condition) and the
    projection's positions, both over ``schema`` (the order's layout),
    and whether counters are pinned to one."""

    name: str
    condition: Optional[Condition]
    schema: RelationSchema
    positions: tuple[int, ...]
    counter_free: bool


class ShapeOps(NamedTuple):
    """One truth-table shape lowered to plain ops (:meth:`RowPlanner.lower`).

    ``nodes`` are in emission order — each row's new nodes follow the
    previous row's, its final node last — ``finishes`` hold one entry per
    distinct complete order, and ``rows`` maps each truth-table row, in
    ``planner.chains`` order, to its final node and its finish.  A row
    scores one memo hit iff an earlier row opened at its root node, so
    ``memo_hits`` is the rows less the roots; both are 0 when a shared
    ground atom is false and no row runs.
    """

    planner: "RowPlanner"
    nodes: tuple[Node, ...]
    finishes: tuple[Finish, ...]
    rows: dict[Rows, tuple[int, int]]
    rows_evaluated: int
    memo_hits: int

    @property
    def stored(self) -> dict[int, int]:
        """Node index → how many consumers read it, for each node a row
        kernel stores: one that two consumers read (a prefix rows
        share), or one :data:`MAX_NESTING` loops deep.  Every other node
        has one consumer — a node joined onto it, or its row's finishes
        — and runs inside that consumer's loop.  A final node joins
        every operand, so only its row's finishes read it: it is never
        stored."""
        nodes = self.nodes
        consumers = [0] * len(nodes)
        for node in nodes:
            if node.parent is not None:
                consumers[node.parent] += 1
        finals = {final for final, _ in self.rows.values()}
        for final in finals:
            consumers[final] += 1
        stored: dict[int, int] = {}
        depth = [0] * len(nodes)
        for i, node in enumerate(nodes):
            parent = node.parent
            depth[i] = 1 if parent is None else 1 + (1 if parent in stored else depth[parent])
            if consumers[i] > 1 or (depth[i] >= MAX_NESTING and i not in finals):
                stored[i] = consumers[i]
        return stored

    @property
    def probe_targets(self) -> dict[int, ProbeTarget]:
        """Step number → the target of its OLD probe, in step order."""
        return dict(
            sorted((n.step.number, n.target) for n in self.nodes if n.target)
        )

    def describe_row(self, row: Rows, quote: Callable[[str], str] = str) -> str:
        """One row's join order, e.g. ``i_customer -> lineitem [probe cust_id]``.

        A DELTA operand renders as ``i_<name>``; a joined operand says
        how it is reached: ``probe`` (by index), ``hash`` (by its link
        attributes) or ``cross`` (no equality link).  ``quote`` renders
        every relation and attribute name.
        """
        return self.describe_node(self.rows[row][0], quote)

    def describe_node(self, index: Optional[int], quote: Callable[[str], str] = str) -> str:
        """The join order up to node ``index``, as :meth:`describe_row`
        renders it."""
        occurrences = self.planner.normal_form.occurrences
        parts = []
        while index is not None:
            node = self.nodes[index]
            occurrence = occurrences[node.step.position]
            name = quote(occurrence.name)
            part = name if node.choice is DeltaRowChoice.OLD else f"i_{name}"
            if node.parent is not None:
                attrs = ", ".join(
                    quote(occurrence.inverse[q]) for q in node.step.link_attr_names
                )
                kind = "probe" if node.target else "hash" if attrs else "cross"
                part += f" [{kind} {attrs}]" if attrs else f" [{kind}]"
            parts.append(part)
            index = node.parent
        return " -> ".join(reversed(parts))

    def describe(self) -> str:
        """A human-readable account of the evaluation plan.

        Lists the truth-table rows to evaluate, each row's join order,
        and per distinct step: the hash-join links (with ``x = y + c``
        shifts), operand prefilters and post-join filters the pushdown
        assigned — the textual form of what the shape's row kernel
        executes.
        """
        planner = self.planner
        nf = planner.normal_form
        names = [occ.name for occ in nf.occurrences]
        lines = [
            f"view: {nf!r}",
            f"changed occurrences: "
            f"{[names[i] for i in planner.changed] or '(none: full evaluation)'}",
            f"rows to evaluate: {len(self.rows)}",
        ]
        for row in self.rows:
            lines.append(f"  {render_row(row, names)}")
        lines.append("join order per row (from its lowest delta, along the links):")
        for index, row in enumerate(self.rows):
            lines.append(f"  row {index}: {self.describe_row(row)}")
        lines.append("steps (one per distinct order prefix, shared across rows):")
        for step in planner.distinct_steps:
            lines.append("  " + step.describe(names))
        stored = self.stored
        if stored:
            lines.append("stored nodes (the rest run inside their consumer's loop):")
            for index, readers in stored.items():
                node = self.nodes[index]
                why = f"read by {readers}" if readers > 1 else f"{MAX_NESTING} loops deep"
                lines.append(f"  {node.name}: {self.describe_node(index)} ({why})")
        else:
            lines.append("stored nodes: none (every node runs inside its consumer's loop)")
        if self.finishes[0].condition is not None:
            lines.append("final pass: full DNF condition re-check")
        lines.append(
            "projection: " + ", ".join(out for out, _ in nf.projection)
        )
        return "\n".join(lines)


def shared_atoms(condition: Condition) -> list[Atom]:
    """The atoms every disjunct of ``condition`` holds, in the first
    disjunct's order (none for a false condition)."""
    disjuncts = condition.disjuncts
    shared = list(disjuncts[0].atoms) if disjuncts else []
    for other in disjuncts[1:]:
        other_set = set(other.atoms)
        shared = [a for a in shared if a in other_set]
    return shared


def _numbered(name: str, chain: Sequence[StepPlan]) -> str:
    """``name`` for the (prefix of a) chain: suffixed with its last
    step's number unless that number is the depth, which holds exactly
    along row 0's order — so a shape whose rows share one order reads as
    it did when the order was the shape's."""
    number = chain[-1].number
    return name if number == len(chain) - 1 else f"{name}_{number}"


class RowPlanner:
    """The evaluation plan of one truth-table shape of one view.

    Parameters
    ----------
    normal_form:
        The view in paper normal form.
    changed_positions:
        Occurrence positions with a non-empty (filtered) delta.
    """

    def __init__(
        self,
        normal_form: NormalForm,
        changed_positions: Sequence[int],
    ) -> None:
        self.normal_form = normal_form
        self.changed = tuple(sorted(set(changed_positions)))
        self._plan_condition()
        self._steps_by_prefix: dict[tuple[int, ...], StepPlan] = {}
        width = len(normal_form.occurrences)
        #: Truth-table row -> its chain, in truth-table order: the
        #: shape's 2^k − 1 rows, or the one all-OLD row of a full
        #: evaluation when nothing changed.  The one place a join order
        #: is decided; :meth:`lower` turns it into ops.
        self.chains: dict[Rows, Chain] = {
            row: self._build_chain(row)
            for row in (
                delta_rows(width, self.changed)
                or [(DeltaRowChoice.OLD,) * width]
            )
        }

    # ------------------------------------------------------------------
    # Static planning
    # ------------------------------------------------------------------
    def _operand_schema(self, position: int) -> RelationSchema:
        occurrence = self.normal_form.occurrences[position]
        qualified = self.normal_form.qualified_schema
        return qualified.project_schema(occurrence.qualified_names())

    def _plan_condition(self) -> None:
        """What of the condition every order shares: the pushable atoms
        and which operand pairs an equality atom links."""
        nf = self.normal_form
        pushable = shared_atoms(nf.condition)
        self._needs_final_filter = len(nf.condition.disjuncts) != 1

        # Ground atoms shared by every disjunct evaluate at plan time: a
        # false one makes the whole condition unsatisfiable, so no row
        # can ever contribute anything.
        self._always_empty = any(
            a.is_ground() and not a.truth_value() for a in pushable
        )
        self._pushable = [a for a in pushable if not a.is_ground()]

        owner = {
            name: occ.position
            for occ in nf.occurrences
            for name in occ.qualified_names()
        }
        self._linked: list[set[int]] = [set() for _ in nf.occurrences]
        for atom in self._pushable:
            names = atom.variables()
            if atom.op == "=" and len(names) == 2:
                p, q = (owner[name] for name in names)
                if p != q:
                    self._linked[p].add(q)
                    self._linked[q].add(p)

    def _build_chain(self, row: Rows) -> Chain:
        """One row's join order and steps, by the greedy rule: start at
        the row's lowest DELTA position, then keep appending an operand
        an equality atom links to what is bound — DELTA before OLD,
        then the lower position — and an unlinked one only when none is
        linked."""
        delta = DeltaRowChoice.DELTA
        rest = list(range(len(row)))
        prefix: tuple[int, ...] = (
            next((p for p in rest if row[p] is delta), 0),
        )
        rest.remove(prefix[0])
        chain = [self._step_for(prefix)]
        while rest:
            bound = set(prefix)
            position = min(
                rest,
                key=lambda p: (
                    not (self._linked[p] & bound),
                    row[p] is not delta,
                    p,
                ),
            )
            rest.remove(position)
            prefix += (position,)
            chain.append(self._step_for(prefix))
        return tuple(chain)

    def _step_for(self, prefix: tuple[int, ...]) -> StepPlan:
        """The step joining ``prefix[-1]`` onto ``prefix[:-1]`` (shared)."""
        step = self._steps_by_prefix.get(prefix)
        if step is not None:
            return step
        operand_schema = self._operand_schema(prefix[-1])
        operand_names = operand_schema.nameset
        parent = self._steps_by_prefix.get(prefix[:-1])
        acc_schema = parent.acc_schema if parent is not None else None
        new_acc_schema = (
            operand_schema
            if acc_schema is None
            else acc_schema.concat(operand_schema)
        )
        reachable = new_acc_schema.nameset

        # A pushable atom is applied at the step that binds its last
        # variable: as an operand prefilter, a hash-join key, or a
        # post-filter over the joined row.
        eq_links: list[tuple[int, str, int]] = []
        prefilter_atoms: list[Atom] = []
        postfilter_atoms: list[Atom] = []
        for atom in self._pushable:
            atom_vars = atom.variables()
            if not atom_vars <= reachable or not atom_vars & operand_names:
                continue
            if atom_vars <= operand_names:
                prefilter_atoms.append(atom)
                continue
            link = self._as_eq_link(atom, operand_schema, acc_schema)
            if link is not None:
                eq_links.append(link)
            else:
                postfilter_atoms.append(atom)

        step = StepPlan(
            len(self._steps_by_prefix),
            prefix,
            operand_schema,
            new_acc_schema,
            eq_links,
            prefilter_atoms,
            postfilter_atoms,
        )
        self._steps_by_prefix[prefix] = step
        return step

    @staticmethod
    def _as_eq_link(
        atom: Atom,
        operand_schema: RelationSchema,
        acc_schema: RelationSchema | None,
    ) -> tuple[int, str, int] | None:
        """Interpret ``atom`` as a hash-join key linking acc to operand.

        Returns ``(acc_position, operand_attr, shift)`` such that the
        join requires ``operand_attr == acc_values[acc_position] + shift``,
        or ``None`` when the atom is not a usable equality link.
        """
        if acc_schema is None or atom.op != "=" or not atom.is_two_variable():
            return None
        assert isinstance(atom.left, Var) and isinstance(atom.right, Var)
        x, y, c = atom.left.name, atom.right.name, atom.offset
        # Atom means value(x) = value(y) + c.
        if x in acc_schema.nameset and y in operand_schema.nameset:
            # value(y) = value(x) - c
            return (acc_schema.index(x), y, -c)
        if y in acc_schema.nameset and x in operand_schema.nameset:
            # value(x) = value(y) + c
            return (acc_schema.index(y), x, c)
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pushed_atoms(self) -> tuple[Atom, ...]:
        """The atoms every row's traversal applies as it joins: the
        non-ground atoms every disjunct holds."""
        return tuple(self._pushable)

    @property
    def distinct_steps(self) -> tuple[StepPlan, ...]:
        """Every step some chain uses, indexed by ``StepPlan.number``."""
        return tuple(self._steps_by_prefix.values())

    def lower(
        self, bag_operands: Collection[str] = (), counter_free: bool = False
    ) -> ShapeOps:
        """The shape as ops: every access, sharing and finish decision.

        ``bag_operands`` names the operands that are upstream views
        (bags); ``counter_free`` is true when a derived view key proves
        every view row has multiplicity ≤ 1, so the finishes pin each
        counter to one.  Node ``n_<choices>`` and finish ``apply_kernel``
        are suffixed with their last step's number off row 0's order; a
        hash table ``h_<step>_<CHOICE>`` is one per joined (step,
        choice) that no index answers, shared by every node joining it.
        """
        occurrences = self.normal_form.occurrences
        delta = DeltaRowChoice.DELTA
        nodes: list[Node] = []
        numbered: dict[str, int] = {}
        finishes: list[Finish] = []
        finished: dict[str, int] = {}
        rows: dict[Rows, tuple[int, int]] = {}
        for row, chain in self.chains.items():
            parent: Optional[int] = None
            sig = ""
            for depth, step in enumerate(chain):
                choice = row[step.position]
                sig += "D" if choice is delta else "O"
                name = _numbered(f"n_{sig}", chain[: depth + 1])
                if name not in numbered:
                    numbered[name] = len(nodes)
                    occurrence = occurrences[step.position]
                    changed = step.position in self.changed
                    table: Optional[str] = None
                    target: Optional[ProbeTarget] = None
                    if parent is None or choice is delta or not step.link_attr_names:
                        access = (
                            Access.DELTA_SCAN if choice is delta
                            else Access.OLD_SCAN_LESS_INSERTS if changed
                            else Access.OLD_SCAN
                        )
                        if parent is not None:
                            table = f"h_{step.number}_{choice.name}"
                    else:
                        if occurrence.name in bag_operands:
                            access = Access.BAG_PROBE_LESS_INSERTS if changed else Access.BAG_PROBE
                        else:
                            access = Access.SET_PROBE_LESS_INSERTS if changed else Access.SET_PROBE
                        target = (
                            occurrence.name,
                            tuple(occurrence.inverse[q] for q in step.link_attr_names),
                        )
                    nodes.append(Node(name, parent, step, choice, access, table, target))
                parent = numbered[name]
            assert parent is not None
            finish = _numbered("apply_kernel", chain)
            if finish not in finished:
                finished[finish] = len(finishes)
                schema = chain[-1].acc_schema
                finishes.append(Finish(
                    finish,
                    self.normal_form.condition if self._needs_final_filter else None,
                    schema,
                    tuple(schema.index(q) for _, q in self.normal_form.projection),
                    counter_free,
                ))
            rows[row] = (parent, finished[finish])
        evaluated = 0 if self._always_empty else len(rows)
        roots = sum(node.parent is None for node in nodes)
        return ShapeOps(
            self, tuple(nodes), tuple(finishes), rows,
            evaluated, evaluated and evaluated - roots,
        )
