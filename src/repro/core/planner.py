"""Planning the evaluation of a join delta's terms.

Section 5.3 expands the join of ``(old ∪ changed)`` operands into a
truth table and evaluates the 2^k − 1 rows that hold a changed operand.
This planner evaluates the same delta as k terms instead — the
first-order delta rule (Olteanu's survey, PAPERS.md)::

    Δ(R1 ⋈ … ⋈ Rp) = Σ_i N1 ⋈ … ⋈ N(i−1) ⋈ ΔRi ⋈ O(i+1) ⋈ … ⋈ Op

one term per changed occurrence ``i``: its tagged delta, the stored
post-commit operand ``N`` left of it and the pre-commit operand ``O``
right of it (an unchanged operand is both).  The delta's tag is the
term's tag, so no tag algebra runs; with one changed occurrence the one
term is the table's one row.  Section 5.4 adds that each SPJ expression
can be evaluated by "some known algorithm" — the paper cites QUEL
decomposition; we substitute a direct pipelined hash-join evaluator
(see DESIGN.md).

This planner decides once per shape — the changed positions — and
lowers the terms to plain data, :class:`ShapeOps`
(:meth:`RowPlanner.lower`), which the kernel generator
(:mod:`repro.core.codegen`), ``explain``, the index advisor, the
analyzer and the test reference all read:

* **Order** — each term gets its own join order, chosen to start where
  the term is small: at its delta, then repeatedly the operand an
  equality atom links to what is already bound (the lower position
  first), and an unlinked operand — a cross join — only when nothing is
  linked.  No term scans a stored operand whole unless it is a cross
  join: a stored operand is reached through the keys of a delta-sized
  accumulator, which a persistent index answers.  The orders live in
  :attr:`RowPlanner.chains`, the one place a join order is decided.

* **Steps** — the :class:`StepPlan` of a step (its links, filters and
  accumulator layout) depends only on the positions joined so far, and
  is kept once per distinct order prefix.  Terms start at distinct
  deltas, so no two share a prefix.

* **Selection pushdown** — atoms of the view condition that appear in
  every DNF disjunct are applied as early as their variables are bound:
  equality atoms spanning the frontier become hash-join keys (with the
  paper's ``x = y + c`` offsets honoured), single-operand atoms become
  operand prefilters, and the rest become step post-filters.  With a
  purely conjunctive condition nothing is left for a final pass; a
  multi-disjunct condition is re-checked once at the end.

* **Access** — how each node reads its operand: the delta is scanned;
  an operand no link reaches is scanned and hashed; a linked one is an
  index probe, as a set (a base relation) or a bag (an upstream view).
  A changed operand right of the delta reads the pre-commit state
  (``PRE_COMMIT_*``): the stored rows less this commit's inserts, plus
  its deletes.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Collection, NamedTuple, Optional, Sequence

from repro.algebra.conditions import Atom, Condition, Var
from repro.algebra.expressions import NormalForm
from repro.algebra.schema import RelationSchema
from repro.core.truthtable import DeltaRowChoice, Rows


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
    from it — so the planner keeps one per distinct prefix.  ``number``
    counts the distinct steps of one planner in first-use order.
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


#: One term's plan: its steps in join order.
Chain = tuple[StepPlan, ...]

#: What a probe reads: an operand's name and its attributes the probe's
#: links name — the hash index the probe binds.
ProbeTarget = tuple[str, tuple[str, ...]]


class Access(Enum):
    """How a node reads its operand's tuples.

    A root node, and the table of a hash join, are filled by a scan; a
    joined node with a probe target looks its operand up in a hash index
    instead.  An index holds the stored, post-commit operand, so a
    pre-commit read drops this commit's inserts and adds back its
    deletes; a bag operand (an upstream view) counts each tuple from
    its live count map, a set counts one.
    """

    DELTA_SCAN = "delta scan"
    OLD_SCAN = "OLD scan"
    PRE_COMMIT_SCAN = "pre-commit scan"
    SET_PROBE = "set probe"
    PRE_COMMIT_SET_PROBE = "pre-commit set probe"
    BAG_PROBE = "bag probe"
    PRE_COMMIT_BAG_PROBE = "pre-commit bag probe"


#: The accesses that read an operand as it stood before the commit.
PRE_COMMIT = frozenset({
    Access.PRE_COMMIT_SCAN, Access.PRE_COMMIT_SET_PROBE, Access.PRE_COMMIT_BAG_PROBE,
})
#: The accesses that probe a bag and count each tuple from it.
BAG_PROBES = frozenset({Access.BAG_PROBE, Access.PRE_COMMIT_BAG_PROBE})


#: How many loops a row kernel nests before it stores a node and loops
#: over it afresh: Python compiles at most 20 nested blocks, and a hash
#: join fills its table two loops further in.
MAX_NESTING = 12


class Node(NamedTuple):
    """One step of a term's join order: ``step``'s operand, the delta
    (``choice`` DELTA) or untagged (OLD), joined onto node ``parent``
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
    """One shape lowered to plain ops (:meth:`RowPlanner.lower`).

    ``nodes`` are in emission order — each term's nodes follow the
    previous term's, its final node last — ``finishes`` hold one entry
    per term, and ``rows`` maps each term, in ``planner.chains`` order,
    to its final node and its finish.
    ``rows_evaluated`` counts the terms, 0 when a shared ground atom is
    false and none runs.
    """

    planner: "RowPlanner"
    nodes: tuple[Node, ...]
    finishes: tuple[Finish, ...]
    rows: dict[Rows, tuple[int, int]]
    rows_evaluated: int

    @property
    def stored(self) -> frozenset[int]:
        """The nodes a row kernel stores: each :data:`MAX_NESTING` loops
        deep, but a final node, which only its term's finishes read.
        Every other node runs inside the loop of the one node joined
        onto it, or of its term's finishes."""
        finals = {final for final, _ in self.rows.values()}
        stored: set[int] = set()
        depth = [0] * len(self.nodes)
        for i, node in enumerate(self.nodes):
            parent = node.parent
            depth[i] = 1 if parent is None else 1 + (1 if parent in stored else depth[parent])
            if depth[i] >= MAX_NESTING and i not in finals:
                stored.add(i)
        return frozenset(stored)

    @property
    def probe_targets(self) -> dict[int, ProbeTarget]:
        """Step number → the target of its OLD probe, in step order."""
        return dict(
            sorted((n.step.number, n.target) for n in self.nodes if n.target)
        )

    def describe_row(self, row: Rows, quote: Callable[[str], str] = str) -> str:
        """One term's join order, e.g. ``i_customer -> lineitem [probe cust_id]``.

        The delta renders as ``i_<name>``, a pre-commit operand as
        ``pre_<name>``; a joined operand says how it is reached:
        ``probe`` (by index), ``hash`` (by its link attributes) or
        ``cross`` (no equality link).  ``quote`` renders every relation
        and attribute name.
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
            part = (
                f"i_{name}" if node.choice is DeltaRowChoice.DELTA
                else f"pre_{name}" if node.access in PRE_COMMIT
                else name
            )
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

        Lists the terms to evaluate, each term's join order, and per
        distinct step: the hash-join links (with ``x = y + c`` shifts),
        operand prefilters and post-join filters the pushdown assigned —
        the textual form of what the shape's row kernel executes.
        """
        planner = self.planner
        nf = planner.normal_form
        names = [occ.name for occ in nf.occurrences]
        lines = [
            f"view: {nf!r}",
            f"changed occurrences: "
            f"{[names[i] for i in planner.changed] or '(none: full evaluation)'}",
            f"rows to evaluate: {len(self.rows)} (one term per changed occurrence)",
        ]
        for row in self.rows:
            lines.append(f"  {self.describe_row(row).replace(' -> ', ' ⋈ ')}")
        lines.append("join order per term (from its delta, along the links):")
        for index, row in enumerate(self.rows):
            lines.append(f"  row {index}: {self.describe_row(row)}")
        lines.append("steps (one per distinct order prefix):")
        for step in planner.distinct_steps:
            lines.append("  " + step.describe(names))
        stored = self.stored
        if stored:
            lines.append(f"stored nodes ({MAX_NESTING} loops deep; the rest run inside their consumer's loop):")
            for index in sorted(stored):
                lines.append(f"  {self.nodes[index].name}: {self.describe_node(index)}")
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
    """The evaluation plan of one shape of one view: its terms.

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
        delta, old = DeltaRowChoice.DELTA, DeltaRowChoice.OLD
        #: Term -> its chain: per changed position, in order, the row
        #: with DELTA there and OLD elsewhere; or the one all-OLD row of
        #: a full evaluation when nothing changed.  The one place a join
        #: order is decided; :meth:`lower` turns it into ops.
        self.chains: dict[Rows, Chain] = {
            row: self._build_chain(row)
            for row in (
                [tuple(delta if p == i else old for p in range(width)) for i in self.changed]
                or [(old,) * width]
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
        """One term's join order and steps, by the greedy rule: start at
        the term's delta (position 0 when it has none), then keep
        appending an operand an equality atom links to what is bound —
        the lower position first — and an unlinked one only when none
        is linked."""
        delta = DeltaRowChoice.DELTA
        rest = list(range(len(row)))
        prefix: tuple[int, ...] = (
            next((p for p in rest if row[p] is delta), 0),
        )
        rest.remove(prefix[0])
        chain = [self._step_for(prefix)]
        while rest:
            bound = set(prefix)
            position = min(rest, key=lambda p: (not (self._linked[p] & bound), p))
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
        """The atoms every term's traversal applies as it joins: the
        non-ground atoms every disjunct holds."""
        return tuple(self._pushable)

    @property
    def distinct_steps(self) -> tuple[StepPlan, ...]:
        """Every step some chain uses, indexed by ``StepPlan.number``."""
        return tuple(self._steps_by_prefix.values())

    def lower(
        self, bag_operands: Collection[str] = (), counter_free: bool = False
    ) -> ShapeOps:
        """The shape as ops: every access and finish decision.

        ``bag_operands`` names the operands that are upstream views
        (bags); ``counter_free`` is true when a derived view key proves
        every view row has multiplicity ≤ 1, so the finishes pin each
        counter to one.  Node ``n_<choices>`` and finish ``apply_kernel``
        are suffixed with their last step's number off the first term's
        order; a hash table ``h_<step>_OLD`` is one per joined step that
        no index answers.
        """
        occurrences = self.normal_form.occurrences
        delta = DeltaRowChoice.DELTA
        nodes: list[Node] = []
        finishes: list[Finish] = []
        rows: dict[Rows, tuple[int, int]] = {}
        for row, chain in self.chains.items():
            parent: Optional[int] = None
            sig = ""
            # A changed operand right of the delta is read pre-commit.
            first = row.index(delta) if delta in row else len(row)
            for depth, step in enumerate(chain):
                choice = row[step.position]
                sig += "D" if choice is delta else "O"
                occurrence = occurrences[step.position]
                pre = step.position > first and step.position in self.changed
                table: Optional[str] = None
                target: Optional[ProbeTarget] = None
                if parent is None or not step.link_attr_names:
                    access = (
                        Access.DELTA_SCAN if choice is delta
                        else Access.PRE_COMMIT_SCAN if pre
                        else Access.OLD_SCAN
                    )
                    if parent is not None:
                        table = f"h_{step.number}_OLD"
                else:
                    if occurrence.name in bag_operands:
                        access = Access.PRE_COMMIT_BAG_PROBE if pre else Access.BAG_PROBE
                    else:
                        access = Access.PRE_COMMIT_SET_PROBE if pre else Access.SET_PROBE
                    target = (
                        occurrence.name,
                        tuple(occurrence.inverse[q] for q in step.link_attr_names),
                    )
                name = _numbered(f"n_{sig}", chain[: depth + 1])
                nodes.append(Node(name, parent, step, choice, access, table, target))
                parent = len(nodes) - 1
            assert parent is not None
            schema = chain[-1].acc_schema
            rows[row] = (parent, len(finishes))
            finishes.append(Finish(
                _numbered("apply_kernel", chain),
                self.normal_form.condition if self._needs_final_filter else None,
                schema,
                tuple(schema.index(q) for _, q in self.normal_form.projection),
                counter_free,
            ))
        return ShapeOps(
            self, tuple(nodes), tuple(finishes), rows,
            0 if self._always_empty else len(rows),
        )
