"""Evaluation of truth-table rows, with shared subexpressions.

Section 5.3 observes that once the truth-table rows to evaluate are
known, "we can further reduce the cost of materializing the view by
using an algorithm to determine a good order for execution of the
joins.  Notice that a new feature of our problem is the possibility of
saving computation by re-using partial subexpressions appearing in
multiple rows within the table."  Section 5.4 adds that each row's SPJ
expression can be evaluated by "some known algorithm" — the paper cites
QUEL decomposition; we substitute a direct pipelined hash-join
evaluator (see DESIGN.md).

This planner implements those ideas concretely:

* **Order** — each truth-table row gets its own join order, chosen to
  start where that row is small: at its lowest DELTA position, then
  repeatedly the operand an equality atom links to what is already
  bound (DELTA before OLD, then the lower position), and an unlinked
  operand — a cross join — only when nothing is linked.  A row never
  opens with an OLD operand, so no row scans one whole: an OLD operand
  is reached through the keys of a delta-sized accumulator, which a
  persistent index answers.  The orders live in
  :attr:`RowPlanner.chains`, the one place a join order is decided;
  the reference evaluator and the kernel generator both walk it.

* **Sharing** — every prefix result is memoized on its (position,
  choice) signature, so rows whose orders begin alike share the work
  up to the point they part; the :class:`StepPlan` of a step (its
  links, filters and accumulator layout) depends only on the positions
  joined so far and is likewise kept once per distinct order prefix.
  Experiment E13 measures the effect of turning the memo off.

* **Selection pushdown** — atoms of the view condition that appear in
  every DNF disjunct are applied as early as their variables are bound:
  equality atoms spanning the frontier become hash-join keys (with the
  paper's ``x = y + c`` offsets honoured), single-operand atoms become
  operand prefilters, and the rest become step post-filters.  With a
  purely conjunctive condition nothing is left for a final pass; a
  multi-disjunct condition is re-checked once at the end.

* **Index probes** — an optional ``index_probe`` callback lets the
  caller (the view maintainer) answer OLD-operand probes from a
  persistent hash index instead of materializing and hashing the whole
  base relation per evaluation.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.algebra.conditions import Atom, Condition, Var
from repro.algebra.evaluate import compile_condition
from repro.algebra.expressions import NormalForm
from repro.algebra.relation import Relation, TaggedRelation
from repro.algebra.schema import RelationSchema
from repro.algebra.tags import Tag, combine_join_tags
from repro.core.truthtable import DeltaRowChoice, Rows, delta_rows, render_row
from repro.instrumentation import charge

ValueTuple = tuple[int, ...]

#: Rows returned by a probe: (encoded values, tag, count).
ProbeRow = tuple[ValueTuple, Tag, int]
#: A probe function: join-key values -> matching operand rows.
ProbeFn = Callable[[ValueTuple], Iterable[ProbeRow]]
#: Caller-provided index hook:
#: (position, link_attr_qualified_names) -> ProbeFn or None.
IndexProbe = Callable[[int, tuple[str, ...]], Optional[ProbeFn]]


class StepPlan:
    """Static plan for joining one operand onto the accumulator.

    Step plans are pure *plan-construction* artifacts: they hold the
    resolved hash-join links, prefilter/postfilter predicates and key
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
        "prefilter",
        "postfilter",
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
        # The raw atom lists are retained alongside the compiled
        # closures: the codegen backend re-emits them as inline source.
        self.prefilter_atoms = tuple(prefilter_atoms)
        self.postfilter_atoms = tuple(postfilter_atoms)
        self.prefilter = (
            compile_condition(Condition.of_atoms(prefilter_atoms), operand_schema)
            if prefilter_atoms
            else None
        )
        self.postfilter = (
            compile_condition(Condition.of_atoms(postfilter_atoms), acc_schema)
            if postfilter_atoms
            else None
        )

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
        if self.prefilter is not None:
            parts.append("prefiltered")
        if self.postfilter is not None:
            parts.append("post-filtered")
        return "; ".join(parts)


#: One truth-table row's plan: its steps in join order.
Chain = tuple[StepPlan, ...]


class RowPlanner:
    """Evaluates a batch of truth-table rows for one view and one
    transaction's operands.

    Parameters
    ----------
    normal_form:
        The view in paper normal form.
    changed_positions:
        Occurrence positions with a non-empty (filtered) delta.
    share_subexpressions:
        Memoize prefix joins across rows (default on; E13's ablation
        switch).
    index_probe:
        Optional hook answering OLD-operand probes from an index.
    """

    def __init__(
        self,
        normal_form: NormalForm,
        changed_positions: Sequence[int],
        share_subexpressions: bool = True,
        index_probe: IndexProbe | None = None,
    ) -> None:
        self.normal_form = normal_form
        self.share = share_subexpressions
        self.index_probe = index_probe
        self.changed = tuple(sorted(set(changed_positions)))
        self._output_schema = normal_form.output_schema()
        self._plan_condition()
        self._steps_by_prefix: dict[tuple[int, ...], StepPlan] = {}
        # Complete order -> (final DNF re-check, projection positions):
        # both read the fully joined row, whose layout is the order's.
        self._finishes: dict[
            tuple[int, ...],
            tuple[Optional[Callable[[ValueTuple], bool]], tuple[int, ...]],
        ] = {}
        width = len(normal_form.occurrences)
        #: Truth-table row -> its chain, in truth-table order: the
        #: shape's 2^k − 1 rows, or the one all-OLD row of a full
        #: evaluation when nothing changed.  The one place a join order
        #: is decided; :meth:`evaluate_rows` and the kernel generator
        #: both walk it.
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
        disjuncts = nf.condition.disjuncts
        if disjuncts:
            pushable = list(disjuncts[0].atoms)
            for other in disjuncts[1:]:
                other_set = set(other.atoms)
                pushable = [a for a in pushable if a in other_set]
        else:
            pushable = []
        self._needs_final_filter = len(disjuncts) != 1

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
        if prefix not in self._finishes:
            acc_schema = chain[-1].acc_schema
            nf = self.normal_form
            self._finishes[prefix] = (
                compile_condition(nf.condition, acc_schema)
                if self._needs_final_filter
                else None,
                tuple(acc_schema.index(q) for _, q in nf.projection),
            )
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
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate_rows(
        self,
        rows: Iterable[Rows],
        operands: Sequence[Mapping[DeltaRowChoice, TaggedRelation]],
        index_probe: IndexProbe | None = None,
    ) -> TaggedRelation:
        """Evaluate every row and merge the projected, tagged results.

        ``operands[position][choice]`` supplies the tagged tuples of
        each occurrence under each truth-table choice; DELTA entries are
        only consulted for changed positions.  ``index_probe`` answers
        OLD-operand probes for *this* execution; when omitted, the hook
        supplied at construction applies.  Separating the two is what
        lets one cached planner serve many transactions, each with its
        own delta-screened probe closure.
        """
        if index_probe is None:
            index_probe = self.index_probe
        memo: dict[tuple, TaggedRelation] = {}
        hash_cache: dict[tuple[int, DeltaRowChoice], dict] = {}
        merged = TaggedRelation(self._output_schema)
        if self._always_empty:
            return merged

        for row in rows:
            charge("delta_rows_evaluated")
            chain = self.chains[row]
            result = self._eval_prefix(
                chain, len(chain) - 1, row, operands, memo, hash_cache, index_probe
            )
            self._project_into(result, chain, merged)
        return merged

    def _eval_prefix(
        self,
        chain: Chain,
        step_index: int,
        row: Rows,
        operands: Sequence[Mapping[DeltaRowChoice, TaggedRelation]],
        memo: dict,
        hash_cache: dict,
        index_probe: IndexProbe | None,
    ) -> TaggedRelation:
        key = tuple(
            (step.position, row[step.position])
            for step in chain[: step_index + 1]
        )
        if self.share:
            cached = memo.get(key)
            if cached is not None:
                charge("subexpression_memo_hits")
                return cached

        step = chain[step_index]
        choice = row[step.position]
        if step_index == 0:
            result = self._load_first_operand(step, choice, operands)
        else:
            acc = self._eval_prefix(
                chain, step_index - 1, row, operands, memo, hash_cache, index_probe
            )
            result = self._join_step(
                acc, step, choice, operands, hash_cache, index_probe
            )

        if self.share:
            memo[key] = result
        return result

    def _load_first_operand(
        self,
        step: StepPlan,
        choice: DeltaRowChoice,
        operands: Sequence[Mapping[DeltaRowChoice, TaggedRelation]],
    ) -> TaggedRelation:
        source = operands[step.position][choice]
        out = TaggedRelation(step.operand_schema)
        prefilter = step.prefilter
        for values, tag, count in source.items():
            charge("tuples_scanned")
            if prefilter is None or prefilter(values):
                out.add(values, tag, count)
        return out

    def _join_step(
        self,
        acc: TaggedRelation,
        step: StepPlan,
        choice: DeltaRowChoice,
        operands: Sequence[Mapping[DeltaRowChoice, TaggedRelation]],
        hash_cache: dict,
        index_probe: IndexProbe | None,
    ) -> TaggedRelation:
        out = TaggedRelation(step.acc_schema)
        if acc.is_empty():
            return out

        probe = self._probe_for(step, choice, operands, hash_cache, index_probe)
        eq_links = step.eq_links
        postfilter = step.postfilter
        for acc_values, acc_tag, acc_count in acc.items():
            charge("join_probes")
            probe_key = tuple(acc_values[pos] + shift for pos, _, shift in eq_links)
            for op_values, op_tag, op_count in probe(probe_key):
                tag = combine_join_tags(acc_tag, op_tag)
                if tag is Tag.IGNORE:
                    charge("tuples_ignored")
                    continue
                row = acc_values + op_values
                if postfilter is not None and not postfilter(row):
                    continue
                charge("tuples_emitted")
                out.add(row, tag, acc_count * op_count)
        return out

    def _probe_for(
        self,
        step: StepPlan,
        choice: DeltaRowChoice,
        operands: Sequence[Mapping[DeltaRowChoice, TaggedRelation]],
        hash_cache: dict,
        index_probe: IndexProbe | None,
    ) -> ProbeFn:
        """A probe function over the operand, preferring a caller index.

        The index fast path applies to OLD operands only (indexes track
        base relations and materialized views); DELTA operands are
        hashed directly — they are small by assumption.
        """
        if (
            choice is DeltaRowChoice.OLD
            and index_probe is not None
            and step.link_attr_names
        ):
            indexed = index_probe(step.position, step.link_attr_names)
            if indexed is not None:
                prefilter = step.prefilter
                if prefilter is None:
                    return indexed

                def filtered(key: ValueTuple, _inner=indexed, _pred=prefilter):
                    for values, tag, count in _inner(key):
                        if _pred(values):
                            yield values, tag, count

                return filtered

        # One table per distinct step: the key attributes and the
        # prefilter are the step's, not the operand's.
        cache_key = (step.number, choice)
        table = hash_cache.get(cache_key)
        if table is None:
            table = {}
            source = operands[step.position][choice]
            key_positions = step.operand_key_positions
            prefilter = step.prefilter
            for values, tag, count in source.items():
                charge("tuples_scanned")
                if prefilter is not None and not prefilter(values):
                    continue
                key = tuple(values[i] for i in key_positions)
                table.setdefault(key, []).append((values, tag, count))
            hash_cache[cache_key] = table
        return lambda key: table.get(key, ())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def distinct_steps(self) -> tuple[StepPlan, ...]:
        """Every step some chain uses, indexed by ``StepPlan.number``."""
        return tuple(self._steps_by_prefix.values())

    def old_probe_steps(self) -> tuple[StepPlan, ...]:
        """The distinct steps some row joins as an OLD operand through
        equality links — the probes a persistent index can answer."""
        found = {
            step.number: step
            for row, chain in self.chains.items()
            for step in chain[1:]
            if row[step.position] is DeltaRowChoice.OLD and step.link_attr_names
        }
        return tuple(found[number] for number in sorted(found))

    def finish_of(
        self, chain: Chain
    ) -> tuple[Optional[Callable[[ValueTuple], bool]], tuple[int, ...]]:
        """What turns a chain's joined rows into view rows: the final
        DNF re-check (``None`` for a conjunctive condition) and the
        positions the projection keeps, both over ``chain[-1].acc_schema``."""
        return self._finishes[chain[-1].prefix]

    @property
    def always_empty(self) -> bool:
        """True when a shared ground atom is false: no row contributes."""
        return self._always_empty

    @property
    def needs_final_filter(self) -> bool:
        """True when the full DNF condition is re-checked at the end."""
        return self._needs_final_filter

    def describe_chain(
        self, row: Rows, quote: Callable[[str], str] = str
    ) -> str:
        """One row's join order, e.g. ``i_customer -> lineitem [probe cust_id]``.

        A DELTA operand renders as ``i_<name>``; a joined operand says
        how it is reached: ``probe`` (OLD, by its link attributes —
        from a persistent index where one exists), ``hash`` (DELTA, by
        its link attributes) or ``cross`` (no equality link).  ``quote``
        renders every relation and attribute name.
        """
        occurrences = self.normal_form.occurrences
        parts = []
        for step in self.chains[row]:
            occurrence = occurrences[step.position]
            old = row[step.position] is DeltaRowChoice.OLD
            part = quote(occurrence.name) if old else f"i_{quote(occurrence.name)}"
            if len(step.prefix) > 1:
                attrs = ", ".join(
                    quote(occurrence.inverse[q]) for q in step.link_attr_names
                )
                if not attrs:
                    part += " [cross]"
                else:
                    part += f" [{'probe' if old else 'hash'} {attrs}]"
            parts.append(part)
        return " -> ".join(parts)

    def describe(self) -> str:
        """A human-readable account of the evaluation plan.

        Lists the truth-table rows to evaluate, each row's join order,
        and per distinct step: the hash-join links (with ``x = y + c``
        shifts), operand prefilters and post-join filters the pushdown
        assigned — the textual form of what :meth:`evaluate_rows` will
        execute.
        """
        nf = self.normal_form
        names = [occ.name for occ in nf.occurrences]
        lines = [
            f"view: {nf!r}",
            f"changed occurrences: "
            f"{[names[i] for i in self.changed] or '(none: full evaluation)'}",
            f"rows to evaluate: {len(self.chains)}",
        ]
        for row in self.chains:
            lines.append(f"  {render_row(row, names)}")
        lines.append("join order per row (from its lowest delta, along the links):")
        for index, row in enumerate(self.chains):
            lines.append(f"  row {index}: {self.describe_chain(row)}")
        lines.append("steps (one per distinct order prefix, shared across rows):")
        for step in self._steps_by_prefix.values():
            lines.append("  " + step.describe(names))
        if self._needs_final_filter:
            lines.append("final pass: full DNF condition re-check")
        lines.append(
            "projection: " + ", ".join(out for out, _ in nf.projection)
        )
        lines.append(
            f"subexpression sharing: {'on' if self.share else 'off'}; "
            f"index probes: {'available' if self.index_probe else 'none'}"
        )
        return "\n".join(lines)

    def _project_into(
        self, result: TaggedRelation, chain: Chain, merged: TaggedRelation
    ) -> None:
        """Apply the final filter and projection; accumulate into merged."""
        final_filter, positions = self.finish_of(chain)
        for values, tag, count in result.items():
            if final_filter is not None and not final_filter(values):
                continue
            merged.add(tuple(values[i] for i in positions), tag, count)


def evaluate_normal_form(
    normal_form: NormalForm, instances: Mapping[str, Relation]
) -> Relation:
    """Full (non-differential) evaluation via the reference planner.

    Treats every operand as OLD and evaluates the single all-old row,
    tuple by tuple, charging as it goes.  This is the reference
    library's complete evaluation — the complete re-evaluation
    baseline, the extensions and the row-cap fallback run it; the
    maintainer materializes a view on its generated kernels instead
    (:meth:`~repro.core.compiled.CompiledViewPlan.evaluate`), so a
    clock comparing the two is not apples-to-apples.  Returns a counted
    :class:`~repro.algebra.relation.Relation` over the view's output
    schema.

    The naive tree evaluator (:func:`repro.algebra.evaluate.evaluate`)
    is retained as an *independent* oracle; the test suite cross-checks
    the two on random inputs.
    """
    planner = RowPlanner(normal_form, changed_positions=())
    operands = []
    for occurrence in normal_form.occurrences:
        relation = instances[occurrence.name]
        occ_schema = normal_form.qualified_schema.project_schema(
            occurrence.qualified_names()
        )
        tagged = TaggedRelation(occ_schema)
        for values, count in relation.items():
            tagged.add(values, Tag.OLD, count)
        operands.append({DeltaRowChoice.OLD: tagged})
    merged = planner.evaluate_rows(planner.chains, operands)

    out = Relation(normal_form.output_schema())
    counts = out._counts
    for values, tag, count in merged.items():
        assert tag is Tag.OLD
        counts[values] = counts.get(values, 0) + count
    return out
