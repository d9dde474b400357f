"""A solver-free checker of Section 4 screen decisions.

Theorem 4.1: updating tuple ``t`` of relation ``R`` is irrelevant to a
view exactly when the view condition, with ``t`` substituted at every
occurrence of ``R``, is unsatisfiable.  A certificate makes each
decision checkable by arithmetic alone, so this module imports no
constraint graph, no satisfiability test and no evaluator:

* a *drop* is refuted per (occurrence, disjunct): by a cited atom that
  is ground and false, or by a cycle of difference edges ``u − v ≤ w``,
  each an edge of the atom it cites, that closes with negative weight;
* a *pass* is witnessed by a database in which some combination
  through ``t``'s occurrence satisfies a disjunct;
* a probe the generator leaves out, ``-(e) + w + e < 0``, is accepted
  when its two bounds are one expression and ``w ≥ 0``: it never fires.
"""

from itertools import product

from repro.algebra.conditions import Var

#: The node standing for the constant zero.
ZERO = "0"

_OPS = {"=": int.__eq__, "<": int.__lt__, ">": int.__gt__, "<=": int.__le__, ">=": int.__ge__}


def binding(occurrence, attributes, values):
    """Qualified name -> value: ``values`` (of ``attributes``) at ``occurrence``."""
    return {occurrence.rename[a]: v for a, v in zip(attributes, values)}


def _term(term, bound):
    """A term as (node, constant): a free variable, or ZERO and a value."""
    if isinstance(term, Var):
        return (ZERO, bound[term.name]) if term.name in bound else (term.name, 0)
    return ZERO, term.value


def edges(atom, bound):
    """The edges ``(u, v, w)`` — each ``u − v ≤ w`` — that ``atom``
    states over the integers once ``bound`` is substituted."""
    (x, kx), (y, ky) = _term(atom.left, bound), _term(atom.right, bound)
    c = ky + atom.offset - kx
    return {"<=": [(x, y, c)], "<": [(x, y, c - 1)], ">=": [(y, x, -c)],
            ">": [(y, x, -c - 1)], "=": [(x, y, c), (y, x, -c)]}[atom.op]


def holds(atom, values):
    """``atom`` on integers; ``values`` binds every variable it names."""
    left, right = _term(atom.left, values), _term(atom.right, values)
    return _OPS[atom.op](left[1], right[1] + atom.offset)


def refutes(certificate, disjunct, bound):
    """Does ``certificate`` prove ``disjunct`` unsatisfiable under ``bound``?"""
    kind, body = certificate
    if kind == "ground":
        return body in disjunct.atoms and not (body.variables() - bound.keys()) and not holds(body, bound)
    closes = all(body[k][1] == body[(k + 1) % len(body)][0] for k in range(len(body)))
    cited = all(cite in disjunct.atoms and (u, v, w) in edges(cite, bound) for u, v, w, cite in body)
    return bool(body) and closes and cited and sum(w for _, _, w, _ in body) < 0


def accepts_drop(normal_form, relation, attributes, values, certificates):
    """``certificates[(position, k)]`` refutes disjunct ``k`` at each
    occurrence of ``relation``."""
    return all(
        refutes(certificates[occurrence.position, k], disjunct, binding(occurrence, attributes, values))
        for occurrence in normal_form.occurrences_of(relation)
        for k, disjunct in enumerate(normal_form.condition.disjuncts)
    )


def witnesses(normal_form, relation, values, rows, attributes):
    """Do ``rows`` (relation -> rows) and ``values`` inserted into
    ``relation`` hold a combination through one of its occurrences that
    satisfies a disjunct?  ``attributes`` names each relation's columns."""
    occurrences = normal_form.occurrences
    for target in normal_form.occurrences_of(relation):
        choices = [[values] if o is target else list(rows[o.name]) + [values] * (o.name == relation)
                   for o in occurrences]
        for combination in product(*choices):
            assignment = {}
            for o, row in zip(occurrences, combination):
                assignment.update(binding(o, attributes[o.name], row))
            if any(all(holds(a, assignment) for a in d.atoms) for d in normal_form.condition.disjuncts):
                return True
    return False


def accepts_probe_drop(lower, path, upper):
    """A left-out probe ``-(lower) + path + upper < 0`` can never fire."""
    return lower == upper and path >= 0
