"""Relational-algebra substrate.

This subpackage implements, from scratch, everything Section 3 of the
paper assumes of its host system: relation schemes over discrete domains,
tuples, *counted* relations (Section 5.2's multiplicity counters), deltas and
Section 5.3's insert/delete/old tags, the select–project–join
expression language and the condition language of Section 4.  A
view's ground truth is its definition as SQL on ``sqlite3``
(:mod:`repro.algebra.sqlite_oracle`, imported when a check runs).
"""

from repro.algebra.domains import Domain, IntegerDomain, FiniteDomain, StringDomain
from repro.algebra.schema import Attribute, RelationSchema
from repro.algebra.tuples import Row
from repro.algebra.tags import Tag
from repro.algebra.relation import Relation, Delta
from repro.algebra.conditions import (
    Atom,
    Conjunction,
    Condition,
    Term,
    Var,
    Const,
    TRUE,
    parse_condition,
)
from repro.algebra.expressions import (
    BaseRef,
    Select,
    Project,
    Join,
    Product,
    Rename,
    Union,
    Difference,
    Expression,
    NormalForm,
    Occurrence,
    to_normal_form,
)
from repro.algebra.rewrites import simplify_condition, push_selections, is_spj

__all__ = [
    "Domain",
    "IntegerDomain",
    "FiniteDomain",
    "StringDomain",
    "Attribute",
    "RelationSchema",
    "Row",
    "Tag",
    "Relation",
    "Delta",
    "Atom",
    "Conjunction",
    "Condition",
    "Term",
    "Var",
    "Const",
    "TRUE",
    "parse_condition",
    "BaseRef",
    "Select",
    "Project",
    "Join",
    "Product",
    "Rename",
    "Union",
    "Difference",
    "Expression",
    "NormalForm",
    "Occurrence",
    "to_normal_form",
    "simplify_condition",
    "push_selections",
    "is_spj",
]
