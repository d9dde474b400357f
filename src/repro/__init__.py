"""repro — a reproduction of Blakeley, Larson & Tompa,
"Efficiently Updating Materialized Views" (SIGMOD 1986).

The library keeps materialized select–project–join views consistent
with their base relations using the paper's two-stage mechanism:

1. **Irrelevance filtering** (Section 4): updates whose substituted
   view condition is unsatisfiable — decided in polynomial time via the
   Rosenkrantz–Hunt constraint graph — provably cannot affect the view
   and are discarded without touching any data.
2. **Differential re-evaluation** (Section 5): surviving updates are
   propagated by evaluating only the truth-table delta rows of the view
   expression, with multiplicity counters making projection exact and
   insert/delete tags making mixed transactions exact.

Quickstart::

    from repro import Database, ViewMaintainer, BaseRef

    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 2), (5, 10)])
    db.create_relation("s", ["C", "D"], [(2, 10), (10, 20)])

    maintainer = ViewMaintainer(db)
    view = maintainer.define_view(
        "u",
        BaseRef("r").product(BaseRef("s"))
                    .select("A < 10 and C > 5 and B = C")
                    .project(["A", "D"]),
    )

    with db.transact() as txn:
        txn.insert("r", (9, 10))       # relevant: flows into the view
        txn.insert("r", (11, 10))      # provably irrelevant: filtered

    print(view.contents.pretty())
"""

from repro.errors import (
    ReproError,
    SchemaError,
    DomainError,
    ConditionError,
    ExpressionError,
    TransactionError,
    UnknownRelationError,
    UnknownViewError,
    ViewDefinitionError,
    MaintenanceError,
    ReplicationError,
)
from repro.algebra import (
    Attribute,
    RelationSchema,
    Row,
    Relation,
    Delta,
    Tag,
    Atom,
    Conjunction,
    Condition,
    Var,
    Const,
    TRUE,
    parse_condition,
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
)
from repro.algebra.domains import Domain, IntegerDomain, FiniteDomain, StringDomain
from repro.algebra.expressions import to_normal_form
from repro.engine import Database, Transaction
from repro.core import (
    is_satisfiable,
    is_satisfiable_conjunction,
    solve_conjunction,
    solve_condition,
    RelevanceFilter,
    is_irrelevant_update,
    is_irrelevant_combination,
    ViewDefinition,
    MaterializedView,
    ViewMaintainer,
    MaintenancePolicy,
    check_view_consistency,
)
from repro.baselines import FullReevaluationMaintainer, KeyProjectionView
from repro.instrumentation import CostRecorder, recording
from repro.replication import (
    DurabilityManager,
    Follower,
    Recovery,
    WalCorruptionError,
    WalReader,
    WalWriter,
    recover,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "SchemaError",
    "DomainError",
    "ConditionError",
    "ExpressionError",
    "TransactionError",
    "UnknownRelationError",
    "UnknownViewError",
    "ViewDefinitionError",
    "MaintenanceError",
    "ReplicationError",
    # algebra
    "Attribute",
    "RelationSchema",
    "Row",
    "Relation",
    "Delta",
    "Tag",
    "Atom",
    "Conjunction",
    "Condition",
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
    "to_normal_form",
    "Domain",
    "IntegerDomain",
    "FiniteDomain",
    "StringDomain",
    # engine
    "Database",
    "Transaction",
    # core
    "is_satisfiable",
    "is_satisfiable_conjunction",
    "solve_conjunction",
    "solve_condition",
    "RelevanceFilter",
    "is_irrelevant_update",
    "is_irrelevant_combination",
    "ViewDefinition",
    "MaterializedView",
    "ViewMaintainer",
    "MaintenancePolicy",
    "check_view_consistency",
    # baselines
    "FullReevaluationMaintainer",
    "KeyProjectionView",
    # replication
    "DurabilityManager",
    "Follower",
    "Recovery",
    "recover",
    "WalCorruptionError",
    "WalReader",
    "WalWriter",
    # instrumentation
    "CostRecorder",
    "recording",
    "__version__",
]
