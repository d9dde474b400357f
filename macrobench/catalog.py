"""The benchmark's schema, declared keys and view definitions.

The six order-flow views are stated here, in the shell grammar that
``repro.cli.parse_view_expression`` and ``serve --view NAME=SPEC`` share,
so the in-process workloads and the served child define byte-identical
views from one table.
"""

from __future__ import annotations

from config import Workload

#: Name -> spec, in dependency order (``open_premium`` stacks on ``open_lines``).
VIEW_SPECS: dict[str, str] = {
    "open_lines": (
        "lineitem where status = 0 and qty >= 5 "
        "select line_id, cust_id, prod_id, qty"
    ),
    "open_premium": "open_lines join customer where tier = 2 select line_id, cust_id",
    "pricey_open": (
        "lineitem join product where status = 0 and price > 400 "
        "select line_id, prod_id, price"
    ),
    "region_activity": "lineitem join customer where status = 0 select region",
    "region_qty": (
        "lineitem join customer where status = 0 "
        "group by region compute count() as n, sum(qty) as total_qty"
    ),
    "cat_price": (
        "lineitem join product where status = 0 "
        "group by category compute min(price) as lo, max(price) as hi, count() as n"
    ),
}

#: The view every read operation queries.
READ_TARGET = "region_qty"

#: Keys declared by the in-process workloads.  ``lineitem(line_id)`` and
#: ``product(prod_id)`` are left undeclared on purpose: key enforcement
#: sorts the relation's whole post-state on every commit that inserts into
#: it (12 ms per single-row insert at 2*10^4 lineitems), which would turn
#: every workload into a key-check benchmark.  The served child declares
#: none: checkpoints do not persist keys and ``serve`` has no key option.
KEYS: dict[str, tuple[str, ...]] = {"customer": ("cust_id",)}


def view_specs(workload: Workload) -> dict[str, str]:
    """Every view of one workload: the six above plus the aux catalog."""
    specs = dict(VIEW_SPECS)
    for k in range(workload.aux_relations):
        rel = f"aux{k}"
        aux = {
            f"{rel}_lo": f"{rel} where a < 25",
            f"{rel}_hi": f"{rel} where a >= 75 select id, a",
            f"{rel}_b3": f"{rel} where b = 3 select id",
            f"{rel}_cnt": f"{rel} group by b compute count() as n",
        }
        specs.update(list(aux.items())[: workload.aux_views_each])
    return specs
