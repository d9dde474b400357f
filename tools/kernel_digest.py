"""One digest of the generated kernel text, pinned to ``CODEGEN_VERSION``.

The text ``repro.core.codegen`` emits is part of what a replica agrees
on, so it may change only with the version written into its header.
This tool hashes the ``kernel_source`` of a fixed corpus of views and
compares it with the digest checked in for the current version in
``tests/data/kernel_digest.json``:

* the views of ``tests/test_codegen.py`` and ``tests/test_row_orders.py``,
  the keyed views of ``tests/test_keys.py`` (FK reduction, counter-free
  apply kernels), a stacked self-join (bag operands), a cross join and
  a join post-filter;
* the 4-, 5- and 6-wide chains of ``tests/test_codegen.py`` and a
  3-occurrence self-join;
* the ``catalog_wide`` catalog of ``macrobench/catalog.py`` (read-only:
  schemas, keys and view specs);
* the 8-chain's shape changing every relation: eight terms, one kernel.

Usage, from the repository root::

    python tools/kernel_digest.py            # print the digest
    python tools/kernel_digest.py --check    # exit 1 unless it matches
    python tools/kernel_digest.py --update   # record it (a version bump)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "kernel_digest.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "macrobench")]


def _sources(maintainer, prefix: str) -> dict[str, str]:
    return {
        f"{prefix}/{name}": maintainer.kernel_source(name)
        for name in maintainer.view_names()
    }


def corpus() -> dict[str, str]:
    """Label -> generated text, for every entry of the corpus."""
    import catalog
    import config
    import gen
    from repro import BaseRef, Database, ViewMaintainer
    from repro.cli import parse_view_expression
    from repro.core import codegen
    from tests import test_codegen, test_keys, test_row_orders

    texts: dict[str, str] = {}

    def maintained(db, views, prefix):
        maintainer = ViewMaintainer(db)
        for name, expression in views.items():
            maintainer.define_view(name, expression)
        texts.update(_sources(maintainer, prefix))
        return maintainer

    maintained(test_codegen._fresh_database(), test_codegen.VIEW_SHAPES, "codegen")
    maintained(test_row_orders._database([], [], []), test_row_orders.VIEWS, "orders")
    maintained(
        test_keys.keyed_database(),
        {"fk": test_keys.fk_join_view(), "keyed": test_keys.keyed_join_view()},
        "keys",
    )
    maintained(
        test_codegen._fresh_database(),
        {
            "rs": BaseRef("r").product(BaseRef("s")).select("B = C"),
            "pairs": BaseRef("rs")
            .product(BaseRef("rs").rename({"A": "A2", "B": "B2", "C": "C2", "D": "D2"}))
            .select("D = A2"),
            "cross": BaseRef("r").product(BaseRef("t")).select("A < 5"),
            "theta": BaseRef("r").product(BaseRef("s")).select("B = C and A < D"),
        },
        "more",
    )
    for width in (4, 5, 6):
        db, expression, _ = test_codegen._chain(width)
        maintained(db, {"chain": expression}, f"chain{width}")
    db, expression, _ = test_codegen._self_join(3)
    maintained(db, {"self": expression}, "self3")

    workload = config.WORKLOADS["catalog_wide"]
    db = Database()
    schemas = dict(gen.SCHEMAS)
    for k in range(workload.aux_relations):
        schemas[f"aux{k}"] = gen.AUX_SCHEMA
    for name, attributes in schemas.items():
        db.create_relation(name, list(attributes), [])
    for name, key in catalog.KEYS.items():
        db.declare_key(name, list(key))
    maintained(
        db,
        {
            name: parse_view_expression(spec)
            for name, spec in catalog.view_specs(workload).items()
        },
        "catalog_wide",
    )

    db, expression, _ = test_codegen._chain(8)
    plan = maintained(db, {"chain": expression}, "chain8").peek_plan("chain")
    texts["chain8/every relation"] = codegen.generate_shape_source(plan.shape_ops(range(8)))
    return texts


def digest(texts: dict[str, str]) -> str:
    sha = hashlib.sha256()
    for label in sorted(texts):
        sha.update(f"{label}\n{len(texts[label])}\n".encode())
        sha.update(texts[label].encode())
    return sha.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="fail unless the digest matches")
    mode.add_argument("--update", action="store_true", help="record this version's digest")
    args = parser.parse_args(argv)

    from repro.core.codegen import CODEGEN_VERSION

    texts = corpus()
    found = digest(texts)
    version = str(CODEGEN_VERSION)
    recorded = json.loads(DIGESTS.read_text("utf-8")) if DIGESTS.exists() else {}
    print(f"codegen v{version}: {len(texts)} kernel listings, sha256 {found}")
    if args.update:
        recorded[version] = found
        DIGESTS.parent.mkdir(parents=True, exist_ok=True)
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", "utf-8")
        print(f"recorded in {DIGESTS.relative_to(ROOT)}")
    elif args.check:
        if recorded.get(version) != found:
            print(
                f"the generated text changed but CODEGEN_VERSION is still {version} "
                f"(recorded: {recorded.get(version)}); bump the version and run "
                "--update, or make the generator emit what it did",
                file=sys.stderr,
            )
            return 1
        print("matches the recorded digest")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
