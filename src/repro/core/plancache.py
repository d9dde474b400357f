"""The per-maintainer cache of compiled maintenance plans.

One :class:`PlanCache` lives inside each
:class:`~repro.core.maintainer.ViewMaintainer`.  It maps view names to
:class:`~repro.core.compiled.CompiledViewPlan` objects and tracks the
three events that matter for its correctness story:

* **hit** — a maintenance call executed an already-compiled plan;
* **miss** — no plan was cached (post-invalidation) and one was
  compiled;
* **invalidation** — a cached plan was discarded because something it
  depends on changed: an index was created or dropped, a base relation
  was dropped, or the view was re-registered under the same name.

The cache reports each event through its return values and the
maintainer counts it once, on the view's row (the ``plan_cache_*``
family of :mod:`repro.instrumentation`), so the amortization claim
("plans are built once per view, not once per transaction") is
observable per view, maintainer-wide and in the server's ``stats``
operation from the same increment.

Plan fingerprints (see :func:`repro.core.codegen.plan_fingerprint`)
cover the generated-source version, not just the normal form: bumping
``CODEGEN_VERSION`` when kernel emission changes misses on
:meth:`PlanCache.get` and recompiles, so source emitted by an older
generator is never executed.  Invalidation also drops the compiled
kernel artifacts along with the plan: a static-irrelevance proof baked
into generated screen source is discarded the moment
``declare_constraint`` / ``drop_constraint`` changes what is provable.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.compiled import CompiledViewPlan


class PlanCache:
    """Compiled plans keyed by view name, with explicit invalidation.

    The cache never compiles or counts anything itself — the maintainer
    owns both — it only stores, serves, and discards plans.  A
    fingerprint check on :meth:`get` guards against serving a plan
    compiled for a different definition that happens to share the
    view's name (the re-registration race the invalidation path exists
    to prevent).
    """

    __slots__ = ("_plans",)

    def __init__(self) -> None:
        self._plans: dict[str, CompiledViewPlan] = {}

    def get(
        self, name: str, fingerprint: tuple | None = None
    ) -> Optional[CompiledViewPlan]:
        """The cached plan for ``name`` (a hit), or None (a miss).

        When ``fingerprint`` is given (the maintenance path), a cached
        plan whose definition identity differs is treated as stale: it
        is evicted and the call is a miss.
        """
        plan = self._plans.get(name)
        if (
            plan is not None
            and fingerprint is not None
            and plan.fingerprint != fingerprint
        ):
            del self._plans[name]
            return None
        return plan

    def fingerprints(self) -> dict[str, tuple]:
        """Every cached plan's definition fingerprint, keyed by name.

        Purely observational — the staleness-audit hook: an external
        checker (the simulation harness's oracle, a debugging session)
        compares these against the live definitions' fingerprints to
        prove no cached plan outlived the definition it was compiled
        for.
        """
        return {name: plan.fingerprint for name, plan in self._plans.items()}

    def put(self, name: str, plan: CompiledViewPlan) -> CompiledViewPlan:
        """Store a freshly compiled plan (replacing any cached one)."""
        self._plans[name] = plan
        return plan

    def invalidate(self, name: str) -> bool:
        """Discard one view's plan; True when a plan was cached."""
        return self._plans.pop(name, None) is not None

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, name: str) -> bool:
        return name in self._plans

    def __iter__(self) -> Iterator[str]:
        return iter(self._plans)

    def __repr__(self) -> str:
        return f"<PlanCache {len(self._plans)} plans>"
