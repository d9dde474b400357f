"""The metrics registry: every counter the system keeps, declared once.

The paper argues about costs in terms of *work avoided* — tuples that
never reach a join, truth-table rows that never get evaluated, views
that never get recomputed.  Wall-clock time alone hides those effects
behind constant factors, so the code counts abstract operations
instead.  :data:`METRICS` below is the catalogue (name, family, unit,
one-line doc); a name it does not declare is an
:class:`~repro.errors.UnknownMetricError`, never a new counter.

One bag type, :class:`CostRecorder`, serves both ways of counting:

* **context recording** — opt-in and near-zero-cost when inactive:
  :func:`charge` adds to the recorder activated by :func:`recording`,
  a :class:`contextvars.ContextVar`, so blocks are *isolated* —
  concurrent asyncio tasks (the view-server handles many sessions on
  one event loop) and threads each see only their own recorder, and
  nesting routes charges to the innermost recorder until it exits;
* **always-on totals** — each of the maintainer's per-view rows and
  the scheduler own a bag and count with :meth:`CostRecorder.count`,
  which feeds the bag and the active recorder in one increment (the
  maintainer-wide totals are the sum of its rows, dropped views'
  included).  A commit adds each view's counts straight into that
  view's row, and with a recorder active lands one :data:`Tally` of
  the commit's increments on it once (:meth:`CostRecorder.land`); a
  plan stage called on its own defers its increments to two tallies
  and lands them together (:meth:`CostRecorder.settle`).  The server
  and the cluster coordinator activate their own bag around the work
  they host, so they count with ``incr`` / :func:`charge`.

A counter names one kind of work, not one call site: the evaluation and
screening counters are charged by the per-tuple reference functions
*and*, in bulk, by the drivers of the generated kernels that mirror
them (:mod:`repro.core.compiled`), so a recorder reads the same numbers
whichever executed.

Usage::

    recorder = CostRecorder()
    with recording(recorder):
        maintainer.apply_transaction(...)
    print(recorder.counters)
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, NamedTuple

from repro.errors import UnknownMetricError


class Metric(NamedTuple):
    """One declared counter."""

    name: str
    #: The layer that counts it; the fixed-key read surfaces
    #: (``all_stats``, ``plan_cache_stats``, the ``stats`` op's
    #: sections) are per-family reads (:meth:`CostRecorder.family`).
    family: str
    unit: str
    doc: str


def _declare(*families: tuple[str, tuple[tuple[str, str, str], ...]]) -> dict[str, Metric]:
    metrics: dict[str, Metric] = {}
    for family, rows in families:
        for name, unit, doc in rows:
            assert name not in metrics, f"metric {name!r} declared twice"
            metrics[name] = Metric(name, family, unit, doc)
    return metrics


#: Every metric, in report order.  The per-view maintenance row is the
#: ``view`` and ``plan_cache`` families; ``docs/server.md`` lists the
#: ``server`` family for the wire.
METRICS: dict[str, Metric] = _declare(
    ("evaluation", (
        ("tuples_scanned", "tuples", "operand tuples read by a scan, a hash-table build or an aggregation"),
        ("join_probes", "probes", "accumulator tuples probed into an operand"),
        ("tuples_emitted", "tuples", "tuples a select, project or join step produced"),
        ("index_probes", "probes", "lookups answered by an engine hash index"),
    )),
    ("differential", (  # Section 5
        ("differential_updates", "calls", "view deltas computed"),
        ("truth_table_rows", "rows", "delta terms enumerated: one per changed occurrence (Section 5.3's table would have 2^k − 1 rows)"),
        ("delta_rows_evaluated", "rows", "delta terms a row kernel actually evaluated"),
    )),
    ("screening", (  # Section 4
        ("filter_tuples_checked", "tuples", "delta tuples put through a relevance screen"),
        ("filter_ground_evals", "atoms", "variant atoms evaluated on a substituted tuple"),
        ("filter_bound_probes", "probes", "negative-cycle probes of a tuple's variant bounds against the invariant graph"),
        ("sat_checks", "calls", "conjunction satisfiability tests"),
        ("floyd_warshall_runs", "calls", "constraint-graph solves by Floyd–Warshall"),
        ("bellman_ford_runs", "calls", "constraint-graph solves by Bellman–Ford"),
    )),
    ("view", (  # kept per view and maintainer-wide
        ("transactions_seen", "calls", "maintenance calls (commits or refreshes that reached the view)"),
        ("transactions_skipped", "calls", "maintenance calls whose every delta tuple was screened out"),
        ("deltas_applied", "calls", "maintenance calls that ran the differential and applied its delta"),
        ("tuples_screened", "tuples", "delta tuples offered to the view, screened or dropped wholesale"),
        ("tuples_irrelevant", "tuples", "of those, tuples proven unable to affect the view"),
        ("tuples_static_dropped", "tuples", "of those, tuples dropped by a compile-time proof, unscreened"),
        ("view_tuples_inserted", "tuples", "distinct tuples inserted into view contents"),
        ("view_tuples_deleted", "tuples", "distinct tuples deleted from view contents"),
    )),
    ("plan_cache", (  # kept per view and maintainer-wide
        ("plan_cache_hits", "calls", "maintenance calls that executed an already-compiled plan"),
        ("plan_cache_misses", "calls", "maintenance calls that found no plan cached and compiled one"),
        ("plan_cache_invalidations", "plans", "cached plans discarded by DDL or a view drop"),
    )),
    ("maintenance", (
        ("aggregate_rows_folded", "rows", "core-delta rows folded into aggregate support bags"),
        ("aggregate_groups_touched", "groups", "groups re-rendered by those folds"),
        ("aggregate_support_rescanned", "rows", "support-bag rows rescanned because a fold removed a row carrying its group's MIN/MAX"),
        ("baseline_recomputations", "views", "views recomputed by the full-re-evaluation baseline"),
    )),
    ("codegen", (  # docs/codegen.md
        ("codegen_plans_compiled", "kernels", "kernel sets generated and installed: once per plan's screen and fold kernels, once per truth-table shape"),
        ("codegen_batch_rows", "rows", "delta tuples screened, truth-table rows evaluated and core rows folded by generated kernels"),
        ("codegen_fallback_tuples", "tuples", "always 0: every shape runs on kernels; kept for macrobench/layers.py, which reads it"),
    )),
    ("analysis", (  # docs/analysis.md
        ("analysis_runs", "calls", "static analyzer runs"),
        ("analysis_definitions_checked", "views", "definitions put through the per-view checks"),
        ("analysis_view_pairs_compared", "pairs", "view pairs compared for subsumption or equivalence"),
        ("static_irrelevance_proofs", "proofs", "Theorem 4.1 proofs attempted against a declared constraint"),
        ("static_tuples_dropped", "tuples", "tuples a plan's static-irrelevance proof discarded unscreened"),
        ("dependency_closures", "calls", "attribute closures computed by the chase"),
        ("view_keys_derived", "proofs", "successful chase proofs of a view key"),
        ("fk_reductions_derived", "proofs", "successful chase proofs of an FK-join reduction"),
        ("fk_probe_tuples_dropped", "tuples", "probe-relation delta tuples an FK-reduced plan discarded unscreened"),
    )),
    ("durability", (
        ("wal_records_appended", "records", "records appended to the write-ahead log"),
        ("wal_bytes_written", "bytes", "bytes appended to the write-ahead log"),
        ("wal_fsyncs", "calls", "fsyncs issued by the WAL writer"),
        ("wal_segments_rotated", "segments", "WAL segments closed and replaced"),
        ("wal_records_read", "records", "records read back by WAL readers"),
        ("log_replay_transactions", "txns", "logged transactions replayed by recovery (folded into one commit) and changefeed catch-up"),
    )),
    ("cluster", (  # docs/cluster.md
        ("cluster_txns_committed", "txns", "cluster transactions committed"),
        ("cluster_txns_aborted", "txns", "cluster transactions aborted"),
        ("cluster_deltas_sent", "deltas", "per-shard relation deltas shipped"),
        ("cluster_deltas_skipped", "deltas", "per-shard relation deltas proven irrelevant by the routing oracle and never sent"),
        ("cluster_routing_proofs", "proofs", "satisfiability proofs attempted while deriving the routing table"),
        ("cluster_retransmissions", "messages", "protocol messages re-sent after a timeout"),
        ("cluster_shard_rebuilds", "shards", "shards rebuilt from the coordinator's log"),
    )),
    ("scheduler", (  # docs/scheduler.md; the stats op strips the prefix
        ("scheduler_ticks", "calls", "scheduler ticks"),
        ("scheduler_refreshes", "calls", "deferred-view refreshes the scheduler ran"),
        ("scheduler_refreshed_commits", "txns", "backlog commits those refreshes applied"),
        ("scheduler_due_views_seen", "views", "views found at or past an SLA bound, per tick"),
        ("scheduler_backpressure_deferrals", "views", "due views left for a later tick by the batch limit"),
        ("scheduler_sla_violations", "views", "views found strictly beyond an SLA bound, per tick"),
    )),
    ("hosting", (  # base-free hosting, docs/scheduler.md
        ("self_maintainability_proofs", "proofs", "classifier verdicts attempted on whether a view needs its base relations"),
        ("base_free_rows_dropped", "tuples", "base-relation tuples shed by a host of self-maintainable views only"),
        ("base_free_keys_tracked", "keys", "key values a base-free shard keeps to check keyed inserts"),
    )),
    ("server", (  # docs/server.md
        ("server_sessions_opened", "sessions", "sessions admitted"),
        ("server_sessions_closed", "sessions", "sessions released"),
        ("server_sessions_rejected", "sessions", "connections refused at the session limit"),
        ("server_requests", "requests", "request frames dispatched"),
        ("server_requests_failed", "requests", "requests answered with an error"),
        ("server_rows_returned", "rows", "rows returned by query"),
        ("server_txns_committed", "txns", "txn requests committed"),
        ("server_txns_failed", "txns", "txn requests rejected or aborted"),
        ("server_subscriptions_opened", "subscriptions", "subscribe requests accepted"),
        ("server_events_sent", "events", "changefeed events queued to subscribers"),
        ("server_bytes_written", "bytes", "bytes written to session sockets"),
        ("server_slow_consumer_disconnects", "sessions", "sessions dropped because their pending frames passed outbox_frames"),
        ("server_scheduler_refreshes", "calls", "deferred-view refreshes run inside a txn request"),
    )),
)


#: Family → its metric names, in declaration order.
_FAMILIES: dict[str, list[str]] = {}
for _metric in METRICS.values():
    _FAMILIES.setdefault(_metric.family, []).append(_metric.name)


#: Increments one call defers: ``(metric, amount)`` pairs, in order.
Tally = list[tuple[str, int]]


def _undeclared(name: str) -> UnknownMetricError:
    return UnknownMetricError(
        f"{name!r} is not a declared metric (see repro.instrumentation.METRICS)"
    )


def _land(counters: dict[str, int], tally: Tally) -> None:
    for name, amount in tally:
        if name in counters:
            counters[name] += amount
        elif name not in METRICS:
            raise _undeclared(name)
        elif amount:
            counters[name] = amount


class CostRecorder:
    """An accumulating bag of declared counters."""

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` in this bag alone."""
        try:
            self.counters[name] += amount
        except KeyError:
            if name not in METRICS:
                raise _undeclared(name) from None
            self.counters[name] = amount

    def count(self, name: str, amount: int = 1) -> None:
        """Count one event in this always-on bag and the active recorder."""
        self.incr(name, amount)
        recorder = _ACTIVE.get()
        if recorder is not None:
            recorder.incr(name, amount)

    def settle(self, counted: Tally, charged: Tally | None) -> None:
        """Land one call's tallies: ``counted`` like :meth:`count` (this
        bag and the active recorder), ``charged`` like :func:`charge`
        (the active recorder alone; ``None`` from a caller that saw no
        recorder active and tallied none).  A zero amount is no event."""
        active = _ACTIVE.get()
        _land(self.counters, counted)
        if active is not None:
            _land(active.counters, counted)
        if charged:
            # Into nothing with no recorder active: names still checked.
            _land({} if active is None else active.counters, charged)

    def land(self, tally: Tally) -> None:
        """Add a tally's pairs to this bag alone (a zero amount is no
        event)."""
        _land(self.counters, tally)

    def add(self, other: CostRecorder) -> None:
        """Fold another bag's counts into this one."""
        for name, amount in other.counters.items():
            self.incr(name, amount)

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never charged)."""
        return self.counters.get(name, 0)

    def reset(self) -> None:
        """Clear all counters."""
        self.counters.clear()

    def snapshot(self) -> dict[str, int]:
        """A copy of the current counter values."""
        return dict(self.counters)

    #: The same read under the name the fixed-key surfaces have always
    #: answered to (``codegen_stats().as_dict()``); the frozen benchmark
    #: calls both names.
    as_dict = snapshot

    def family(self, *families: str) -> CostRecorder:
        """A detached bag holding every declared metric of ``families``
        at its value here (0 if never charged), in declaration order —
        the fixed-key form reports and the ``stats`` op serve."""
        picked = CostRecorder()
        picked.counters = {
            name: self.counters.get(name, 0)
            for family in families
            for name in _FAMILIES[family]
        }
        return picked

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        return f"<CostRecorder {inner or 'empty'}>"


# The active recorder.  A ContextVar rather than a module global: each
# thread *and* each asyncio task inherits its own binding, so a server
# session recording its request cannot observe (or pollute) another
# session's counters.  The inactive fast path stays one ``get()`` and
# one ``is None`` test.
_ACTIVE: ContextVar[CostRecorder | None] = ContextVar(
    "repro_active_recorder", default=None
)


def active_recorder() -> CostRecorder | None:
    """The recorder charges currently flow to, or ``None``."""
    return _ACTIVE.get()


@contextmanager
def recording(recorder: CostRecorder) -> Iterator[CostRecorder]:
    """Route all charges to ``recorder`` for the duration of the block.

    Re-entrant: nesting a second ``recording(...)`` routes charges to
    the innermost recorder until its block exits, then restores the
    outer one — in *this* context only.  Other threads and asyncio
    tasks are unaffected.
    """
    token = _ACTIVE.set(recorder)
    try:
        yield recorder
    finally:
        _ACTIVE.reset(token)


def charge(name: str, amount: int = 1) -> None:
    """Charge ``amount`` to counter ``name`` on the active recorder."""
    recorder = _ACTIVE.get()
    if recorder is not None:
        recorder.incr(name, amount)
    elif name not in METRICS:
        raise _undeclared(name)
