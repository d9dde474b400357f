"""From a traced phase's spans and counters to the per-layer metric table.

Self-time rows are microseconds per committed write transaction, counts are
per transaction (units in ``config.PER_LAYER``).  A metric that does not
apply to a workload — every ``server.*`` and ``wal.*`` row in process —
is reported as 0, because the driver wants every per-layer name on every
workload; README.md lists which rows apply where.

With one closed-loop writer the rows partition the traced wall clock:

* in process, every span is a descendant of a ``Database.apply`` or
  ``read_view`` call of the load generator, so the rows sum to the time
  inside those calls and the rest of the wall clock is the generator's own
  loop;
* served, the writer's round trips are the roots; what the child's spans do
  not cover of a round trip is ``server.wire_us`` (sockets, event loop,
  outbox, client codec), and the rest of the wall clock is again the loop.

``trace.unattributed_share`` is the share of the wall clock no row claims;
``trace.accounted_share`` is the share of recorded span time whose span name
has a row (1.0 unless a wrapper was added without a row).
"""

from __future__ import annotations

from collections import Counter
from typing import Any

import config
from harness import CheckFailed, Phase, diagnostics
from tracer import layer_rows


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    traced: Phase,
    reference: Phase,
    capture: dict[str, Any],
    served: bool,
    replayed_txns: int,
) -> dict[str, float]:
    report = capture["report"]
    counters: Counter = capture["counters"]
    maintainer: Counter = capture["maintainer"]
    codegen: Counter = capture["codegen"]
    calls, total_ns = report["calls"], report["total_ns"]
    txns = traced.txns
    wall_ns = traced.wall_ns

    rows_ns, unmapped_ns = layer_rows(report)
    if served:
        # The child recorded exactly the traced phase's requests, or the
        # subtraction below mixes intervals.
        seen = (calls.get("ViewServer.dispatch:txn", 0), calls.get("ViewServer.dispatch:query", 0))
        sent = (len(traced.commit_ns), len(traced.query_ns))
        if seen != sent or calls.get("ViewServer.dispatch:other", 0):
            raise CheckFailed(
                f"child traced {seen} (txn, query) requests, the writer sent {sent}"
            )
        round_trips_ns = sum(traced.commit_ns) + sum(traced.query_ns)
        rows_ns["server.wire_us"] = (
            rows_ns.get("server.wire_us", 0) + round_trips_ns - report["root_ns"]
        )
    mapped_ns = sum(rows_ns.values())

    out = dict.fromkeys((m.name for m in config.PER_LAYER), 0.0)
    for row in config.SELF_TIME_ROWS:
        out[row] = rows_ns.get(row, 0) / 1000.0 / txns

    def per_txn(count: float) -> float:
        return count / txns

    screened = maintainer["tuples_screened"]
    seen_views = maintainer["transactions_seen"]
    lookups = maintainer["plan_cache_hits"] + maintainer["plan_cache_misses"]
    out.update(
        {
            "server.events_sent": per_txn(counters["server_events_sent"]),
            "server.bytes_out_per_txn": per_txn(counters["server_bytes_written"]),
            "server.requests_failed": counters["server_requests_failed"],
            "wal.bytes_per_txn": per_txn(counters["wal_bytes_written"]),
            "wal.fsyncs_per_txn": per_txn(counters["wal_fsyncs"]),
            "engine.rows_per_txn": per_txn(
                calls.get("Transaction.insert", 0) + calls.get("Transaction.delete", 0)
            ),
            "engine.index_probes": per_txn(counters["index_probes"]),
            "maintainer.views_maintained_per_txn": per_txn(seen_views),
            "maintainer.txns_skipped_share": _ratio(
                maintainer["transactions_skipped"], seen_views
            ),
            "maintainer.plan_cache_hit_share": _ratio(maintainer["plan_cache_hits"], lookups),
            "screen.tuples_per_txn": per_txn(screened),
            "screen.us_per_tuple": _ratio(
                total_ns.get("CompiledViewPlan.screen", 0) / 1000.0, screened
            ),
            "screen.irrelevant_share": _ratio(maintainer["tuples_irrelevant"], screened),
            "differential.truth_rows_per_txn": per_txn(counters["truth_table_rows"]),
            "differential.tuples_scanned_per_txn": per_txn(counters["tuples_scanned"]),
            "differential.join_probes_per_txn": per_txn(counters["join_probes"]),
            "differential.tuples_emitted_per_txn": per_txn(counters["tuples_emitted"]),
            "codegen.kernel_share": _ratio(
                rows_ns.get("codegen.kernel_us", 0), total_ns.get("hook:ViewMaintainer", 0)
            ),
            "codegen.batch_rows_per_txn": per_txn(codegen["codegen_batch_rows"]),
            "codegen.fallback_tuples": codegen["codegen_fallback_tuples"],
            "codegen.plans_compiled": codegen["codegen_plans_compiled"],
            "aggregates.rows_folded_per_txn": per_txn(counters["aggregate_rows_folded"]),
            "aggregates.groups_touched_per_txn": per_txn(counters["aggregate_groups_touched"]),
            "views.delta_rows_per_txn": per_txn(
                maintainer["view_tuples_inserted"] + maintainer["view_tuples_deleted"]
            ),
            "trace.overhead_share": 1.0 - _ratio(traced.throughput(), reference.throughput()),
            "trace.unattributed_share": 1.0 - _ratio(mapped_ns, wall_ns),
            "trace.accounted_share": _ratio(mapped_ns, mapped_ns + unmapped_ns),
            "loadgen.traced_txns": txns,
        }
    )
    setup = capture.get("setup_report")
    if setup:
        replay_ns = setup["total_ns"].get("Recovery.replay", 0)
        out["wal.replay_txn_per_s"] = _ratio(replayed_txns * 1e9, replay_ns)
        out["wal.checkpoint_load_s"] = setup["total_ns"].get("Recovery.__init__", 0) / 1e9
    out.update(diagnostics(reference))
    return out
