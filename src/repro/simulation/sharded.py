"""The sharded topology: one cluster episode under one schedule.

:class:`ShardedEpisode` is what :func:`repro.simulation.runner.
run_episode` runs for ``SimulationConfig(shards=N)`` with N > 0.  It
asks the single-node harness's question of the *cluster*: shards
behind lossy, reordering, partitionable
:class:`~repro.simulation.network.SimShardLink`\\ s, crash-rebuilt
mid-protocol, driven by a seeded workload — and at the end of the run
the merged cluster state must agree **byte for byte** with a
single-node ground truth that applied the committed transactions, in
the coordinator's ``cluster_seq`` order, to one ordinary Database +
ViewMaintainer pair.

The checked invariants:

1. every registered view, bag-unioned across shards, equals the
   single-node view;
2. the merged changefeed, folded over the initial view contents,
   *also* equals the single-node view (the feed is a faithful,
   gap-free, ordered delta stream — this is what catches
   reordered-ack bugs);
3. the partitioned relation, unioned across shards, equals the
   single-node relation, and every shard's slice respects its declared
   key-range; a base-free shard holds no base tuple at all
   (:func:`~repro.simulation.oracle.verify_shed_base`);
4. the home shard's replicated copies equal the single-node relations
   (non-home copies are *legitimately* stale exactly where the routing
   oracle proved staleness invisible, so they are not compared);
5. every submitted transaction resolves — committed or aborted with a
   typed error — and the 2PC layer drains to zero pending;
6. every shard's aggregate views are internally sound
   (:func:`~repro.simulation.oracle.audit_aggregate_state`), shards
   rebuilt mid-episode included.

Event kinds
-----------
``txn``        a client transaction submitted to the coordinator
``net``        advance virtual time; pump every link, tick the coordinator
``crash``      a shard loses its memory and wire and is rebuilt from the
               coordinator's history
``partition``  cut one shard's link both ways for some ticks
``quiesce``    heal every link and drain the 2PC layer to silence

The episode has :class:`~repro.simulation.workload.Episode`'s surface
(``trace``, ``stats``, ``divergences``, ``ended_early``, ``run``), so
the one runner batches, reports and minimizes it.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from typing import TYPE_CHECKING, Any, Mapping

from repro.algebra.expressions import BaseRef, Expression
from repro.cluster.coordinator import ClusterCoordinator, OpBatches, build_cluster
from repro.cluster.shard import ShardNode
from repro.cluster.topology import (
    HOME_SHARD,
    ClusterTopology,
    PartitionSpec,
    even_boundaries,
)
from repro.core.maintainer import ViewMaintainer
from repro.engine.database import Database
from repro.engine.persistence import database_from_document
from repro.server import protocol
from repro.simulation.clock import SimClock
from repro.simulation.network import SimShardLink
from repro.simulation.oracle import (
    audit_aggregate_state,
    diff_counts,
    verify_shed_base,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.workload import SimulationConfig

__all__ = ["ShardedEpisode", "cluster_workload", "sharded_schedule"]

Schedule = list[tuple[str, dict[str, Any]]]

#: Value universe for workload rows (kept small so collisions — double
#: inserts, deletes of present rows, cross-shard row equality — happen).
VALUE_RANGE = 7
#: Shard-link delivery delay bound, in ticks.
LINK_DELAY_MAX = 2
#: Shard-link fault rates while ``partitions`` is on; off, links are
#: lossless (the single-node replica channels follow the same rule).
LINK_DROP_RATE = 0.05
LINK_DUPLICATE_RATE = 0.05
LINK_REORDER_RATE = 0.2


def cluster_workload(
    shards: int,
    keyed: bool = False,
) -> tuple[ClusterTopology, Database, list[tuple[str, Expression]]]:
    """The fixed episode schema as a topology, a genesis database and
    views: one partitioned and two replicated relations, plus views
    spanning the routing spectrum.

    ``v_low`` touches only the partitioned relation; ``v_rs`` restricts
    the join key to the home shard's range, making ``s`` provably
    skippable everywhere else; ``v_rt`` joins ``t`` without any range
    restriction, so ``t`` must broadcast — together they exercise
    routed, skipped, and mixed delta paths in one workload.  ``v_agg``
    groups the partitioned relation on its partition key, so per-shard
    group rows are shard-local and the bag-union merge is exact — the
    sharded oracle then pins aggregate state and its changefeed mirror
    to the single-node ground truth.

    With ``keyed`` the partitioned relation declares its partition
    attribute as a key and the constraint ``B = A + 1``, which
    *determines the row from the key* — exactly the premises a
    base-free owner needs to track key occupancy, so the schedule
    generator may hit it with unrestricted inserts and deletes.  The
    bootstrap rows change to satisfy the constraint.
    """
    boundaries = even_boundaries(shards, 0, VALUE_RANGE - 1)
    low_cut = boundaries[0] if boundaries else VALUE_RANGE // 2
    topology = ClusterTopology(shards, [PartitionSpec("r", "A", boundaries)])
    tables = {"r": ["A", "B"], "s": ["C", "D"], "t": ["E", "F"]}
    rows = {
        "r": [(a, (a * 2) % VALUE_RANGE) for a in range(VALUE_RANGE)],
        "s": [(c, (c + 1) % VALUE_RANGE) for c in range(VALUE_RANGE)],
        "t": [(e, (e * 3) % VALUE_RANGE) for e in range(VALUE_RANGE)],
    }
    if keyed:
        rows["r"] = [(a, a + 1) for a in range(VALUE_RANGE)]
    genesis = Database()
    for name, attributes in tables.items():
        genesis.create_relation(name, attributes, rows[name])
    genesis.declare_constraint("s", "C >= 0")
    if keyed:
        genesis.declare_constraint("r", "B = A + 1")
        genesis.declare_key("r", ["A"])
    views: list[tuple[str, Expression]] = [
        ("v_low", BaseRef("r").select(f"A <= {low_cut}")),
        (
            "v_rs",
            BaseRef("r")
            .join(BaseRef("s"))
            .select(f"A = C and A <= {low_cut}"),
        ),
        ("v_rt", BaseRef("r").join(BaseRef("t")).select("B = E")),
        (
            "v_agg",
            BaseRef("r").aggregate(
                ["A"], [("count", None, "n"), ("sum", "B", "total")]
            ),
        ),
    ]
    return topology, genesis, views


def sharded_schedule(rng: random.Random, config: SimulationConfig) -> Schedule:
    """A seeded event list; always ends on a quiesce barrier."""
    kinds = ["txn"] * 55 + ["net"] * 25 + ["quiesce"] * 5
    if config.crashes:
        kinds += ["crash"] * 7
    if config.partitions:
        kinds += ["partition"] * 8
    boundaries = even_boundaries(config.shards, 0, VALUE_RANGE - 1)
    home_max = boundaries[0] if boundaries else VALUE_RANGE - 1
    schedule: Schedule = []
    for _ in range(config.events):
        kind = rng.choice(kinds)
        if kind == "txn":
            inserts: dict[str, list[list[int]]] = {}
            deletes: dict[str, list[list[int]]] = {}
            for _ in range(rng.randint(1, 3)):
                relation = rng.choice(["r", "r", "s", "t"])
                row = [
                    rng.randrange(VALUE_RANGE),
                    rng.randrange(VALUE_RANGE),
                ]
                if relation == "s" and rng.random() < 0.08:
                    row[0] = -1  # violates the declared constraint
                if config.keyed and relation == "r" and rng.random() >= 0.08:
                    # Keep most keyed-relation rows on the declared
                    # row-determining constraint B = A + 1; the rest
                    # stay random, exercising constraint rejection
                    # (inserts) and absent-row no-op deletes.
                    row[1] = row[0] + 1
                target = deletes if rng.random() < 0.4 else inserts
                if (
                    config.base_free_shards
                    and relation == "r"
                    and not config.keyed
                ):
                    # Base-free owners cannot existence-check: a delete
                    # of an absent row and an insert of a present one
                    # both need a full replica to validate, so
                    # partitioned ops stay on the full home shard.
                    # Declared keys (``keyed``) lift the restriction:
                    # key occupancy restores presence semantics.
                    row[0] = rng.randrange(home_max + 1)
                target.setdefault(relation, []).append(row)
            schedule.append(
                ("txn", {"inserts": inserts, "deletes": deletes})
            )
        elif kind == "net":
            schedule.append(("net", {"ticks": rng.randint(1, 4)}))
        elif kind == "crash":
            schedule.append(
                ("crash", {"shard": rng.randrange(config.shards)})
            )
        elif kind == "partition":
            schedule.append(
                (
                    "partition",
                    {
                        "shard": rng.randrange(config.shards),
                        "ticks": rng.randint(2, 6),
                    },
                )
            )
        else:
            schedule.append(("quiesce", {}))
    schedule.append(("quiesce", {}))
    return schedule


class ShardedEpisode:
    """One live cluster under one schedule, plus the end-state oracle."""

    #: Bound on quiesce drain ticks; hitting it is itself a divergence.
    MAX_DRAIN_TICKS = 600

    def __init__(self, seed: int, config: SimulationConfig) -> None:
        self.config = config
        self.clock = SimClock()
        self.trace: list[str] = []
        self.stats: Counter[str] = Counter()
        self.divergences: list[str] = []
        #: No sharded event ends a run early; always ``None``.
        self.ended_early: str | None = None
        self.topology, genesis, self.views = cluster_workload(
            config.shards, keyed=config.keyed
        )
        base_free_shards: tuple[int, ...] = ()
        if config.base_free_shards:
            # Only self-maintainable views can be hosted base-free:
            # v_rt joins without a range restriction, so it is neither
            # single-relation nor provably empty off-home and must go.
            self.views = [
                (name, expression)
                for name, expression in self.views
                if name != "v_rt"
            ]
            base_free_shards = tuple(
                shard for shard in range(config.shards) if shard != HOME_SHARD
            )
        lossy = config.partitions
        net_rng = random.Random(f"{seed}:net")
        self.links: list[SimShardLink] = []

        def link_factory(node: ShardNode, shard_id: int) -> SimShardLink:
            link = SimShardLink(
                node,
                self.clock,
                net_rng,
                delay_max=LINK_DELAY_MAX,
                drop_rate=LINK_DROP_RATE if lossy else 0.0,
                duplicate_rate=LINK_DUPLICATE_RATE if lossy else 0.0,
                reorder_rate=LINK_REORDER_RATE if lossy else 0.0,
            )
            self.links.append(link)
            return link

        self.coordinator: ClusterCoordinator = build_cluster(
            self.topology,
            genesis,
            self.views,
            routed=config.routed,
            base_free_shards=base_free_shards,
            link_factory=link_factory,
        )
        #: The changefeed mirror: initial merged view contents, folded
        #: forward by every emitted event (oracle invariant 2).
        self.mirror: dict[str, dict[tuple[int, ...], int]] = {
            name: dict(self.coordinator.merged_counts(name)[0])
            for name, _ in self.views
        }
        self.coordinator.emit_hooks.append(self._fold_event)
        #: Every submitted transaction's ops, by txn id: what the
        #: single-node ground truth replays.
        self.submitted: dict[int, tuple[OpBatches, OpBatches]] = {}
        self._heal_at: dict[int, int] = {}

    # -- changefeed mirror ------------------------------------------------
    def _fold_event(
        self, sequence: int, merged: Mapping[str, Mapping[str, Any]]
    ) -> None:
        self.stats["feed_events"] += 1
        for view, doc in merged.items():
            bag = self.mirror[view]
            for row in doc.get("inserted", ()):
                key = tuple(row)
                bag[key] = bag.get(key, 0) + 1
            for row in doc.get("deleted", ()):
                key = tuple(row)
                remaining = bag.get(key, 0) - 1
                if remaining:
                    bag[key] = remaining
                else:
                    bag.pop(key, None)

    # -- schedule execution -----------------------------------------------
    def run(self, schedule: Schedule) -> ShardedEpisode:
        for index, (kind, payload) in enumerate(schedule):
            detail = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            self.trace.append(f"[{index}] t={self.clock.now} {kind} {detail}")
            getattr(self, f"_event_{kind}")(payload)
        self.trace.append(f"[end] t={self.clock.now} quiesce (final)")
        self._event_quiesce({})
        self._check()
        return self

    def _event_txn(self, payload: dict[str, Any]) -> None:
        self.stats["txns_submitted"] += 1
        inserts = payload.get("inserts") or {}
        deletes = payload.get("deletes") or {}
        txn_id = self.coordinator.submit(inserts=inserts, deletes=deletes)
        self.submitted[txn_id] = (inserts, deletes)

    def _event_net(self, payload: dict[str, Any]) -> None:
        for _ in range(int(payload["ticks"])):
            self._tick()

    def _event_crash(self, payload: dict[str, Any]) -> None:
        self.stats["crashes"] += 1
        self.coordinator.crash_shard(int(payload["shard"]))

    def _event_partition(self, payload: dict[str, Any]) -> None:
        shard = int(payload["shard"])
        self.stats["partitions"] += 1
        self.links[shard].partition(True)
        self._heal_at[shard] = self.clock.now + int(payload["ticks"])

    def _event_quiesce(self, payload: dict[str, Any]) -> None:
        """Heal everything and drain the 2PC layer to silence."""
        for shard in sorted(self._heal_at):
            self.links[shard].partition(False)
        self._heal_at.clear()
        for _ in range(self.MAX_DRAIN_TICKS):
            if self.coordinator.pending_count() == 0 and all(
                link.idle() for link in self.links
            ):
                return
            self._tick()
        self.divergences.append(
            f"cluster failed to quiesce within {self.MAX_DRAIN_TICKS} ticks "
            f"({self.coordinator.pending_count()} pending transactions)"
        )

    def _tick(self) -> None:
        self.stats["ticks"] += 1
        self.clock.advance(1)
        for shard, deadline in sorted(self._heal_at.items()):
            if self.clock.now >= deadline:
                self.links[shard].partition(False)
                del self._heal_at[shard]
        for link in self.links:
            link.pump()
        self.coordinator.tick()

    # -- the oracle --------------------------------------------------------
    def _ground_truth(self) -> tuple[Database, ViewMaintainer]:
        database = database_from_document(self.coordinator.genesis)
        maintainer = ViewMaintainer(database)
        for name, expression in self.views:
            maintainer.define_view(name, expression)
        # The emitted commits' txn ids, by cluster_seq.
        committed: dict[int, int] = {}
        for txn_id in self.submitted:
            outcome = self.coordinator.outcome(txn_id)
            if (
                outcome is not None
                and outcome["status"] == "committed"
                and outcome["cluster_seq"] <= self.coordinator.last_sequence
            ):
                committed[outcome["cluster_seq"]] = txn_id
        for sequence in sorted(committed):
            txn_id = committed[sequence]
            inserts, deletes = self.submitted[txn_id]
            with database.transact(txn_id=txn_id) as txn:
                for name in sorted(deletes):
                    txn.delete_many(name, deletes[name])
                for name in sorted(inserts):
                    txn.insert_many(name, inserts[name])
        maintainer.quiesce()
        return database, maintainer

    def _check(self) -> None:
        """The end-state oracle, and the cluster counters it folds in."""
        for txn_id in self.submitted:
            outcome = self.coordinator.outcome(txn_id)
            if outcome is None:
                self.divergences.append(
                    f"transaction {txn_id} never resolved"
                )
            elif outcome["status"] == "committed":
                self.stats["txns_committed"] += 1
            elif outcome["code"] == protocol.E_SHARD_UNAVAILABLE:
                self.stats["txns_timed_out"] += 1
            else:
                self.stats["txns_rejected"] += 1
        database, maintainer = self._ground_truth()
        nodes = self.coordinator.nodes()
        found: list[str | None] = []
        # 1 + 2: merged views and the changefeed mirror == single node
        for name, _ in self.views:
            truth = maintainer.view(name).contents.counts()
            merged, _, _ = self.coordinator.merged_counts(name)
            found.append(diff_counts(f"merged view {name!r}", truth, merged))
            found.append(
                diff_counts(f"changefeed mirror {name!r}", truth, self.mirror[name])
            )
        # 3. partitioned union == single-node relation; slices in range.
        # With base-free shards only the home slice is materialized
        # anywhere, so the union is compared against the single-node
        # relation restricted to home-owned rows.
        attributes = self.coordinator.tables["r"]
        truth_r = database.relation("r").counts()
        if self.config.base_free_shards:
            schema = database.relation("r").schema
            truth_r = {
                values: count
                for values, count in truth_r.items()
                if self.topology.shard_of_row(
                    "r", attributes, schema.decode_values(values)
                )
                == HOME_SHARD
            }
        merged_r, _, _ = self.coordinator.merged_counts("r")
        found.append(
            diff_counts("partitioned relation 'r' union", truth_r, merged_r)
        )
        # 4. home replicated copies == single-node relations
        for name in ("s", "t"):
            found.append(
                diff_counts(
                    f"home copy of {name!r}",
                    database.relation(name).counts(),
                    nodes[HOME_SHARD].database.relation(name).counts(),
                )
            )
        self.divergences.extend(message for message in found if message)
        for node in nodes:
            label = f"shard {node.shard_id}"
            if node.base_free:
                self.stats["base_free_rows_dropped"] += node.base_rows_dropped
                self.divergences.extend(
                    verify_shed_base(f"base-free {label}", node.database)
                )
            relation = node.database.relation("r")
            for values, _ in relation.items():
                decoded = relation.schema.decode_values(values)
                owner = self.topology.shard_of_row("r", attributes, decoded)
                if owner != node.shard_id:
                    self.divergences.append(
                        f"{label} holds misrouted row {tuple(decoded)!r} "
                        f"of 'r' (owner {owner})"
                    )
            # 6. every shard's aggregate state is internally sound
            self.divergences.extend(audit_aggregate_state(label, node.maintainer))
        counters = self.coordinator.recorder.counters
        for key in (
            "cluster_deltas_sent",
            "cluster_deltas_skipped",
            "cluster_retransmissions",
            "cluster_shard_rebuilds",
        ):
            self.stats[key] += counters.get(key, 0)
