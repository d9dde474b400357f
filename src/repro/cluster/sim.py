"""Deterministic sharded-cluster simulation with a recompute oracle.

The single-node simulation harness (:mod:`repro.simulation`) answers
"does the engine survive hostile scheduling?"; this module asks the
same question of the *cluster*: shards behind lossy, reordering,
partitionable links, crash-rebuilt mid-protocol, driven by a seeded
workload — and at quiescence the merged cluster state must agree
**byte for byte** with a single-node ground truth that applied the
coordinator's committed log to one ordinary Database + ViewMaintainer
pair.  Every divergence is a seed, and the same seed replays the
identical episode.

The checked invariants:

1. every registered view, bag-unioned across shards, equals the
   single-node view;
2. the merged changefeed, folded over the initial view contents,
   *also* equals the single-node view (the feed is a faithful,
   gap-free, ordered delta stream — this is what catches
   reordered-ack bugs);
3. the partitioned relation, unioned across shards, equals the
   single-node relation, and every shard's slice respects its declared
   key-range;
4. the home shard's replicated copies equal the single-node relations
   (non-home copies are *legitimately* stale exactly where the routing
   oracle proved staleness invisible, so they are not compared);
5. every submitted transaction resolves — committed or aborted with a
   typed error — and the 2PC layer drains to zero pending;
6. every shard's aggregate views are internally sound — support bags
   render the visible rows and accumulators equal a rebuild from the
   bags (:func:`~repro.simulation.oracle.audit_aggregate_state`),
   shards rebuilt mid-episode included.

Episodes are pure functions of ``(seed, config)``: all randomness
flows from string-seeded :class:`random.Random` instances and all time
from :class:`~repro.simulation.clock.SimClock`.  Failing schedules are
not minimized (unlike the single-node harness): a cluster episode's
fault timing is tick-coupled, so event deletion mostly produces
different executions rather than smaller reproductions — the seed is
the reproduction.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any

from repro.algebra.conditions import Condition
from repro.algebra.expressions import BaseRef, Expression
from repro.cluster.coordinator import ClusterCoordinator, build_cluster
from repro.cluster.links import SimShardLink
from repro.cluster.shard import ShardNode
from repro.cluster.topology import (
    HOME_SHARD,
    ClusterTopology,
    PartitionSpec,
    even_boundaries,
)
from repro.core.maintainer import ViewMaintainer
from repro.engine.database import Database
from repro.server import protocol
from repro.simulation.clock import SimClock
from repro.simulation.oracle import audit_aggregate_state

__all__ = [
    "ClusterEpisodeResult",
    "ClusterSimConfig",
    "ClusterSimReport",
    "cluster_workload",
    "generate_cluster_schedule",
    "run_cluster_episode",
    "run_cluster_simulation",
]

Schedule = list[tuple[str, dict[str, Any]]]

#: Ticks the final quiesce may spend draining before it is a failure.
MAX_DRAIN_TICKS = 600
#: Value universe for workload rows (kept small so collisions — double
#: inserts, deletes of present rows, cross-shard row equality — happen).
VALUE_RANGE = 7


class ClusterSimConfig:
    """Knobs for a sharded simulation batch (all deterministic)."""

    __slots__ = (
        "seed",
        "episodes",
        "events",
        "shards",
        "crashes",
        "partitions",
        "routed",
        "base_free",
        "keyed",
        "drop_rate",
        "duplicate_rate",
        "reorder_rate",
        "delay_max",
    )

    def __init__(
        self,
        seed: int = 0,
        episodes: int = 3,
        events: int = 60,
        shards: int = 3,
        crashes: bool = True,
        partitions: bool = True,
        routed: bool = True,
        base_free: bool = False,
        keyed: bool = False,
        drop_rate: float = 0.05,
        duplicate_rate: float = 0.05,
        reorder_rate: float = 0.2,
        delay_max: int = 2,
    ) -> None:
        self.seed = seed
        self.episodes = episodes
        self.events = events
        self.shards = shards
        self.crashes = crashes
        self.partitions = partitions
        self.routed = routed
        #: Every non-home shard hosts base-free (no base-relation
        #: copies).  Implies the self-maintainable view subset (``v_rt``
        #: is dropped) and — without ``keyed`` — a workload whose
        #: partitioned-relation ops stay in the home shard's range: a
        #: base-free owner cannot existence-check a delete *or* detect
        #: a set-semantics duplicate insert, so only rows a full
        #: replica validates may be touched (the documented trust
        #: boundary).
        self.base_free = base_free
        #: Declare a key on the partitioned relation (plus the
        #: row-determining constraint backing it).  Base-free owners
        #: then track key occupancy, so the partitioned workload is
        #: generated *unrestricted* again — duplicate inserts and
        #: absent deletes included — and the oracle must still match
        #: byte for byte.
        self.keyed = keyed
        self.drop_rate = drop_rate
        self.duplicate_rate = duplicate_rate
        self.reorder_rate = reorder_rate
        self.delay_max = delay_max


def cluster_workload(
    shards: int,
    keyed: bool = False,
) -> tuple[
    ClusterTopology,
    dict[str, list[str]],
    dict[str, list[tuple[int, int]]],
    dict[str, str],
    dict[str, list[tuple[str, ...]]],
    list[tuple[str, Expression]],
]:
    """The fixed episode schema: one partitioned and two replicated
    relations, plus three views spanning the routing spectrum.

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
    constraints = {"s": "C >= 0"}
    keys: dict[str, list[tuple[str, ...]]] = {}
    if keyed:
        rows["r"] = [(a, a + 1) for a in range(VALUE_RANGE)]
        constraints["r"] = "B = A + 1"
        keys["r"] = [("A",)]
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
    return topology, tables, rows, constraints, keys, views


def generate_cluster_schedule(
    rng: random.Random, config: ClusterSimConfig
) -> Schedule:
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
                if config.base_free and relation == "r" and not config.keyed:
                    # Base-free owners cannot existence-check: a delete
                    # of an absent row and an insert of a present one
                    # (a set-semantics no-op their raw netting would
                    # count) both need a full replica to validate, so
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


class ClusterEpisodeResult:
    """Outcome of one episode (a pure function of seed and config)."""

    __slots__ = ("seed", "schedule", "stats", "divergences")

    def __init__(
        self,
        seed: int,
        schedule: Schedule,
        stats: Counter,
        divergences: list[str],
    ) -> None:
        self.seed = seed
        self.schedule = schedule
        self.stats = stats
        self.divergences = divergences

    @property
    def ok(self) -> bool:
        return not self.divergences


class _ClusterEpisode:
    """One live cluster under one schedule, plus the end-state oracle."""

    def __init__(self, seed: int, config: ClusterSimConfig) -> None:
        self.seed = seed
        self.config = config
        self.stats: Counter = Counter()
        self.divergences: list[str] = []
        self.clock = SimClock()
        net_rng = random.Random(f"{seed}:net")
        (
            self.topology,
            self.tables,
            self.rows,
            self.constraints,
            self.keys,
            self.views,
        ) = cluster_workload(config.shards, keyed=config.keyed)
        self.base_free_shards: tuple[int, ...] = ()
        if config.base_free:
            # Only self-maintainable views can be hosted base-free:
            # v_rt joins without a range restriction, so it is neither
            # single-relation nor provably empty off-home and must go.
            self.views = [
                (name, expression)
                for name, expression in self.views
                if name != "v_rt"
            ]
            self.base_free_shards = tuple(
                shard
                for shard in range(config.shards)
                if shard != HOME_SHARD
            )

        def link_factory(node: ShardNode, shard_id: int) -> SimShardLink:
            return SimShardLink(
                node,
                self.clock,
                net_rng,
                delay_max=config.delay_max,
                drop_rate=config.drop_rate,
                duplicate_rate=config.duplicate_rate,
                reorder_rate=config.reorder_rate,
            )

        self.coordinator: ClusterCoordinator = build_cluster(
            self.topology,
            self.tables,
            self.rows,
            self.constraints,
            self.views,
            routed=config.routed,
            base_free_shards=self.base_free_shards,
            link_factory=link_factory,
            keys=self.keys,
        )
        self.links: list[SimShardLink] = [
            link
            for link in self.coordinator.links
            if isinstance(link, SimShardLink)
        ]
        #: The changefeed mirror: initial merged view contents, folded
        #: forward by every emitted event (oracle invariant 2).
        self.mirror: dict[str, dict[tuple[int, ...], int]] = {
            name: dict(self.coordinator.merged_counts(name)[0])
            for name, _ in self.views
        }
        self.coordinator.emit_hooks.append(self._fold_event)
        self.submitted: list[int] = []
        self._heal_at: dict[int, int] = {}

    # -- changefeed mirror ------------------------------------------------
    def _fold_event(
        self, sequence: int, merged: dict[str, dict[str, Any]]
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
    def run(self, schedule: Schedule) -> None:
        for kind, params in schedule:
            if kind == "txn":
                self._do_txn(params)
            elif kind == "net":
                for _ in range(int(params["ticks"])):
                    self._tick()
            elif kind == "crash":
                self.stats["crashes"] += 1
                self.coordinator.crash_shard(int(params["shard"]))
            elif kind == "partition":
                shard = int(params["shard"])
                self.stats["partitions"] += 1
                self.links[shard].partition(True)
                self._heal_at[shard] = self.clock.now + int(params["ticks"])
            elif kind == "quiesce":
                self._quiesce()
        self._quiesce()
        self._check()

    def _do_txn(self, params: dict[str, Any]) -> None:
        self.stats["txns_submitted"] += 1
        txn_id = self.coordinator.submit(
            inserts=params.get("inserts") or {},
            deletes=params.get("deletes") or {},
        )
        self.submitted.append(txn_id)

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

    def _quiesce(self) -> None:
        """Heal everything and drain the 2PC layer to silence."""
        for shard in sorted(self._heal_at):
            self.links[shard].partition(False)
        self._heal_at.clear()
        for _ in range(MAX_DRAIN_TICKS):
            if self.coordinator.pending_count() == 0 and all(
                link.idle() for link in self.links
            ):
                return
            self._tick()
        self.divergences.append(
            f"cluster failed to quiesce within {MAX_DRAIN_TICKS} ticks "
            f"({self.coordinator.pending_count()} pending transactions)"
        )

    # -- the oracle --------------------------------------------------------
    def _ground_truth(self) -> tuple[Database, ViewMaintainer]:
        database = Database()
        for name in sorted(self.tables):
            database.create_relation(
                name, list(self.tables[name]), self.rows[name]
            )
        for name in sorted(self.constraints):
            database.declare_constraint(
                name, Condition.coerce(self.constraints[name])
            )
        for name in sorted(self.keys):
            for key in self.keys[name]:
                database.declare_key(name, list(key))
        maintainer = ViewMaintainer(database)
        for name, expression in self.views:
            maintainer.define_view(name, expression)
        for entry in self.coordinator.committed_log:
            txn = database.begin(txn_id=entry["txn"])
            for name in sorted(entry["deletes"]):
                txn.delete_many(name, entry["deletes"][name])
            for name in sorted(entry["inserts"]):
                txn.insert_many(name, entry["inserts"][name])
            txn.commit()
        maintainer.quiesce()
        return database, maintainer

    @staticmethod
    def _diff(
        label: str,
        want: dict[tuple[int, ...], int],
        have: dict[tuple[int, ...], int],
    ) -> str | None:
        if want == have:
            return None
        missing = sorted(set(want) - set(have))
        unexpected = sorted(set(have) - set(want))
        recounted = sorted(
            key for key in set(want) & set(have) if want[key] != have[key]
        )
        return (
            f"{label} diverges (missing {missing[:3]!r}, unexpected "
            f"{unexpected[:3]!r}, count mismatches {recounted[:3]!r}; "
            f"sizes {len(want)} vs {len(have)})"
        )

    def _check(self) -> None:
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

        # 1. merged views == single-node views
        for name, _ in self.views:
            merged, _, _ = self.coordinator.merged_counts(name)
            truth = maintainer.view(name).contents.counts()
            message = self._diff(f"merged view {name!r}", truth, merged)
            if message:
                self.divergences.append(message)
        # 2. the changefeed mirror == single-node views
        for name, _ in self.views:
            truth = maintainer.view(name).contents.counts()
            message = self._diff(f"changefeed mirror {name!r}", truth, self.mirror[name])
            if message:
                self.divergences.append(message)
        # 3. partitioned union == single-node relation; slices in range.
        # With base-free shards only the home slice is materialized
        # anywhere, so the union is compared against the single-node
        # relation restricted to home-owned rows — and every base-free
        # node must hold zero base rows at all.
        truth_r = database.relation("r").counts()
        if self.config.base_free:
            schema = database.relation("r").schema
            attributes = self.tables["r"]
            truth_r = {
                values: count
                for values, count in truth_r.items()
                if self.topology.shard_of_row(
                    "r", attributes, schema.decode_values(values)
                )
                == HOME_SHARD
            }
        merged_r, _, _ = self.coordinator.merged_counts("r")
        message = self._diff(
            "partitioned relation 'r' union",
            truth_r,
            merged_r,
        )
        if message:
            self.divergences.append(message)
        for node in self.coordinator.nodes():
            if not node.base_free:
                continue
            self.stats["base_free_rows_dropped"] += node.base_rows_dropped
            for name in sorted(self.tables):
                held = len(node.database.relation(name))
                if held:
                    self.divergences.append(
                        f"base-free shard {node.shard_id} holds {held} "
                        f"tuples of base relation {name!r}"
                    )
        for node in self.coordinator.nodes():
            attributes = self.tables["r"]
            for values, _ in node.database.relation("r").items():
                decoded = node.database.relation("r").schema.decode_values(values)
                owner = self.topology.shard_of_row("r", attributes, decoded)
                if owner != node.shard_id:
                    self.divergences.append(
                        f"shard {node.shard_id} holds misrouted row "
                        f"{tuple(decoded)!r} of 'r' (owner {owner})"
                    )
        # 4. home replicated copies == single-node relations
        home = self.coordinator.nodes()[HOME_SHARD]
        for name in ("s", "t"):
            message = self._diff(
                f"home copy of {name!r}",
                database.relation(name).counts(),
                home.database.relation(name).counts(),
            )
            if message:
                self.divergences.append(message)
        # 6. every shard's aggregate state is internally sound
        for node in self.coordinator.nodes():
            self.divergences.extend(
                audit_aggregate_state(f"shard {node.shard_id}", node.maintainer)
            )
        # Fold the routing counters into the batch stats.
        counters = self.coordinator.recorder.counters
        for key in (
            "cluster_deltas_sent",
            "cluster_deltas_skipped",
            "cluster_retransmissions",
            "cluster_shard_rebuilds",
        ):
            self.stats[key] += counters.get(key, 0)


def run_cluster_episode(
    seed: int,
    config: ClusterSimConfig,
    schedule: Schedule | None = None,
) -> ClusterEpisodeResult:
    """Execute one sharded episode; escapes become divergences."""
    if schedule is None:
        schedule = generate_cluster_schedule(
            random.Random(f"{seed}:schedule"), config
        )
    stats: Counter = Counter()
    divergences: list[str] = []
    try:
        episode = _ClusterEpisode(seed, config)
        stats, divergences = episode.stats, episode.divergences
        episode.run(schedule)
    except Exception as exc:  # noqa: BLE001 — an escape *is* the finding
        divergences.append(f"unhandled {type(exc).__name__}: {exc}")
    return ClusterEpisodeResult(seed, schedule, stats, divergences)


class ClusterSimReport:
    """Aggregated outcome of a sharded simulation batch."""

    __slots__ = ("config", "stats", "episodes", "failures")

    def __init__(
        self,
        config: ClusterSimConfig,
        stats: Counter,
        episodes: list[ClusterEpisodeResult],
        failures: list[ClusterEpisodeResult],
    ) -> None:
        self.config = config
        self.stats = stats
        self.episodes = episodes
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        """A deterministic multi-line summary (same seed, same text)."""
        config = self.config
        lines = [
            f"cluster simulation seed={config.seed} "
            f"episodes={len(self.episodes)} events={config.events} "
            f"shards={config.shards} crashes={config.crashes} "
            f"partitions={config.partitions} routed={config.routed} "
            f"base_free={config.base_free} keyed={config.keyed}"
        ]
        for key in sorted(self.stats):
            lines.append(f"  {key}: {self.stats[key]}")
        for failure in self.failures:
            lines.append(f"DIVERGENCE seed={failure.seed}")
            for message in failure.divergences[:5]:
                lines.append(f"  ! {message}")
        lines.append(
            "OK" if self.ok else f"FAILED ({len(self.failures)} episodes)"
        )
        return "\n".join(lines)


def cluster_episode_seeds(config: ClusterSimConfig) -> list[int]:
    """The batch's episode seeds, derived from the master seed."""
    rng = random.Random(f"{config.seed}:cluster-episodes")
    return [rng.randrange(2**31) for _ in range(config.episodes)]


def run_cluster_simulation(
    config: ClusterSimConfig, max_failures: int = 3
) -> ClusterSimReport:
    """Run the batch; stops early after ``max_failures`` divergences."""
    stats: Counter = Counter()
    episodes: list[ClusterEpisodeResult] = []
    failures: list[ClusterEpisodeResult] = []
    for seed in cluster_episode_seeds(config):
        result = run_cluster_episode(seed, config)
        episodes.append(result)
        stats.update(result.stats)
        stats["episodes"] += 1
        if not result.ok:
            failures.append(result)
            if len(failures) >= max_failures:
                break
    return ClusterSimReport(config, stats, episodes, failures)
