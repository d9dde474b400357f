"""Workload generation and the episode machine.

A **schedule** is pure data: a list of ``(kind, payload)`` events drawn
from one seeded RNG, with no reference to database state, file paths or
live objects.  That is what makes an episode replayable (the same
schedule against the same seed produces the identical run, so a failing
seed is a complete bug report) and minimizable (the runner can delete
events from the list and re-execute).

An :class:`Episode` executes a schedule against a full stack built in a
scratch directory: a leader :class:`~repro.engine.database.Database`
with paper-class SPJ views under a
:class:`~repro.core.maintainer.ViewMaintainer`, a
:class:`~repro.replication.durability.DurabilityManager` writing through
a :class:`~repro.simulation.faults.FaultyWalIO`, a
:class:`~repro.server.server.ViewServer` reached through in-process
sessions, followers fed over lossy
:class:`~repro.simulation.network.ReplicaLink` channels, and
changefeed-mirroring :class:`~repro.simulation.network.SimClient`\\ s.

Event kinds
-----------
``txn``              random net-effect transaction on the leader
``server_txn``       the same, submitted through a client session
``client_query``     an ad-hoc read over the wire
``net``              advance virtual time; pump channels and clients
``checkpoint``       flush barrier + durability checkpoint
``quiesce``          drain everything, then run the full oracle
``subscriber_churn`` a client drops and re-opens its subscription
``client_stall``     a client stops draining its link (slow consumer)
``follower_stall``   a replica link stops consuming
``partition``        a replica channel silently discards until healed
``ddl_index``        create or drop an index (exercises the DDL bus)
``ddl_scratch``      create/drop a scratch relation (+ checkpoint:
                     the WAL carries no schema, so schema changes are
                     checkpoint state by contract)
``view_churn``       drop + redefine the churn view ``w`` (+ checkpoint)
``crash``            the machine dies: un-fsynced WAL bytes may vanish,
                     then full recovery + oracle + follower repair
``corrupt``          crash, then flip one stored WAL bit; recovery must
                     either detect it (CRC) or classify it as the torn
                     tail — both end the episode

Deferred views are only required to agree with the oracle at quiescent
points, which is why every oracle round is preceded by
:meth:`ViewMaintainer.quiesce`.

A config with ``shards`` > 0 describes the sharded topology instead:
:func:`generate_schedule` then draws that topology's events and the
runner executes them on a
:class:`~repro.simulation.sharded.ShardedEpisode`.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from typing import Any

from repro.algebra.conditions import OPERATORS, Atom, Condition, Conjunction
from repro.algebra.expressions import BaseRef, Expression, Join, Project, Select
from repro.core.maintainer import MaintenancePolicy, ViewMaintainer
from repro.engine.database import Database
from repro.errors import ReproError
from repro.replication.durability import DurabilityManager
from repro.replication.follower import Follower
from repro.replication.recovery import Recovery
from repro.replication.wal import WalCorruptionError, WalReader
from repro.scheduler import RefreshScheduler, StalenessSLA
from repro.server.protocol import ProtocolError
from repro.server.server import ServerConfig, ViewServer
from repro.simulation import oracle
from repro.simulation.clock import SimClock
from repro.simulation.faults import FaultyWalIO, flip_segment_byte
from repro.simulation.network import ReplicaLink, SimChannel, SimClient
from repro.simulation.sharded import sharded_schedule

#: The simulated schema: three base relations with disjoint attribute
#: names, so any natural join between them is a (filtered) product —
#: the paper's select-project-join shape.
BASE_TABLES: dict[str, tuple[str, ...]] = {
    "r": ("A", "B"),
    "s": ("C", "D"),
    "t": ("E", "F"),
}

#: Cell values are drawn from a small domain so random deletes collide
#: with existing rows and join conditions actually match.
VALUE_MIN, VALUE_MAX = 0, 6

#: Small WAL segments force rotation (and therefore multi-segment
#: crash/truncation coverage) within a single episode.
SEGMENT_BYTES = 600


# ----------------------------------------------------------------------
# Random paper-class SPJ views
# ----------------------------------------------------------------------
def random_spj_expression(
    rng: random.Random,
    tables: dict[str, tuple[str, ...]] | None = None,
    max_operands: int = 3,
) -> Expression:
    """A random select-project-join view over ``tables``.

    The shape is exactly the paper's Section 2 class: a join of distinct
    base relations, a conjunctive selection whose atoms compare an
    attribute with another attribute plus an integer offset or with a
    constant (the Rosenkrantz–Hunt tractable class), and an optional
    projection.  Multi-operand views always carry at least one atom so
    raw products stay small.  Used both by the simulator's workload and
    by the hypothesis strategies in ``tests/strategies.py``.
    """
    return _random_spj_core(rng, tables, max_operands)[0]


def _random_spj_core(
    rng: random.Random,
    tables: dict[str, tuple[str, ...]] | None,
    max_operands: int,
) -> tuple[Expression, list[str]]:
    """The SPJ generator body, also reporting the output attributes."""
    if tables is None:
        tables = BASE_TABLES
    weights = [0.35, 0.45, 0.2][: max(1, min(max_operands, 3))]
    operand_count = rng.choices(range(1, len(weights) + 1), weights)[0]
    operand_count = min(operand_count, len(tables))
    names = rng.sample(sorted(tables), operand_count)
    expression: Expression = BaseRef(names[0])
    attributes: list[str] = list(tables[names[0]])
    for name in names[1:]:
        expression = Join(expression, BaseRef(name))
        attributes.extend(tables[name])

    minimum_atoms = 1 if operand_count > 1 else 0
    atom_count = rng.randint(minimum_atoms, 3)
    atoms = []
    for _ in range(atom_count):
        op = rng.choice(OPERATORS)
        left = rng.choice(attributes)
        if len(attributes) > 1 and rng.random() < 0.5:
            right = rng.choice([a for a in attributes if a != left])
            atoms.append(Atom(left, op, right, offset=rng.randint(-3, 3)))
        else:
            atoms.append(Atom(left, op, rng.randint(VALUE_MIN, VALUE_MAX)))
    if atoms:
        expression = Select(expression, Condition([Conjunction(atoms)]))

    if rng.random() < 0.8:
        kept = sorted(rng.sample(attributes, rng.randint(1, len(attributes))))
        expression = Project(expression, kept)
        attributes = kept
    return expression, list(attributes)


def random_aggregate_expression(
    rng: random.Random,
    tables: dict[str, tuple[str, ...]] | None = None,
    max_operands: int = 2,
    allow_minmax: bool = True,
) -> Expression:
    """A random GROUP BY view over a random SPJ core.

    The core comes from the same generator as the plain SPJ views; on
    top of it, a random subset of the core's output attributes becomes
    the grouping key (possibly empty — a global aggregate) and one to
    three aggregate columns are drawn from COUNT/SUM/AVG (plus MIN/MAX
    unless ``allow_minmax`` is off — base-free hosts reject MIN/MAX, so
    the base-free follower workload pins it off).  Used by the episode
    machine and re-exported to hypothesis via ``tests/strategies.py``.
    """
    core, attributes = _random_spj_core(rng, tables, max_operands)
    key_count = rng.randint(0, len(attributes) - 1) if len(attributes) > 1 else 0
    keys = sorted(rng.sample(attributes, key_count)) if key_count else []
    functions = ["count", "sum", "avg"] + (["min", "max"] if allow_minmax else [])
    columns: list[tuple[str, str | None, str]] = []
    for index in range(rng.randint(1, 3)):
        func = rng.choice(functions)
        attribute = None if func == "count" else rng.choice(attributes)
        columns.append((func, attribute, f"agg{index}"))
    return core.aggregate(keys, columns)


def _random_row(rng: random.Random, arity: int) -> list[int]:
    return [rng.randint(VALUE_MIN, VALUE_MAX) for _ in range(arity)]


# ----------------------------------------------------------------------
# Simulation configuration
# ----------------------------------------------------------------------
class SimulationConfig:
    """Knobs for a simulation batch (all deterministic given ``seed``).

    ``shards`` picks the topology: 0 is the single-node stack
    (:class:`Episode`: WAL, server, followers, clients), N > 0 a cluster
    of N shards (:class:`~repro.simulation.sharded.ShardedEpisode`).
    ``ddl``, ``corruption``, ``followers``, ``base_free_followers``,
    ``clients`` and ``lost_fsync_rate`` only shape the single node;
    ``routed``, ``keyed`` and ``base_free_shards`` only the cluster.
    ``crashes`` and ``partitions`` apply to both: with ``partitions``
    every link is lossy as well as partitionable.
    """

    __slots__ = (
        "seed",
        "episodes",
        "events",
        "shards",
        "crashes",
        "partitions",
        "ddl",
        "corruption",
        "followers",
        "base_free_followers",
        "clients",
        "lost_fsync_rate",
        "routed",
        "keyed",
        "base_free_shards",
    )

    def __init__(
        self,
        seed: int = 0,
        episodes: int = 10,
        events: int = 40,
        shards: int = 0,
        crashes: bool = True,
        partitions: bool = True,
        ddl: bool = True,
        corruption: bool = False,
        followers: int = 1,
        base_free_followers: int = 1,
        clients: int = 2,
        lost_fsync_rate: float = 0.15,
        routed: bool = True,
        keyed: bool = False,
        base_free_shards: bool = False,
    ) -> None:
        self.seed = seed
        self.episodes = episodes
        self.events = events
        self.shards = shards
        self.crashes = crashes
        self.partitions = partitions
        self.ddl = ddl
        self.corruption = corruption
        self.followers = followers
        #: Extra followers hosting self-maintainable views with their
        #: base-relation copies shed (verified against the leader by
        #: :func:`repro.simulation.oracle.verify_base_free_follower`).
        self.base_free_followers = base_free_followers
        self.clients = clients
        self.lost_fsync_rate = lost_fsync_rate
        #: Skip the deltas the routing analysis proves irrelevant to a
        #: shard (``False`` broadcasts every replicated delta).
        self.routed = routed
        #: Declare a key on the partitioned relation, plus the
        #: constraint that makes the row a function of it, so base-free
        #: owners can track key occupancy (docs/cluster.md).
        self.keyed = keyed
        #: Every non-home shard sheds its base rows.  Without ``keyed``
        #: the partitioned-relation ops then stay in the home shard's
        #: range: a base-free owner cannot existence-check a delete or
        #: detect a duplicate insert, so only rows a full replica
        #: validates may be touched (the documented trust boundary).
        self.base_free_shards = base_free_shards

    @property
    def total_followers(self) -> int:
        """Full replicas plus base-free replicas (one link each)."""
        return self.followers + self.base_free_followers


# ----------------------------------------------------------------------
# Schedule generation (pure data)
# ----------------------------------------------------------------------
def generate_schedule(
    rng: random.Random, config: SimulationConfig
) -> list[tuple[str, dict[str, Any]]]:
    """Draw ``config.events`` weighted events; no state is consulted."""
    if config.shards:
        return sharded_schedule(rng, config)
    kinds: list[tuple[str, float]] = [
        ("txn", 22),
        ("server_txn", 8),
        ("client_query", 4),
        ("net", 26),
        ("checkpoint", 4),
        ("quiesce", 3),
        ("subscriber_churn", 3),
    ]
    if config.partitions:
        kinds.append(("client_stall", 3))
        if config.total_followers:
            kinds.append(("follower_stall", 3))
            kinds.append(("partition", 3))
    if config.ddl:
        kinds.append(("ddl_index", 3))
        kinds.append(("ddl_scratch", 2))
        kinds.append(("view_churn", 2))
    if config.crashes:
        kinds.append(("crash", 2))
    population = [kind for kind, _ in kinds]
    weights = [weight for _, weight in kinds]

    schedule: list[tuple[str, dict[str, Any]]] = []
    for _ in range(config.events):
        kind = rng.choices(population, weights)[0]
        schedule.append((kind, _payload(rng, kind, config)))
    if config.corruption and rng.random() < 0.75 and len(schedule) > 1:
        position = rng.randint(len(schedule) // 2, len(schedule))
        schedule.insert(position, ("corrupt", {}))
    return schedule


def _payload(
    rng: random.Random, kind: str, config: SimulationConfig
) -> dict[str, Any]:
    if kind == "txn":
        ops = []
        for _ in range(rng.randint(1, 4)):
            name = rng.choice(sorted(BASE_TABLES))
            row = _random_row(rng, len(BASE_TABLES[name]))
            roll = rng.random()
            if roll < 0.6:
                ops.append(["ins", name, row])
            elif roll < 0.85:
                ops.append(["del", name, row])
            else:  # an update: delete one row, insert another
                ops.append(["del", name, row])
                ops.append(["ins", name, _random_row(rng, len(row))])
        return {"ops": ops}
    if kind == "server_txn":
        name = rng.choice(sorted(BASE_TABLES))
        arity = len(BASE_TABLES[name])
        payload: dict[str, Any] = {
            "client": rng.randrange(config.clients),
            "insert": {name: [_random_row(rng, arity)]},
        }
        if rng.random() < 0.5:
            other = rng.choice(sorted(BASE_TABLES))
            payload["delete"] = {
                other: [_random_row(rng, len(BASE_TABLES[other]))]
            }
        return payload
    if kind == "client_query":
        targets = sorted(BASE_TABLES) + ["v0", "v1", "va", "vd"]
        return {
            "client": rng.randrange(config.clients),
            "target": rng.choice(targets),
        }
    if kind == "net":
        return {"ticks": rng.randint(1, 4)}
    if kind == "subscriber_churn":
        return {"client": rng.randrange(config.clients)}
    if kind == "client_stall":
        return {"client": rng.randrange(config.clients), "ticks": rng.randint(2, 6)}
    if kind == "follower_stall":
        return {
            "follower": rng.randrange(config.total_followers),
            "ticks": rng.randint(2, 6),
        }
    if kind == "partition":
        return {
            "follower": rng.randrange(config.total_followers),
            "ticks": rng.randint(2, 8),
        }
    if kind == "ddl_index":
        name = rng.choice(sorted(BASE_TABLES))
        attrs = rng.sample(BASE_TABLES[name], rng.randint(1, 2))
        return {
            "action": rng.choice(["create", "drop"]),
            "relation": name,
            "attributes": sorted(attrs),
        }
    if kind == "view_churn":
        return {"seed": rng.randrange(2**31)}
    # checkpoint, quiesce, ddl_scratch, crash, corrupt carry no payload.
    return {}


# ----------------------------------------------------------------------
# The episode machine
# ----------------------------------------------------------------------
class Episode:
    """One seeded run of the whole stack against a schedule.

    Everything nondeterministic flows from split RNGs derived from the
    episode seed by *string* seeding (stable across processes, unlike
    ``hash``): setup, fault injection and per-channel behavior each get
    their own stream, so removing an event during minimization perturbs
    as little unrelated behavior as possible.
    """

    #: Bound on quiesce drain ticks; hitting it is itself a divergence
    #: (retransmission plus healed partitions must always converge).
    MAX_DRAIN_TICKS = 600

    def __init__(self, seed: int, config: SimulationConfig, directory: str) -> None:
        self.seed = seed
        self.config = config
        self.directory = directory
        self.clock = SimClock()
        self.trace: list[str] = []
        self.stats: Counter = Counter()
        self.divergences: list[str] = []
        #: Set when a corruption event ends the run before the schedule
        #: does ("corruption_detected" or "corruption_survived_tail").
        self.ended_early: str | None = None
        self.io = FaultyWalIO(
            random.Random(f"{seed}:io"),
            lost_fsync_rate=config.lost_fsync_rate if config.crashes else 0.0,
        )
        #: name -> (expression, policy): the view registry recovery
        #: rebuilds from (view definitions are code, not WAL records).
        self.views: dict[str, tuple[Expression, MaintenancePolicy]] = {}
        self.server_generation = 0
        self._client_generation: dict[str, int] = {}
        self._partition_heal: dict[int, int] = {}
        setup_rng = random.Random(f"{seed}:setup")
        self._build_leader(setup_rng)
        self._build_followers(setup_rng)
        self._build_clients()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_leader(self, rng: random.Random) -> None:
        self.database = Database()
        for name in sorted(BASE_TABLES):
            attributes = BASE_TABLES[name]
            rows = {
                tuple(_random_row(rng, len(attributes)))
                for _ in range(rng.randint(4, 8))
            }
            self.database.create_relation(name, attributes, sorted(rows))
        self.maintainer = ViewMaintainer(self.database)
        for name, policy in (
            ("v0", MaintenancePolicy.IMMEDIATE),
            ("v1", MaintenancePolicy.IMMEDIATE),
            ("vd", MaintenancePolicy.DEFERRED),
        ):
            expression = random_spj_expression(rng)
            self.maintainer.define_view(name, expression, policy=policy)
            self.views[name] = (expression, policy)
        # One aggregate view rides every episode, so crash/recovery,
        # checkpoints, changefeeds and the oracle rounds all exercise
        # the grouped-accumulator path alongside the plain SPJ views.
        aggregate = random_aggregate_expression(rng)
        self.maintainer.define_view(
            "va", aggregate, policy=MaintenancePolicy.IMMEDIATE
        )
        self.views["va"] = (aggregate, MaintenancePolicy.IMMEDIATE)
        self.durability = DurabilityManager(
            self.database,
            self.directory,
            segment_bytes=SEGMENT_BYTES,
            sync="commit",
            io=self.io,
        )
        # Followers and recovery both bootstrap from a checkpoint.
        self._checkpoint_now()
        self.server = ViewServer(
            self.database, self.maintainer, self._server_config(),
            durability=self.durability,
        )
        self._attach_scheduler()

    def _attach_scheduler(self) -> None:
        # The deferred view "vd" runs under a staleness SLA driven by
        # the episode's virtual clock: the scheduler ticks once per
        # simulated network tick, so SLA violations are as replayable
        # as everything else.
        self.scheduler = RefreshScheduler(
            self.maintainer, clock=self.clock, batch_limit=2
        )
        self.scheduler.declare_sla(
            "vd", StalenessSLA(max_pending_commits=8, max_lag_ticks=6)
        )

    def _server_config(self) -> ServerConfig:
        return ServerConfig(changefeed_history=64)

    def _build_followers(self, rng: random.Random) -> None:
        self.links: list[ReplicaLink] = []
        self.follower_views: list[tuple[str, Expression, bool]] = []
        for index in range(self.config.total_followers):
            # Links past the full replicas host base-free followers:
            # their views must be self-maintainable, so they get
            # single-relation definitions (a random join view would be
            # legitimately rejected at shed time).
            base_free = index >= self.config.followers
            follower = Follower(self.directory, base_free=base_free)
            name = f"g{index}"
            # Followers host aggregate views too; base-free ones only
            # get the self-maintainable subset (single relation, no
            # MIN/MAX — shedding would otherwise be rightly refused).
            if rng.random() < 0.4:
                expression = random_aggregate_expression(
                    rng,
                    max_operands=1 if base_free else 2,
                    allow_minmax=not base_free,
                )
            else:
                expression = random_spj_expression(
                    rng, max_operands=1 if base_free else 3
                )
            follower.define_view(name, expression)
            self.follower_views.append((name, expression, base_free))
            lossy = self.config.partitions
            channel = SimChannel(
                self.clock,
                random.Random(f"{self.seed}:chan{index}"),
                delay_max=2,
                drop_rate=0.08 if lossy else 0.0,
                duplicate_rate=0.08 if lossy else 0.0,
                reorder_rate=0.15 if lossy else 0.0,
            )
            self.links.append(ReplicaLink(follower, channel))

    def _build_clients(self) -> None:
        self.clients: list[SimClient] = []
        for index in range(self.config.clients):
            # Subscriptions rotate over a plain view, the aggregate view
            # and a second plain view, so two clients already put an
            # aggregate changefeed mirror under verification.
            view_name = ("v0", "va", "v1")[index % 3]
            self.clients.append(SimClient(f"c{index}", self.clock, view_name))
        self._ensure_clients()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, schedule: list[tuple[str, dict[str, Any]]]) -> "Episode":
        for index, (kind, payload) in enumerate(schedule):
            detail = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            self.trace.append(f"[{index}] t={self.clock.now} {kind} {detail}")
            getattr(self, f"_event_{kind}")(payload)
            if self.ended_early:
                break
        if not self.ended_early:
            self.trace.append(f"[end] t={self.clock.now} quiesce (final)")
            self._event_quiesce({})
        self._collect_stats()
        return self

    def _fold_scheduler_stats(self) -> None:
        self.stats.update(self.scheduler.totals.family("scheduler").as_dict())

    def _collect_stats(self) -> None:
        for client in self.clients:
            self.divergences.extend(client.divergences)
            for key, value in client.counters.items():
                self.stats[f"client_{key}"] += value
        for link in self.links:
            self.stats["follower_records_applied"] += link.records_applied
            if link.follower.base_free:
                self.stats["base_free_rows_dropped"] += (
                    link.follower.base_rows_dropped
                )
            for key, value in link.channel.stats().items():
                self.stats[f"net_{key}"] += value
        for key, value in self.io.stats().items():
            self.stats[key] += value
        self._fold_scheduler_stats()

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _event_txn(self, payload: dict[str, Any]) -> None:
        with self.database.transact() as txn:
            for op, name, row in payload["ops"]:
                if op == "ins":
                    txn.insert(name, row)
                else:
                    txn.delete(name, row)
        self.stats["txns"] += 1

    def _event_server_txn(self, payload: dict[str, Any]) -> None:
        self._ensure_clients()
        client = self.clients[payload["client"]]
        if client.submit_txn(payload.get("insert", {}), payload.get("delete", {})):
            self.stats["server_txns"] += 1

    def _event_client_query(self, payload: dict[str, Any]) -> None:
        self._ensure_clients()
        client = self.clients[payload["client"]]
        if client.submit_query(payload["target"]):
            self.stats["client_queries"] += 1

    def _event_net(self, payload: dict[str, Any]) -> None:
        for _ in range(payload["ticks"]):
            self.clock.advance(1)
            self._pump_network()
            for name in self.scheduler.tick():
                self.stats[f"scheduler_refreshed_{name}"] += 1

    def _event_checkpoint(self, payload: dict[str, Any]) -> None:
        self._checkpoint_now()

    def _event_subscriber_churn(self, payload: dict[str, Any]) -> None:
        self._ensure_clients()
        self.clients[payload["client"]].resubscribe()
        self.stats["subscriber_churns"] += 1

    def _event_client_stall(self, payload: dict[str, Any]) -> None:
        self.clients[payload["client"]].stall(self.clock.now + payload["ticks"])
        self.stats["client_stalls"] += 1

    def _event_follower_stall(self, payload: dict[str, Any]) -> None:
        self.links[payload["follower"]].stall(self.clock.now + payload["ticks"])
        self.stats["follower_stalls"] += 1

    def _event_partition(self, payload: dict[str, Any]) -> None:
        index = payload["follower"]
        self.links[index].channel.partitioned = True
        heal_at = self.clock.now + payload["ticks"]
        self._partition_heal[index] = max(
            self._partition_heal.get(index, 0), heal_at
        )
        self.stats["partitions"] += 1

    def _event_ddl_index(self, payload: dict[str, Any]) -> None:
        if payload["action"] == "create":
            self.database.create_index(payload["relation"], payload["attributes"])
        else:
            self.database.drop_index(payload["relation"], payload["attributes"])
        self.stats["ddl_index"] += 1

    def _event_ddl_scratch(self, payload: dict[str, Any]) -> None:
        # The WAL carries no schema: a schema change is only durable as
        # checkpoint state, so it is immediately followed by one.  The
        # scratch relation never receives rows — it exercises the DDL
        # notification bus and checkpoint schema round-trip.
        if "scratch" in self.database.relation_names():
            self.database.drop_relation("scratch")
        else:
            self.database.create_relation("scratch", ("G", "H"))
        self._checkpoint_now()
        self.stats["ddl_scratch"] += 1

    def _event_view_churn(self, payload: dict[str, Any]) -> None:
        # Redefine the churn view "w" under a fresh random definition.
        # Like all DDL it pairs with a checkpoint, so recovery re-adopts
        # contents that match the current definition.  "w" is leader-
        # only and never subscribed, so the stale-changefeed question
        # does not arise.
        rng = random.Random(f"view-churn:{payload['seed']}")
        expression = random_spj_expression(rng)
        if "w" in self.maintainer.view_names():
            self.maintainer.drop_view("w")
        self.maintainer.define_view("w", expression, policy=MaintenancePolicy.IMMEDIATE)
        self.views["w"] = (expression, MaintenancePolicy.IMMEDIATE)
        self._checkpoint_now()
        self.stats["view_churns"] += 1

    def _event_crash(self, payload: dict[str, Any]) -> None:
        self._crash_machine()
        self._recover()

    def _event_corrupt(self, payload: dict[str, Any]) -> None:
        # Crash first so the flipped byte survives into recovery, then
        # damage one stored bit.  The contract: recovery either raises
        # WalCorruptionError (damage with valid records after it) or
        # soundly classifies the damage as the torn tail (final record)
        # and converges to the surviving prefix.  Either way the
        # pre-crash expectations are void, so the episode ends here.
        self._crash_machine()
        flip = flip_segment_byte(self.directory, self.io.rng)
        if flip is None:
            self.trace.append("[corrupt] log empty; nothing to damage")
            self._recover()
            return
        self.stats["corruption_injected"] += 1
        self.trace.append(f"[corrupt] flipped a bit at {flip[0]}+{flip[1]}")
        try:
            self._recover()
        except WalCorruptionError as exc:
            self.stats["corruption_detected"] += 1
            self.trace.append(f"[corrupt] detected: {exc}")
            self.ended_early = "corruption_detected"
            return
        self.stats["corruption_survived_tail"] += 1
        self.ended_early = "corruption_survived_tail"

    def _event_quiesce(self, payload: dict[str, Any]) -> None:
        self._drain_network()
        self.maintainer.quiesce()
        for client in self.clients:
            client.request_verify()
        self._drain_network()
        self._oracle_round()
        self.stats["quiesces"] += 1

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def _crash_machine(self) -> None:
        for name, before, after in self.io.crash():
            self.trace.append(f"[crash] {name}: {before} -> {after} bytes")
        self.stats["crashes"] += 1
        self.server_generation += 1
        for client in self.clients:
            client.on_server_gone()

    def _recover(self) -> None:
        recovery = Recovery(self.directory)
        maintainer = ViewMaintainer(recovery.database)
        for name in sorted(self.views):
            expression, policy = self.views[name]
            recovery.restore_view(maintainer, name, expression, policy=policy)
        recovery.replay()
        self.database = recovery.database
        self.maintainer = maintainer
        self.durability = DurabilityManager(
            self.database,
            self.directory,
            segment_bytes=SEGMENT_BYTES,
            sync="commit",
            io=self.io,
            scan=recovery.scan,
        )
        self.server = ViewServer(
            self.database, self.maintainer, self._server_config(),
            durability=self.durability,
        )
        # The scheduler dies with the machine; fold its counters into
        # the episode stats and attach a fresh one to the recovered
        # maintainer (SLA declarations are code, like view definitions).
        self._fold_scheduler_stats()
        self._attach_scheduler()
        self.stats["recoveries"] += 1
        # The recovered copy must equal checkpoint + surviving WAL,
        # independently rebuilt without any maintainer in the loop.
        self.divergences.extend(
            oracle.verify_database_against_wal(
                "recovered leader", self.directory, self.database
            )
        )
        # Recovered views must pass the full-recompute oracle too; the
        # replayed backlog of deferred views is applied first.
        self.maintainer.quiesce()
        self.divergences.extend(
            oracle.verify_maintainer("recovered leader", self.maintainer)
        )
        for index, link in enumerate(self.links):
            if link.follower.position > self.durability.position:
                # The follower applied records the crash un-wrote; its
                # sequences may be reissued for different data.  It must
                # be rebuilt from the leader's checkpoint.
                self._rebootstrap_follower(index)
            else:
                # Records from the dead regime may still be in flight.
                link.reset(link.follower)

    def _rebootstrap_follower(self, index: int) -> None:
        """Rebuild one follower from the leader's latest checkpoint."""
        name, expression, base_free = self.follower_views[index]
        follower = Follower(self.directory, base_free=base_free)
        follower.define_view(name, expression)
        self.links[index].reset(follower)
        self.stats["follower_resets"] += 1

    def _follower_gapped(self, link: ReplicaLink) -> bool:
        """True when the log no longer holds the record the link needs.

        Checkpoints prune segments they cover, and the leader keeps no
        follower positions — so a follower lagging behind the prune
        horizon can never catch up from the log alone and must
        re-bootstrap from the checkpoint, exactly as a production
        replica behind the retention window would.
        """
        if link.follower.position >= self.durability.position:
            return False
        for record in WalReader(self.directory).records(
            after=link.follower.position
        ):
            return record.sequence > link.follower.position + 1
        # Behind the leader yet nothing on disk after its position:
        # everything it needs was pruned into the checkpoint.
        return True

    # ------------------------------------------------------------------
    # Network plumbing
    # ------------------------------------------------------------------
    def _ensure_clients(self) -> None:
        for client in self.clients:
            if client.connected():
                continue
            resume = (
                self._client_generation.get(client.name) == self.server_generation
            )
            try:
                client.connect(self.server, resume=resume)
            except ProtocolError:
                self.stats["client_connects_refused"] += 1
                continue
            self._client_generation[client.name] = self.server_generation

    def _heal_partitions(self) -> None:
        for index, heal_at in list(self._partition_heal.items()):
            if self.clock.now >= heal_at:
                self.links[index].channel.partitioned = False
                del self._partition_heal[index]

    def _pump_network(self) -> None:
        self._heal_partitions()
        self._ensure_clients()
        for link in self.links:
            link.pump()
            link.receive()
        for client in self.clients:
            client.process()

    def _network_idle(self) -> bool:
        for link in self.links:
            if not link.idle() or link.follower.position != self.durability.position:
                return False
        for client in self.clients:
            if not (client.connected() and client.seeded and client.idle()):
                return False
        return True

    def _drain_network(self) -> None:
        """Heal every fault, then tick until the whole system is idle."""
        for index in list(self._partition_heal):
            self.links[index].channel.partitioned = False
            del self._partition_heal[index]
        for link in self.links:
            link.stalled_until = 0
        for client in self.clients:
            client.stalled_until = 0
        for index, link in enumerate(self.links):
            if self._follower_gapped(link):
                self._rebootstrap_follower(index)
        for _ in range(self.MAX_DRAIN_TICKS):
            self._pump_network()
            if self._network_idle():
                return
            self.clock.advance(1)
        states = [
            f"{link.follower.position}/{self.durability.position}"
            for link in self.links
        ] + [repr(client) for client in self.clients]
        self.divergences.append(
            f"quiesce failed to converge within {self.MAX_DRAIN_TICKS} ticks: "
            + "; ".join(states)
        )

    # ------------------------------------------------------------------
    # Durability and the oracle
    # ------------------------------------------------------------------
    def _checkpoint_now(self) -> None:
        # A checkpoint is a durability claim; make it true first (see
        # the fault model's documented idealization).
        self.io.make_durable()
        self.durability.checkpoint(self.maintainer)
        self.stats["checkpoints"] += 1

    def _oracle_round(self) -> None:
        found: list[str] = []
        found.extend(oracle.verify_maintainer("leader", self.maintainer))
        found.extend(
            oracle.verify_database_against_wal(
                "leader", self.directory, self.database
            )
        )
        for index, link in enumerate(self.links):
            if link.follower.base_free:
                found.extend(
                    oracle.verify_base_free_follower(
                        f"base-free follower {index}",
                        link.follower,
                        self.database,
                    )
                )
            else:
                found.extend(
                    oracle.verify_follower(
                        f"follower {index}", link.follower, self.database,
                        required=sorted(BASE_TABLES),
                    )
                )
        self.stats["oracle_checks"] += 1
        self.divergences.extend(found)
