"""Tests for the sharded cluster subsystem.

Layered like ``src/repro/cluster``: unit coverage for key-range
topology and the Theorem 4.1 routing oracle; coordinator-level checks
over synchronous :class:`DirectLink` transports (routing ablation,
constraint vetoes, trivial commits); the ISSUE's three fault paths
under hand-pumped :class:`SimShardLink` transports —

* a shard crash mid-2PC never exposes a partial commit, and the
  transaction still completes after the rebuild;
* a network partition aborts the prepare phase with the typed
  ``shard_unavailable`` error, a clean retry succeeds, and the aborted
  transaction leaves no trace on any shard;
* the merged changefeed emits strictly in ``cluster_seq`` order even
  when shard acks complete out of order —

plus the wire-protocol front-end over a :class:`LocalSession`, the
layering (``repro.cluster`` imports nothing from the simulator), and
sharded episodes of the one simulator (``SimulationConfig(shards=N)``).
The batch smoke (``REPRO_CLUSTER_SIM_SMOKE=1``, CI's cluster job)
additionally asserts the acceptance criteria: zero divergences under
crash + partition + reorder faults with ``cluster_deltas_skipped > 0``.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from benchmarks.conftest import env_flag
from repro.algebra.expressions import BaseRef, to_normal_form
from repro.algebra.schema import RelationSchema
from repro.cluster import (
    HOME_SHARD,
    ClusterServer,
    ClusterTopology,
    PartitionSpec,
    build_cluster,
    build_routing_table,
    even_boundaries,
    validate_shardable,
)
from repro.cluster.coordinator import TIMEOUT_TICKS
from repro.core.maintainer import ViewMaintainer
from repro.engine.database import Database
from repro.errors import ClusterError, UnknownRelationError
from repro.server import protocol
from repro.simulation import SimulationConfig, run_episode, run_simulation
from repro.simulation.clock import SimClock
from repro.simulation.network import SimShardLink
from repro.simulation.sharded import ShardedEpisode, cluster_workload

CLUSTER_SMOKE = env_flag("REPRO_CLUSTER_SIM_SMOKE")


# ----------------------------------------------------------------------
# Shared workload helpers
# ----------------------------------------------------------------------
def make_cluster(shards=3, *, routed=True, link_factory=None):
    topology, tables, rows, constraints, _, views = cluster_workload(shards)
    return build_cluster(
        topology,
        tables,
        rows,
        constraints,
        views,
        routed=routed,
        link_factory=link_factory,
    )


def single_node_truth(coordinator):
    """Replay the coordinator's committed log on one node."""
    _, tables, rows, constraints, _, views = cluster_workload(
        coordinator.topology.shards
    )
    database = Database()
    for name in sorted(tables):
        database.create_relation(name, list(tables[name]), rows[name])
    for name in sorted(constraints):
        database.declare_constraint(name, constraints[name])
    maintainer = ViewMaintainer(database)
    for name, expression in views:
        maintainer.define_view(name, expression)
    for entry in coordinator.committed_log:
        txn = database.begin(txn_id=entry["txn"])
        for name in sorted(entry["deletes"]):
            txn.delete_many(name, (tuple(r) for r in entry["deletes"][name]))
        for name in sorted(entry["inserts"]):
            txn.insert_many(name, (tuple(r) for r in entry["inserts"][name]))
        txn.commit()
    maintainer.quiesce()
    return database, maintainer


def assert_matches_truth(coordinator):
    database, maintainer = single_node_truth(coordinator)
    for name in coordinator.views:
        merged, _, _ = coordinator.merged_counts(name)
        assert merged == maintainer.view(name).contents.counts(), name
    merged_r, _, _ = coordinator.merged_counts("r")
    assert merged_r == database.relation("r").counts()
    home = coordinator.nodes()[HOME_SHARD]
    for name in ("s", "t"):
        assert (
            home.database.relation(name).counts()
            == database.relation(name).counts()
        ), name


class SimCluster:
    """A cluster on hand-pumped fault-free SimShardLinks.

    ``delay_max=0`` makes every queued message due immediately, so one
    :meth:`pump` of one link runs exactly that shard's next protocol
    round — the per-shard interleaving control the fault tests need.
    """

    def __init__(self, shards=3):
        self.clock = SimClock()
        rng = random.Random(0)

        def factory(node, shard_id):
            return SimShardLink(node, self.clock, rng, delay_max=0)

        self.coordinator = make_cluster(shards, link_factory=factory)
        self.links = list(self.coordinator.links)

    def pump(self, shard):
        return self.links[shard].pump()

    def tick(self):
        self.clock.advance(1)
        for link in self.links:
            link.pump()
        self.coordinator.tick()

    def settle(self, budget=200):
        for _ in range(budget):
            if self.coordinator.pending_count() == 0 and all(
                link.idle() for link in self.links
            ):
                return
            self.tick()
        raise AssertionError("cluster failed to settle")


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------
class TestTopology:
    def test_even_boundaries_split_the_range(self):
        assert even_boundaries(1, 0, 6) == ()
        assert even_boundaries(3, 0, 6) == (1, 3)
        assert even_boundaries(7, 0, 6) == (0, 1, 2, 3, 4, 5)
        with pytest.raises(ClusterError):
            even_boundaries(8, 0, 6)
        with pytest.raises(ClusterError):
            even_boundaries(0, 0, 6)

    def test_shard_of_covers_every_value(self):
        spec = PartitionSpec("r", "A", (1, 3))
        owners = [spec.shard_of(v) for v in range(-2, 8)]
        assert owners == [0, 0, 0, 0, 1, 1, 2, 2, 2, 2]
        assert spec.shards == 3

    def test_range_condition_matches_shard_of(self):
        spec = PartitionSpec("r", "A", (1, 3))
        for shard in range(spec.shards):
            condition = spec.range_condition(shard)
            for value in range(-1, 7):
                holds = condition.evaluate({"A": value})
                assert holds == (spec.shard_of(value) == shard), (
                    shard,
                    value,
                )

    def test_shard_of_row_rejects_non_integer_keys(self):
        topology = ClusterTopology(3, [PartitionSpec("r", "A", (1, 3))])
        with pytest.raises(ClusterError):
            topology.shard_of_row("r", ("A", "B"), ("x", 0))
        assert topology.shard_of_row("r", ("A", "B"), (5, 0)) == 2

    def test_shard_premises_conjoin_global_and_range(self):
        topology = ClusterTopology(2, [PartitionSpec("r", "A", (3,))])
        premises = topology.shard_premises(0, {"r": "B >= 1", "s": "C >= 0"})
        assert "r" in premises and "s" in premises
        text = str(premises["r"])
        assert "B" in text and "A" in text


# ----------------------------------------------------------------------
# The routing oracle
# ----------------------------------------------------------------------
class TestRouting:
    def test_workload_routing_table(self):
        topology, tables, _, constraints, _, views = cluster_workload(3)
        catalog = {
            name: RelationSchema(list(attrs))
            for name, attrs in tables.items()
        }
        from repro.algebra.aggregates import Aggregate

        # Routing sees the SPJ core: the coordinator peels Aggregate
        # nodes (v_agg) before normal-forming, and so must we.
        normal_forms = {
            name: to_normal_form(
                expression.child
                if isinstance(expression, Aggregate)
                else expression,
                catalog,
            )
            for name, expression in views
        }
        table = build_routing_table(topology, normal_forms, constraints)
        # v_rs pins A = C and A <= low_cut, so replicated 's' is
        # provably irrelevant off the home shard; 't' joins without a
        # range restriction and must broadcast.
        for shard in (1, 2):
            assert table.should_skip(shard, "s")
            assert not table.should_skip(shard, "t")
        # The home shard keeps delta-complete replicated copies.
        assert not table.should_skip(HOME_SHARD, "s")
        # Partitioned relations route by key, never via the skip table.
        assert not table.should_skip(1, "r")
        assert table.proofs_attempted > 0
        description = table.describe()
        assert any("'s'" in line for line in description)

    def test_validate_shardable(self):
        topology = ClusterTopology(2, [PartitionSpec("r", "A", (3,))])
        catalog = {
            "r": RelationSchema(["A", "B"]),
            "s": RelationSchema(["C", "D"]),
        }
        good = to_normal_form(BaseRef("r").select("A <= 3"), catalog)
        assert validate_shardable("ok", good, topology) == "r"
        replicated_only = to_normal_form(BaseRef("s"), catalog)
        with pytest.raises(ClusterError):
            validate_shardable("bad", replicated_only, topology)
        self_join = to_normal_form(
            BaseRef("r").join(
                BaseRef("r").rename({"A": "A2", "B": "B2"})
            ),
            catalog,
        )
        with pytest.raises(ClusterError):
            validate_shardable("bad", self_join, topology)


# ----------------------------------------------------------------------
# Coordinator over DirectLinks
# ----------------------------------------------------------------------
class TestDirectCluster:
    def test_commits_resolve_synchronously_and_match_truth(self):
        coordinator = make_cluster(3)
        first = coordinator.submit(
            inserts={"r": [[0, 5], [5, 5]], "t": [[5, 5]]}
        )
        second = coordinator.submit(
            deletes={"r": [[1, 2]]}, inserts={"s": [[1, 1]]}
        )
        for txn_id in (first, second):
            outcome = coordinator.outcome(txn_id)
            assert outcome is not None and outcome["status"] == "committed"
        assert coordinator.last_sequence == 2
        assert [e["txn"] for e in coordinator.committed_log] == [
            first,
            second,
        ]
        assert_matches_truth(coordinator)

    def test_applied_counts_match_single_node_figures(self):
        # Partitioned rows split across shards must sum back to the
        # client's totals; replicated rows are applied on every shard
        # but must be reported once, not once per copy.
        coordinator = make_cluster(3)
        txn_id = coordinator.submit(
            inserts={"r": [[0, 1], [3, 1], [6, 1]], "s": [[2, 2]]},
            deletes={"t": [[2, 6]]},
        )
        outcome = coordinator.outcome(txn_id)
        assert outcome["status"] == "committed"
        assert outcome["applied"] == {
            "r": {"inserted": 3, "deleted": 0},
            "s": {"inserted": 1, "deleted": 0},
            "t": {"inserted": 0, "deleted": 1},
        }

    def test_routing_skips_count_and_do_not_change_results(self):
        routed = make_cluster(3, routed=True)
        broadcast = make_cluster(3, routed=False)
        operations = [
            {"inserts": {"s": [[1, 4]], "r": [[2, 2]]}},
            {"inserts": {"t": [[0, 0]]}, "deletes": {"s": [[3, 4]]}},
            {"deletes": {"r": [[4, 1]]}, "inserts": {"s": [[0, 9]]}},
        ]
        for coordinator in (routed, broadcast):
            for op in operations:
                txn_id = coordinator.submit(**op)
                assert coordinator.outcome(txn_id)["status"] == "committed"
        for name in list(routed.views) + ["r", "s", "t"]:
            assert (
                routed.merged_counts(name)[0]
                == broadcast.merged_counts(name)[0]
            ), name
        routed_counters = routed.recorder.counters
        broadcast_counters = broadcast.recorder.counters
        assert routed_counters.get("cluster_deltas_skipped", 0) > 0
        assert broadcast_counters.get("cluster_deltas_skipped", 0) == 0
        assert (
            broadcast_counters["cluster_deltas_sent"]
            > routed_counters["cluster_deltas_sent"]
        )

    def test_constraint_violation_aborts_with_no_effects(self):
        coordinator = make_cluster(3)
        before = {
            name: coordinator.merged_counts(name)[0]
            for name in list(coordinator.views) + ["r", "s", "t"]
        }
        txn_id = coordinator.submit(inserts={"s": [[-1, 0]], "r": [[0, 0]]})
        outcome = coordinator.outcome(txn_id)
        assert outcome["status"] == "aborted"
        assert outcome["code"] == protocol.E_TXN_FAILED
        assert "constraint" in outcome["error"]
        for name, counts in before.items():
            assert coordinator.merged_counts(name)[0] == counts, name
        assert coordinator.committed_log == []
        assert coordinator.pending_count() == 0

    def test_noop_transaction_commits_trivially(self):
        coordinator = make_cluster(2)
        txn_id = coordinator.submit(inserts={}, deletes={"r": []})
        outcome = coordinator.outcome(txn_id)
        assert outcome["status"] == "committed"
        assert outcome["applied"] == {}
        assert coordinator.last_sequence == 1

    def test_unknown_relation_is_rejected_up_front(self):
        coordinator = make_cluster(2)
        with pytest.raises(UnknownRelationError):
            coordinator.submit(inserts={"nope": [[1, 2]]})
        with pytest.raises(ClusterError):
            coordinator.submit(inserts={"r": [["x", 2]]})
        assert coordinator.pending_count() == 0


# ----------------------------------------------------------------------
# Fault paths (the ISSUE's three scenarios)
# ----------------------------------------------------------------------
class TestFaultPaths:
    def test_shard_crash_mid_2pc_shows_no_partial_commit(self):
        cluster = SimCluster(3)
        coordinator = cluster.coordinator
        baseline, _, _ = coordinator.merged_counts("r")
        # Rows 0 and 5 live on shards 0 and 2: a two-participant txn.
        txn_id = coordinator.submit(inserts={"r": [[0, 6], [5, 6]]})
        # Let shard 0 prepare; shard 2's prepare stays queued on the
        # wire, then the crash wipes both the wire and its memory.
        cluster.pump(0)
        assert coordinator.outcome(txn_id) is None
        coordinator.crash_shard(2)
        # Mid-2PC nothing is visible anywhere: prepares stage, they do
        # not apply.
        merged, _, _ = coordinator.merged_counts("r")
        assert merged == baseline
        assert all(n.applied_seq == 0 for n in coordinator.nodes())
        # Retransmission finds the rebuilt shard and the txn completes.
        cluster.settle()
        outcome = coordinator.outcome(txn_id)
        assert outcome is not None and outcome["status"] == "committed"
        assert_matches_truth(coordinator)
        counters = coordinator.recorder.counters
        assert counters.get("cluster_shard_rebuilds") == 1

    def test_crash_after_commit_decision_still_applies_everywhere(self):
        cluster = SimCluster(3)
        coordinator = cluster.coordinator
        txn_id = coordinator.submit(inserts={"r": [[0, 6], [5, 6]]})
        # Both shards prepare and the coordinator decides commit...
        cluster.pump(0)
        cluster.pump(2)
        outcome = coordinator.outcome(txn_id)
        assert outcome is not None and outcome["status"] == "committed"
        # ...then shard 2 dies before its commit message lands.  The
        # decision is durable in the per-shard history, so the rebuilt
        # shard replays it and the acks drain.
        coordinator.crash_shard(2)
        cluster.settle()
        assert coordinator.last_sequence == outcome["cluster_seq"]
        assert_matches_truth(coordinator)

    def test_partition_times_out_typed_and_retry_succeeds(self):
        cluster = SimCluster(3)
        coordinator = cluster.coordinator
        baseline, _, _ = coordinator.merged_counts("r")
        cluster.links[2].partition(True)
        txn_id = coordinator.submit(inserts={"r": [[0, 6], [5, 6]]})
        for _ in range(TIMEOUT_TICKS + 1):
            assert coordinator.outcome(txn_id) is None
            cluster.tick()
        outcome = coordinator.outcome(txn_id)
        assert outcome is not None and outcome["status"] == "aborted"
        assert outcome["code"] == protocol.E_SHARD_UNAVAILABLE
        assert "retry is safe" in outcome["error"]
        # Shard 0 prepared and staged; the abort must erase that too.
        cluster.links[2].partition(False)
        cluster.settle()
        assert coordinator.merged_counts("r")[0] == baseline
        assert coordinator.committed_log == []
        # The retry is a fresh transaction and commits cleanly.
        retry = coordinator.submit(inserts={"r": [[0, 6], [5, 6]]})
        cluster.settle()
        retried = coordinator.outcome(retry)
        assert retried is not None and retried["status"] == "committed"
        assert [e["txn"] for e in coordinator.committed_log] == [retry]
        assert_matches_truth(coordinator)
        counters = coordinator.recorder.counters
        assert counters.get("cluster_txns_aborted") == 1
        assert counters.get("cluster_txns_committed") == 1

    def test_changefeed_merge_holds_order_under_reordered_acks(self):
        cluster = SimCluster(3)
        coordinator = cluster.coordinator
        events = []
        coordinator.emit_hooks.append(lambda seq, merged: events.append(seq))
        # T1 involves only shard 2, T2 only shard 0 — their 2PC rounds
        # proceed independently, so acks can complete out of order.
        first = coordinator.submit(inserts={"r": [[5, 1]]})
        second = coordinator.submit(inserts={"r": [[0, 1]]})
        # One pump of shard 2 runs T1's prepare→prepared round: T1 is
        # decided with cluster_seq 1 and its commit is on the wire.
        cluster.pump(2)
        # Shard 0 then runs T2's full 2PC: prepare, decide (seq 2),
        # commit, ack — T2 completes first.
        cluster.pump(0)
        cluster.pump(0)
        done = coordinator.outcome(second)
        assert done is not None and done["status"] == "committed"
        assert done["cluster_seq"] == 2
        # But nothing is emitted: seq 2 waits for seq 1 in the reorder
        # buffer, so subscribers never observe a gap.
        assert events == []
        assert coordinator.last_sequence == 0
        # T1's ack lands; both events flush in cluster_seq order.
        cluster.pump(2)
        assert events == [1, 2]
        assert coordinator.last_sequence == 2
        assert [e["seq"] for e in coordinator.committed_log] == [1, 2]
        assert [e["txn"] for e in coordinator.committed_log] == [
            first,
            second,
        ]
        feed = coordinator.feeds["v_low"]
        sequences = [seq for seq, _ in feed.since(0)]
        assert sequences == sorted(sequences)


# ----------------------------------------------------------------------
# The wire-protocol front-end
# ----------------------------------------------------------------------
class TestClusterServer:
    @staticmethod
    def open_session(server):
        frames = []

        def transport(frame):
            frames.append(
                protocol.decode_payload(frame[protocol.HEADER_BYTES:])
            )
            return True

        return server.open_local_session(transport), frames

    def test_query_merges_across_shards(self):
        server = ClusterServer(make_cluster(3))
        session, frames = self.open_session(server)
        session.handle({"op": "query", "id": 1, "target": "v_low"})
        response = frames[-1]
        assert response["ok"] is True
        result = response["result"]
        assert result["kind"] == "view"
        assert result["seq"] == 0
        merged = server.coordinator.merged_counts("v_low")[0]
        assert sum(result["counts"]) == sum(merged.values())
        assert len(result["rows"]) == len(merged)

    def test_txn_commit_abort_and_unknown_target(self):
        server = ClusterServer(make_cluster(3))
        session, frames = self.open_session(server)
        session.handle(
            {"op": "txn", "id": 1, "insert": {"r": [[0, 5]], "t": [[5, 0]]}}
        )
        committed = frames[-1]
        assert committed["ok"] is True
        assert committed["result"]["seq"] == 1
        assert committed["result"]["applied"]["r"]["inserted"] == 1
        session.handle({"op": "txn", "id": 2, "insert": {"s": [[-3, 0]]}})
        aborted = frames[-1]
        assert aborted["ok"] is False
        assert aborted["error"]["code"] == protocol.E_TXN_FAILED
        session.handle({"op": "query", "id": 3, "target": "ghost"})
        unknown = frames[-1]
        assert unknown["ok"] is False
        assert unknown["error"]["code"] == protocol.E_UNKNOWN_TARGET

    def test_subscription_streams_merged_events(self):
        server = ClusterServer(make_cluster(3))
        session, frames = self.open_session(server)
        session.handle(
            {"op": "subscribe", "id": 1, "view": "v_low", "from": 0}
        )
        assert frames[-1]["ok"] is True
        session.handle({"op": "txn", "id": 2, "insert": {"r": [[0, 9]]}})
        delta = next(f for f in frames if f.get("event") == "delta")
        assert delta["view"] == "v_low"
        assert delta["seq"] == 1
        assert [0, 9] in delta["delta"]["inserted"]

    def test_stats_exposes_cluster_state(self):
        server = ClusterServer(make_cluster(3))
        session, frames = self.open_session(server)
        session.handle({"op": "txn", "id": 1, "insert": {"s": [[2, 2]]}})
        session.handle({"op": "stats", "id": 2})
        stats = frames[-1]["result"]
        assert stats["cluster"]["shards"] == 3
        assert stats["cluster"]["routed"] is True
        assert stats["seq"] == 1
        assert len(stats["shards"]) == 3
        counters = stats["cluster"]["counters"]
        assert counters.get("cluster_deltas_skipped", 0) > 0


# ----------------------------------------------------------------------
# The randomized sharded simulation
# ----------------------------------------------------------------------
class TestClusterSimulation:
    def test_episode_is_deterministic(self):
        config = SimulationConfig(seed=3, episodes=1, events=25, shards=3)
        first = run_episode(11, config)
        second = run_episode(11, config)
        assert first.schedule == second.schedule
        assert first.trace == second.trace
        assert first.stats == second.stats
        assert first.divergences == second.divergences

    def test_single_episode_with_faults_passes_oracle(self):
        config = SimulationConfig(seed=5, episodes=1, events=40, shards=3)
        result = run_episode(5, config)
        assert result.divergences == []
        assert result.stats["txns_submitted"] > 0
        assert result.stats["cluster_deltas_skipped"] > 0

    def test_broadcast_mode_never_skips(self):
        config = SimulationConfig(
            seed=5,
            episodes=1,
            events=30,
            shards=3,
            routed=False,
            crashes=False,
            partitions=False,
        )
        result = run_episode(5, config)
        assert result.divergences == []
        assert result.stats["cluster_deltas_skipped"] == 0

    def test_tampered_shard_state_is_reported(self):
        config = SimulationConfig(
            seed=1, events=0, shards=3, keyed=True, base_free_shards=True
        )
        episode = ShardedEpisode(1, config)
        home, _, base_free = episode.coordinator.nodes()
        home.maintainer.view("v_low").contents.add((0, 1))
        base_free.database.relation("s").add((1, 2))
        episode.run([])
        found = "\n".join(episode.divergences)
        assert "merged view 'v_low' diverges" in found
        assert "base-free shard 2: shed base relation 's' holds 1" in found

    @pytest.mark.skipif(
        not CLUSTER_SMOKE, reason="set REPRO_CLUSTER_SIM_SMOKE=1 to run"
    )
    def test_smoke_batch(self):
        report = run_simulation(
            SimulationConfig(seed=1, episodes=4, events=60, shards=3)
        )
        assert report.ok, report.format()
        assert report.stats["cluster_deltas_skipped"] > 0
        assert report.stats["txns_committed"] > 0
        text = report.format()
        assert text.endswith("OK")
        assert report.format() == text  # formatting is pure


def test_the_cluster_imports_nothing_from_the_simulator():
    # The simulator drives the cluster through its link seam; the
    # dependency must not run the other way.
    cluster = Path(__file__).resolve().parent.parent / "src" / "repro" / "cluster"
    offenders = []
    for path in sorted(cluster.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            offenders += [
                f"{path.name}: {name}"
                for name in names
                if name == "repro.simulation"
                or name.startswith("repro.simulation.")
            ]
    assert offenders == []


# ----------------------------------------------------------------------
# Declared keys on the cluster
# ----------------------------------------------------------------------
class TestClusterKeys:
    def make_keyed_cluster(self, shards=2):
        topology, tables, rows, constraints, _, views = cluster_workload(shards)
        seen, deduped = set(), []
        for row in rows["r"]:
            if row[0] not in seen:
                seen.add(row[0])
                deduped.append(row)
        rows = dict(rows)
        rows["r"] = deduped
        return build_cluster(
            topology, tables, rows, constraints, views, keys={"r": [("A",)]}
        )

    def test_partition_misaligned_key_is_rejected(self):
        # A key that omits the partition attribute cannot be enforced
        # shard-locally: rows colliding on it live on different shards.
        topology, tables, rows, constraints, _, views = cluster_workload(2)
        with pytest.raises(ClusterError, match="omits the partition attribute"):
            build_cluster(
                topology, tables, rows, constraints, views, keys={"r": [("B",)]}
            )

    def test_prepare_nacks_a_key_violation(self):
        coordinator = self.make_keyed_cluster()
        before = coordinator.merged_counts("r")[0]
        txn_id = coordinator.submit(inserts={"r": [[0, 3], [0, 4]]})
        outcome = coordinator.outcome(txn_id)
        assert outcome["status"] == "aborted"
        assert "key (A)" in outcome["error"]
        assert coordinator.merged_counts("r")[0] == before
        assert coordinator.committed_log == []

    def test_keyed_replacement_commits(self):
        coordinator = self.make_keyed_cluster()
        merged = coordinator.merged_counts("r")[0]
        existing = sorted(merged)[0]
        txn_id = coordinator.submit(
            deletes={"r": [list(existing)]},
            inserts={"r": [[existing[0], 6]]},
        )
        assert coordinator.outcome(txn_id)["status"] == "committed"
        after = coordinator.merged_counts("r")[0]
        assert (existing[0], 6) in after

    def test_keyed_episode_passes_oracle(self):
        config = SimulationConfig(
            seed=11, episodes=1, events=40, shards=3, keyed=True
        )
        result = run_episode(11, config)
        assert result.divergences == []
        assert result.stats["txns_committed"] > 0

    def test_keyed_base_free_shard_sheds_its_index_rows_too(self):
        # A base-free node sheds its bootstrap rows with Relation.clear()
        # at construction; the key index its declaration bound must not
        # go on holding them.
        topology, tables, rows, constraints, keys, views = cluster_workload(
            2, keyed=True
        )
        coordinator = build_cluster(
            topology,
            tables,
            rows,
            constraints,
            [view for view in views if view[0] != "v_rt"],
            base_free_shards=[1],
            keys=keys,
        )
        node = coordinator.nodes()[1]
        assert node.base_free and node.base_rows_dropped > 0
        assert ("A",) in node.database.relation("r").indexes
        for name in node.database.relation_names():
            relation = node.database.relation(name)
            assert len(relation) == 0
            for attrs, index in relation.indexes.items():
                assert len(index) == 0, (name, attrs)
        # The full host beside it kept rows and index alike.
        home = coordinator.nodes()[HOME_SHARD].database.relation("r")
        assert len(home.indexes[("A",)]) == len(home) > 0

    def test_keyed_base_free_unrestricted_ops_pass_oracle(self):
        # PR 9 restricted base-free schedules to home-shard inserts; the
        # declared key (with its row-determining constraint) lifts that:
        # unrestricted inserts AND deletes, oracle byte-for-byte.
        config = SimulationConfig(
            seed=13,
            episodes=1,
            events=50,
            shards=3,
            keyed=True,
            base_free_shards=True,
        )
        result = run_episode(13, config)
        assert result.divergences == []
        assert result.stats["txns_submitted"] > 0
