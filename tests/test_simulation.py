"""Tests for the deterministic simulation harness.

Layered the same way as ``src/repro/simulation``: unit coverage for the
virtual clock, the lying-disk :class:`FaultyWalIO`, the seeded lossy
:class:`SimChannel`, and the random SPJ view generator; then the
harness-level contracts the ISSUE pins down —

* **determinism**: the same seed produces the identical schedule,
  trace, statistics and report text on every run;
* **soundness**: modest randomized batches (crashes + partitions + DDL
  enabled) complete with zero oracle divergences;
* **sensitivity**: the oracle is not a rubber stamp — tampering with a
  maintained view, a follower replica, or a client mirror is reported,
  and injected WAL corruption is detected with a replayable seed;
* **minimization**: a failing schedule shrinks to a short reproduction
  within the replay budget.

Two environment gates mirror the CI jobs: ``REPRO_SIM_SMOKE=1`` runs
the fixed-seed smoke batch on every push, and ``REPRO_SIM_FULL=1``
(nightly) runs the 200-episode acceptance batch from the issue.
"""

import copy
import os
import random

import pytest

from benchmarks.conftest import env_flag, smoke_env
from repro.core.maintainer import MaintenancePolicy, ViewMaintainer
from repro.engine.database import Database
from repro.cli import run_simulate
from repro.simulation import (
    FaultyWalIO,
    SimClock,
    SimulationConfig,
    run_episode,
    run_simulation,
)
from repro.simulation.clock import SimClock as ClockAlias
from repro.simulation.faults import flip_segment_byte
from repro.simulation.network import SimChannel
from repro.simulation.runner import (
    EpisodeResult,
    SimFailure,
    SimulationReport,
    episode_seeds,
    generate_schedule,
    minimize_schedule,
)
from repro.simulation.workload import (
    BASE_TABLES,
    Episode,
    random_aggregate_expression,
    random_spj_expression,
)

SMOKE = smoke_env("SIM")
FULL = env_flag("REPRO_SIM_FULL")


# ----------------------------------------------------------------------
# SimClock
# ----------------------------------------------------------------------
class TestSimClock:
    def test_starts_at_zero_and_advances(self):
        clock = SimClock()
        assert clock.now == 0
        assert clock.advance() == 1
        assert clock.advance(5) == 6
        assert clock.now == 6

    def test_time_never_runs_backwards(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-1)
        assert clock.now == 0

    def test_package_export_is_the_clock(self):
        assert ClockAlias is SimClock


# ----------------------------------------------------------------------
# FaultyWalIO — the lying disk
# ----------------------------------------------------------------------
class TestFaultyWalIO:
    def _write(self, io, path, data):
        stream = io.open_append(path)
        io.write(stream, data)
        return stream

    def test_fsynced_bytes_survive_a_crash(self, tmp_path):
        io = FaultyWalIO(random.Random(1), lost_fsync_rate=0.0)
        path = str(tmp_path / "seg.jsonl")
        stream = self._write(io, path, b"alpha\n")
        io.fsync(stream)
        io.write(stream, b"unsynced\n")
        io.close(stream)  # honest fsync: rotation is a durability barrier
        assert io.crash() == []
        assert (tmp_path / "seg.jsonl").read_bytes() == b"alpha\nunsynced\n"

    def test_lost_fsync_lets_the_crash_eat_the_tail(self, tmp_path):
        io = FaultyWalIO(random.Random(2), lost_fsync_rate=1.0)
        path = str(tmp_path / "seg.jsonl")
        stream = self._write(io, path, b"alpha\n")
        io.fsync(stream)  # silently lost
        assert io.fsyncs_lost == 1
        stream.flush()
        stream.close()  # bypass io.close — the crash happens mid-life
        sizes = set()
        # The cut point is uniform over the unsynced tail: replay the
        # same pre-crash state under different fault seeds.
        for seed in range(20):
            probe = FaultyWalIO(random.Random(seed), lost_fsync_rate=1.0)
            probe_path = str(tmp_path / f"probe{seed}.jsonl")
            s = self._write(probe, probe_path, b"alpha\n")
            probe.fsync(s)
            s.flush()
            s.close()
            probe.crash()
            sizes.add(os.path.getsize(probe_path))
        assert min(sizes) < 6  # some crash cut bytes that fsync "confirmed"
        assert all(size <= 6 for size in sizes)

    def test_crash_never_cuts_below_durable(self, tmp_path):
        for seed in range(10):
            io = FaultyWalIO(random.Random(seed), lost_fsync_rate=0.0)
            path = str(tmp_path / f"d{seed}.jsonl")
            stream = self._write(io, path, b"committed\n")
            io.fsync(stream)
            io.write(stream, b"tail\n")
            stream.flush()
            stream.close()
            io.crash()
            data = open(path, "rb").read()
            assert data.startswith(b"committed\n")
            assert len(data) <= len(b"committed\ntail\n")

    def test_make_durable_is_a_flush_barrier(self, tmp_path):
        io = FaultyWalIO(random.Random(3), lost_fsync_rate=1.0)
        path = str(tmp_path / "seg.jsonl")
        stream = self._write(io, path, b"everything\n")
        stream.flush()
        io.make_durable()
        stream.close()
        assert io.crash() == []
        assert (tmp_path / "seg.jsonl").read_bytes() == b"everything\n"

    def test_crash_is_deterministic_per_rng(self, tmp_path):
        def run(seed):
            io = FaultyWalIO(random.Random(seed), lost_fsync_rate=1.0)
            path = str(tmp_path / f"r{seed}-{run.calls}.jsonl")
            run.calls += 1
            stream = self._write(io, path, b"0123456789" * 5)
            io.fsync(stream)
            stream.flush()
            stream.close()
            io.crash()
            return os.path.getsize(path)

        run.calls = 0
        assert run(7) == run(7)

    def test_stats_counters(self, tmp_path):
        io = FaultyWalIO(random.Random(4), lost_fsync_rate=1.0)
        path = str(tmp_path / "seg.jsonl")
        stream = self._write(io, path, b"abcdef\n")
        io.fsync(stream)
        stream.flush()
        stream.close()
        io.crash()
        stats = io.stats()
        assert stats["fsyncs_lost"] == 1
        assert stats["crashes"] == 1
        assert stats["bytes_discarded"] == 7 - os.path.getsize(path)

    def test_flip_segment_byte_changes_exactly_one_byte(self, tmp_path):
        directory = str(tmp_path)
        segment = tmp_path / "wal-00000000000000000001.jsonl"
        original = b"x" * 40
        segment.write_bytes(original)
        flip = flip_segment_byte(directory, random.Random(5))
        assert flip is not None
        basename, offset = flip
        assert basename == segment.name
        damaged = segment.read_bytes()
        assert len(damaged) == len(original)
        diffs = [i for i, (a, b) in enumerate(zip(original, damaged)) if a != b]
        assert diffs == [offset]

    def test_flip_segment_byte_on_empty_log(self, tmp_path):
        assert flip_segment_byte(str(tmp_path), random.Random(6)) is None


# ----------------------------------------------------------------------
# SimChannel — the lossy network
# ----------------------------------------------------------------------
class TestSimChannel:
    def _drain(self, clock, channel, until=50):
        received = []
        while clock.now < until:
            received.extend(channel.deliver_due())
            clock.advance(1)
        received.extend(channel.deliver_due())
        return received

    def test_lossless_channel_delivers_everything(self):
        clock = SimClock()
        channel = SimChannel(clock, random.Random(0), delay_max=3)
        for i in range(20):
            assert channel.send(i)
        received = self._drain(clock, channel)
        assert sorted(received) == list(range(20))
        assert channel.stats()["delivered"] == 20

    def test_fifo_mode_preserves_order(self):
        clock = SimClock()
        channel = SimChannel(clock, random.Random(1), delay_max=3, fifo=True)
        for i in range(30):
            channel.send(i)
            clock.advance(random.Random(i).randint(0, 1))
        received = self._drain(clock, channel, until=clock.now + 10)
        assert received == list(range(30))

    def test_partition_silently_discards(self):
        clock = SimClock()
        channel = SimChannel(clock, random.Random(2))
        channel.partitioned = True
        assert channel.send("lost")  # accepted — the sender cannot tell
        channel.partitioned = False
        channel.send("kept")
        received = self._drain(clock, channel, until=10)
        assert received == ["kept"]
        assert channel.stats()["dropped"] == 1

    def test_capacity_refusal(self):
        clock = SimClock()
        channel = SimChannel(clock, random.Random(3), delay_max=0, capacity=2)
        assert channel.send(1) and channel.send(2)
        assert not channel.send(3)  # refused, not silently dropped
        assert channel.stats()["refused"] == 1

    def test_drops_and_duplicates_are_counted(self):
        clock = SimClock()
        channel = SimChannel(
            clock, random.Random(4), drop_rate=0.3, duplicate_rate=0.3
        )
        for i in range(100):
            channel.send(i)
        received = self._drain(clock, channel, until=120)
        stats = channel.stats()
        assert stats["dropped"] > 0
        assert stats["duplicated"] > 0
        assert len(received) == 100 - stats["dropped"] + stats["duplicated"]

    def test_same_seed_same_delivery_history(self):
        def run():
            clock = SimClock()
            channel = SimChannel(
                clock,
                random.Random(99),
                delay_max=3,
                drop_rate=0.2,
                duplicate_rate=0.2,
                reorder_rate=0.3,
            )
            log = []
            for i in range(50):
                channel.send(i)
                log.append(tuple(channel.deliver_due()))
                clock.advance(1)
            while len(channel):
                clock.advance(1)
                log.append(tuple(channel.deliver_due()))
            return log, channel.stats()

        assert run() == run()

    def test_clear_empties_in_flight(self):
        clock = SimClock()
        channel = SimChannel(clock, random.Random(5), delay_max=5)
        for i in range(7):
            channel.send(i)
        assert channel.clear() == 7
        assert len(channel) == 0
        assert channel.deliver_due() == []


# ----------------------------------------------------------------------
# Random paper-class SPJ views
# ----------------------------------------------------------------------
class TestRandomSpjExpressions:
    def test_same_seed_same_expression(self):
        for seed in range(30):
            first = random_spj_expression(random.Random(seed))
            second = random_spj_expression(random.Random(seed))
            assert repr(first) == repr(second)

    def test_generated_views_are_definable_and_consistent(self):
        rng = random.Random(17)
        database = Database()
        for name in sorted(BASE_TABLES):
            attributes = BASE_TABLES[name]
            rows = sorted(
                {
                    tuple(rng.randint(0, 6) for _ in attributes)
                    for _ in range(6)
                }
            )
            database.create_relation(name, attributes, rows)
        maintainer = ViewMaintainer(database)
        for index in range(25):
            expression = random_spj_expression(random.Random(1000 + index))
            name = f"probe{index}"
            maintainer.define_view(
                name, expression, policy=MaintenancePolicy.IMMEDIATE
            )
            report = maintainer.verify_all(raise_on_mismatch=False)[name]
            assert report.is_consistent(), report.summary()
            maintainer.drop_view(name)

    def test_aggregate_views_same_seed_same_expression(self):
        for seed in range(30):
            first = random_aggregate_expression(random.Random(seed))
            second = random_aggregate_expression(random.Random(seed))
            assert repr(first) == repr(second)

    def test_generated_aggregate_views_are_definable_and_consistent(self):
        from repro.algebra.aggregates import Aggregate

        rng = random.Random(23)
        database = Database()
        for name in sorted(BASE_TABLES):
            attributes = BASE_TABLES[name]
            rows = sorted(
                {
                    tuple(rng.randint(0, 6) for _ in attributes)
                    for _ in range(6)
                }
            )
            database.create_relation(name, attributes, rows)
        maintainer = ViewMaintainer(database)
        for index in range(25):
            expression = random_aggregate_expression(random.Random(2000 + index))
            assert isinstance(expression, Aggregate)
            name = f"agg{index}"
            maintainer.define_view(
                name, expression, policy=MaintenancePolicy.IMMEDIATE
            )
            report = maintainer.verify_all(raise_on_mismatch=False)[name]
            assert report.is_consistent(), report.summary()
            maintainer.drop_view(name)

    def test_base_free_aggregate_views_are_self_maintainable(self):
        # The base-free follower workload draws single-relation,
        # MIN/MAX-free aggregates — every one must classify as
        # self-maintainable or shedding would be refused mid-episode.
        from repro.core.views import ViewDefinition
        from repro.scheduler.selfmaint import classify_self_maintainability

        database = Database()
        for name in sorted(BASE_TABLES):
            database.create_relation(name, BASE_TABLES[name])
        for seed in range(40):
            expression = random_aggregate_expression(
                random.Random(seed), max_operands=1, allow_minmax=False
            )
            definition = ViewDefinition(
                "probe", expression, database.schema_catalog()
            )
            verdict = classify_self_maintainability(definition)
            assert verdict.self_maintainable, verdict.reason

    def test_operand_count_respects_the_table_set(self):
        from repro.algebra.expressions import BaseRef, Join, Project, Select

        def base_names(node):
            if isinstance(node, BaseRef):
                return {node.name}
            if isinstance(node, Join):
                return base_names(node.left) | base_names(node.right)
            assert isinstance(node, (Select, Project))
            return base_names(node.child)

        for seed in range(50):
            expression = random_spj_expression(
                random.Random(seed), tables={"r": ("A", "B")}
            )
            assert base_names(expression) == {"r"}


# ----------------------------------------------------------------------
# Schedules are pure data
# ----------------------------------------------------------------------
class TestScheduleGeneration:
    def test_same_rng_same_schedule(self):
        config = SimulationConfig(seed=3, events=60, corruption=True)
        first = generate_schedule(random.Random("x"), config)
        second = generate_schedule(random.Random("x"), config)
        assert first == second

    def test_feature_flags_gate_event_kinds(self):
        rng = random.Random(8)
        config = SimulationConfig(
            seed=0, events=300, crashes=False, partitions=False, ddl=False
        )
        kinds = {kind for kind, _ in generate_schedule(rng, config)}
        assert "crash" not in kinds
        assert "partition" not in kinds
        assert "ddl_index" not in kinds
        assert "view_churn" not in kinds
        assert "corrupt" not in kinds
        assert kinds <= {
            "txn",
            "server_txn",
            "client_query",
            "net",
            "checkpoint",
            "quiesce",
            "subscriber_churn",
        }

    def test_corruption_lands_in_the_latter_half(self):
        config = SimulationConfig(seed=0, events=40, corruption=True)
        saw_injection = False
        for seed in range(20):
            schedule = generate_schedule(random.Random(seed), config)
            positions = [
                index for index, (kind, _) in enumerate(schedule)
                if kind == "corrupt"
            ]
            if positions:
                saw_injection = True
                assert len(positions) == 1
                assert positions[0] >= len(schedule) // 2 - 1
        assert saw_injection

    def test_payloads_are_json_plain(self):
        import json

        config = SimulationConfig(seed=1, events=120, corruption=True)
        schedule = generate_schedule(random.Random(11), config)
        assert json.loads(json.dumps(schedule)) == [
            [kind, payload] for kind, payload in schedule
        ]

    def test_episode_seeds_derive_from_master_seed(self):
        config = SimulationConfig(seed=5, episodes=8)
        assert episode_seeds(config) == episode_seeds(config)
        other = SimulationConfig(seed=6, episodes=8)
        assert episode_seeds(config) != episode_seeds(other)


# ----------------------------------------------------------------------
# Episode determinism + batch soundness
# ----------------------------------------------------------------------
TOPOLOGIES = pytest.mark.parametrize(
    "shards", [0, 3], ids=["single-node", "sharded"]
)


class TestEpisodeDeterminism:
    @TOPOLOGIES
    def test_same_seed_twice_identical_run(self, shards):
        config = SimulationConfig(seed=7, events=35, shards=shards)
        seed = episode_seeds(config)[0]
        first = run_episode(seed, config)
        second = run_episode(seed, config)
        assert first.trace == second.trace
        assert first.stats == second.stats
        assert first.divergences == second.divergences
        assert first.ended_early == second.ended_early
        assert first.schedule == second.schedule

    def test_fixed_seed_episode_is_clean(self):
        config = SimulationConfig(seed=7, events=35)
        result = run_episode(episode_seeds(config)[0], config)
        assert result.ok, result.divergences
        assert result.stats["oracle_checks"] >= 1  # final forced quiesce

    def test_small_batch_zero_divergences(self):
        config = SimulationConfig(
            seed=7, episodes=3, events=30, followers=1, clients=2
        )
        report = run_simulation(config)
        assert report.ok, report.format()
        assert report.stats["episodes"] == 3
        assert report.stats["oracle_checks"] >= 3

    def test_report_text_is_reproducible(self):
        config = SimulationConfig(seed=11, episodes=2, events=25)
        assert run_simulation(config).format() == run_simulation(config).format()

    def test_crash_episodes_recover_and_verify(self):
        # Hunt a few seeds for a schedule that actually crashes, then
        # require the recovery oracle to have run and passed.
        config = SimulationConfig(seed=13, episodes=6, events=30)
        report = run_simulation(config)
        assert report.ok, report.format()
        # "crashes" merges the episode counter with the IO fault
        # counter, so it runs ahead of "recoveries"; every recovery
        # implies a crash and every crash event triggered one recovery.
        assert report.stats["recoveries"] >= 1
        assert report.stats["crashes"] >= report.stats["recoveries"]


# ----------------------------------------------------------------------
# The oracle is not a rubber stamp
# ----------------------------------------------------------------------
class TestOracleSensitivity:
    def _built_episode(self, tmp_path, seed=21, **overrides):
        defaults = dict(seed=seed, events=10, followers=1, clients=1)
        defaults.update(overrides)
        config = SimulationConfig(**defaults)
        return Episode(seed, config, str(tmp_path))

    def test_tampered_view_is_reported(self, tmp_path):
        episode = self._built_episode(tmp_path)
        view = episode.maintainer.view("v0")
        schema = view.definition.output_schema()
        view.contents.add(tuple(99 for _ in schema.attributes))
        episode._oracle_round()
        assert any("v0" in line for line in episode.divergences), (
            episode.divergences
        )

    def test_tampered_follower_replica_is_reported(self, tmp_path):
        episode = self._built_episode(tmp_path)
        replica = episode.links[0].follower.database.relation("r")
        replica.add((123, 456))
        episode._oracle_round()
        assert any("follower 0" in line for line in episode.divergences), (
            episode.divergences
        )

    def test_tampered_client_mirror_is_reported(self, tmp_path):
        episode = self._built_episode(tmp_path)
        episode._event_quiesce({})
        assert not episode.divergences
        client = episode.clients[0]
        assert client.seeded
        client.mirror[("bogus-row",)] = 1
        episode._event_quiesce({})
        episode._collect_stats()
        assert any("mirror" in line for line in episode.divergences), (
            episode.divergences
        )

    def test_stale_plan_fingerprint_is_reported(self, tmp_path):
        episode = self._built_episode(tmp_path)
        plan = episode.maintainer.compiled_plan("v0")
        assert plan is not None
        # A plan compiled for a definition other than the registered one.
        plan.definition = copy.copy(plan.definition)
        episode._oracle_round()
        assert any("stale" in line for line in episode.divergences), (
            episode.divergences
        )

    def test_unhandled_exception_becomes_a_divergence(self):
        config = SimulationConfig(seed=0, events=5)
        result = run_episode(
            0, config, schedule=[("does_not_exist", {})]
        )
        assert not result.ok
        assert "unhandled AttributeError" in result.divergences[0]

    def test_scratch_directory_is_scrubbed_from_messages(self):
        config = SimulationConfig(seed=0, events=5)
        result = run_episode(0, config, schedule=[("does_not_exist", {})])
        assert not any("repro-sim-" in line for line in result.divergences)


# ----------------------------------------------------------------------
# Corruption: injected damage must be detected, with a replayable seed
# ----------------------------------------------------------------------
class TestCorruptionDetection:
    def test_bit_flips_are_detected_or_classified_as_torn_tail(self):
        config = SimulationConfig(
            seed=42, episodes=8, events=30, corruption=True
        )
        report = run_simulation(config)
        assert report.ok, report.format()
        injected = report.stats["corruption_injected"]
        assert injected >= 1
        outcomes = (
            report.stats["corruption_detected"]
            + report.stats["corruption_survived_tail"]
        )
        assert outcomes == injected
        assert report.stats["corruption_detected"] >= 1
        # Every corruption episode ended early with a classified outcome.
        for result in report.episodes:
            if result.stats.get("corruption_injected"):
                assert result.ended_early in (
                    "corruption_detected",
                    "corruption_survived_tail",
                )

    def test_corruption_episode_replays_identically(self):
        config = SimulationConfig(seed=42, episodes=8, events=30, corruption=True)
        target = None
        for seed in episode_seeds(config):
            result = run_episode(seed, config)
            if result.stats.get("corruption_detected"):
                target = seed
                break
        assert target is not None
        first = run_episode(target, config)
        second = run_episode(target, config)
        assert first.trace == second.trace
        assert first.ended_early == "corruption_detected"


# ----------------------------------------------------------------------
# Minimization
# ----------------------------------------------------------------------
class TestMinimization:
    def test_failing_schedule_shrinks_to_the_culprit(self):
        config = SimulationConfig(seed=0, events=10)
        filler = [("net", {"ticks": 1})] * 9
        schedule = filler[:5] + [("does_not_exist", {})] + filler[5:]
        minimized, trace, runs = minimize_schedule(0, config, schedule)
        assert [kind for kind, _ in minimized] == ["does_not_exist"]
        assert runs <= 40
        assert any("unhandled" in line for line in trace)

    def test_minimizer_respects_the_budget(self):
        config = SimulationConfig(seed=0, events=10)
        schedule = [("net", {"ticks": 1})] * 6 + [("does_not_exist", {})]
        _, _, runs = minimize_schedule(0, config, schedule, budget=3)
        assert runs <= 3 + 1  # + the final confirming replay

    @TOPOLOGIES
    def test_batch_reports_minimized_reproduction(self, monkeypatch, shards):
        # Force one episode to fail by injecting a bogus event into its
        # generated schedule, and check the report carries a minimized
        # trace for it.
        import repro.simulation.runner as runner_module

        original = runner_module.generate_schedule
        config = SimulationConfig(seed=19, episodes=2, events=12, shards=shards)
        first_seed = episode_seeds(config)[0]
        bombed = {"done": False}

        def sabotage(rng, cfg):
            schedule = original(rng, cfg)
            if not bombed["done"]:
                bombed["done"] = True
                schedule.insert(len(schedule) // 2, ("does_not_exist", {}))
            return schedule

        monkeypatch.setattr(runner_module, "generate_schedule", sabotage)
        report = run_simulation(config, max_failures=1)
        assert not report.ok
        failure = report.failures[0]
        assert failure.seed == first_seed
        assert len(failure.minimized_schedule) < len(failure.schedule)
        text = report.format()
        assert f"DIVERGENCE seed={first_seed}" in text
        assert f"minimized to 1 of {len(failure.schedule)} events" in text
        assert "] t=" in failure.minimized_trace[0]
        assert text.endswith("FAILED (1 episodes)")

    def test_report_format_shows_failure_details(self):
        config = SimulationConfig(seed=1, episodes=1)
        failure = SimFailure(
            seed=123,
            divergences=["something diverged"],
            schedule=[("txn", {}), ("quiesce", {})],
            minimized_schedule=[("txn", {})],
            minimized_trace=["[0] t=0 txn {}"],
            minimize_runs=4,
        )
        episode = EpisodeResult(123, [("txn", {})], [], {}, ["x"], None)
        report = SimulationReport(config, {}, [episode], [failure])
        text = report.format()
        assert "DIVERGENCE seed=123" in text
        assert "! something diverged" in text
        assert "minimized to 1 of 2 events (in 4 replays):" in text
        assert not report.ok


# ----------------------------------------------------------------------
# CLI: repro simulate --seed N
# ----------------------------------------------------------------------
class TestCliSimulate:
    def test_deterministic_output_and_exit_code(self):
        def run():
            lines = []
            code = run_simulate(
                seed=7,
                episodes=2,
                events=25,
                trace=True,
                emit=lines.append,
            )
            return code, lines

        first_code, first_lines = run()
        second_code, second_lines = run()
        assert first_code == 0
        assert first_lines == second_lines
        assert first_lines[0].startswith("simulation seed=7 episodes=2")
        assert first_lines[0].rstrip().endswith("OK")
        assert any(line.startswith("episode seed=") for line in first_lines)

    def test_main_dispatches_simulate(self, capsys):
        from repro.cli import main

        code = main(
            ["simulate", "--seed", "7", "--episodes", "1", "--events", "15"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("simulation seed=7 episodes=1")
        assert out.rstrip().endswith("OK")

    def test_sharded_trace_is_printed(self, capsys):
        from repro.cli import main

        argv = ["simulate", "--sharded", "--seed", "7", "--episodes", "1"]
        code = main(argv + ["--events", "10", "--trace"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0].startswith("simulation seed=7 episodes=1 events=10 shards=3")
        assert "OK" in lines
        assert any(line.startswith("episode seed=") for line in lines)
        assert any(line.startswith("  [0] t=0 ") for line in lines)
        assert lines[-1].startswith("  [end] t=")

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--sharded", "--corruption"], "--corruption"),
            (["--sharded", "--clients", "2"], "--clients"),
            (["--sharded", "--followers", "0"], "--followers"),
            (["--sharded", "--no-ddl"], "--no-ddl"),
            (["--keyed"], "--keyed"),
            (["--base-free"], "--base-free"),
            (["--broadcast"], "--broadcast"),
            (["--shards", "3"], "--shards"),
        ],
    )
    def test_a_flag_of_the_other_topology_is_an_error(self, capsys, flags, named):
        from repro.cli import main

        assert main(["simulate", "--episodes", "1", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {named} does not apply")


# ----------------------------------------------------------------------
# CI batches
# ----------------------------------------------------------------------
class TestSimBatches:
    @pytest.mark.skipif(not SMOKE, reason="set REPRO_SIM_SMOKE=1 to run")
    def test_smoke_batch(self):
        """The per-push CI batch: fixed seed, every fault class enabled."""
        config = SimulationConfig(
            seed=2026,
            episodes=12,
            events=45,
            followers=2,
            clients=2,
            crashes=True,
            partitions=True,
            ddl=True,
        )
        report = run_simulation(config)
        assert report.ok, report.format()
        assert report.stats["crashes"] >= 1
        assert report.stats["partitions"] >= 1

    @pytest.mark.skipif(not SMOKE, reason="set REPRO_SIM_SMOKE=1 to run")
    def test_smoke_batch_aggregates(self):
        """Aggregate-view coverage: every episode carries the grouped
        view ``va`` (plus aggregate follower views and an aggregate
        changefeed subscriber), under crashes and partitions — the
        oracle rounds pin its support bags, visible rows and client
        mirrors to the full recompute."""
        config = SimulationConfig(
            seed=2026,
            episodes=6,
            events=45,
            followers=2,
            clients=3,
            crashes=True,
            partitions=True,
            ddl=True,
        )
        report = run_simulation(config)
        assert report.ok, report.format()
        assert report.stats["oracle_checks"] >= 6

    @pytest.mark.skipif(not FULL, reason="set REPRO_SIM_FULL=1 to run")
    def test_full_acceptance_batch(self):
        """The issue's acceptance bar: 200 episodes, zero divergences."""
        config = SimulationConfig(
            seed=int(os.environ.get("REPRO_SIM_SEED", "1986")),
            episodes=200,
            events=40,
            followers=2,
            clients=3,
            crashes=True,
            partitions=True,
            ddl=True,
        )
        report = run_simulation(config)
        assert report.ok, report.format()
