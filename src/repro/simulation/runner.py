"""Episode batches, trace minimization and reporting.

The contract the CLI and the test-suite lean on: everything here is a
pure function of the configuration — the same ``seed`` produces the
identical schedules, traces, statistics and report text on every run
(scratch directories are scrubbed from any message that could leak
one).  A divergence therefore *is* its seed: ``repro simulate --seed N``
replays it exactly, and :func:`minimize_schedule` shrinks the event
list while the failure persists, so what gets reported is the shortest
schedule this harness could find that still reproduces the problem.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from collections import Counter
from typing import Any

from repro.simulation.sharded import ShardedEpisode
from repro.simulation.workload import (
    Episode,
    SimulationConfig,
    generate_schedule,
)

Schedule = list[tuple[str, dict[str, Any]]]

#: Bound on re-executions spent shrinking one failing schedule.
MINIMIZE_BUDGET = 40
#: The config fields a report header shows, per topology.
SINGLE_NODE_FIELDS = (
    "followers", "base_free_followers", "clients", "crashes", "partitions",
    "ddl", "corruption",
)
SHARDED_FIELDS = (
    "shards", "crashes", "partitions", "routed", "keyed", "base_free_shards"
)


class EpisodeResult:
    """Everything one episode produced (all deterministic per seed)."""

    __slots__ = ("seed", "schedule", "trace", "stats", "divergences", "ended_early")

    def __init__(
        self,
        seed: int,
        schedule: Schedule,
        trace: list[str],
        stats: Counter,
        divergences: list[str],
        ended_early: str | None,
    ) -> None:
        self.seed = seed
        self.schedule = schedule
        self.trace = trace
        self.stats = stats
        self.divergences = divergences
        self.ended_early = ended_early

    @property
    def ok(self) -> bool:
        return not self.divergences


class SimFailure:
    """One failing episode plus its minimized reproduction."""

    __slots__ = (
        "seed",
        "divergences",
        "schedule",
        "minimized_schedule",
        "minimized_trace",
        "minimize_runs",
    )

    def __init__(
        self,
        seed: int,
        divergences: list[str],
        schedule: Schedule,
        minimized_schedule: Schedule,
        minimized_trace: list[str],
        minimize_runs: int,
    ) -> None:
        self.seed = seed
        self.divergences = divergences
        self.schedule = schedule
        self.minimized_schedule = minimized_schedule
        self.minimized_trace = minimized_trace
        self.minimize_runs = minimize_runs


class SimulationReport:
    """Aggregated outcome of a batch of episodes."""

    __slots__ = ("config", "stats", "episodes", "failures")

    def __init__(
        self,
        config: SimulationConfig,
        stats: Counter,
        episodes: list[EpisodeResult],
        failures: list[SimFailure],
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
        fields = SHARDED_FIELDS if config.shards else SINGLE_NODE_FIELDS
        lines = [
            f"simulation seed={config.seed} episodes={len(self.episodes)} "
            f"events={config.events} "
            + " ".join(f"{name}={getattr(config, name)}" for name in fields)
        ]
        for key in sorted(self.stats):
            lines.append(f"  {key}: {self.stats[key]}")
        for failure in self.failures:
            lines.append(f"DIVERGENCE seed={failure.seed}")
            for message in failure.divergences[:5]:
                lines.append(f"  ! {message}")
            lines.append(
                f"  minimized to {len(failure.minimized_schedule)} of "
                f"{len(failure.schedule)} events "
                f"(in {failure.minimize_runs} replays):"
            )
            for line in failure.minimized_trace:
                lines.append(f"    {line}")
        lines.append("OK" if self.ok else f"FAILED ({len(self.failures)} episodes)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def episode_seeds(config: SimulationConfig) -> list[int]:
    """The batch's episode seeds, derived from the master seed."""
    rng = random.Random(f"{config.seed}:episodes")
    return [rng.randrange(2**31) for _ in range(config.episodes)]


def run_episode(
    seed: int,
    config: SimulationConfig,
    schedule: Schedule | None = None,
) -> EpisodeResult:
    """Execute one episode in a scratch directory, always cleaned up.

    ``config.shards`` picks the episode: :class:`Episode` for the
    single-node stack, :class:`ShardedEpisode` for a cluster (which
    leaves the directory unused).  An exception escaping the episode
    machine is itself a finding (the simulator's handlers absorb every
    *expected* outcome), so it is converted into a divergence — with
    the scratch path scrubbed for reproducible text — rather than
    propagated.
    """
    if schedule is None:
        schedule = generate_schedule(random.Random(f"{seed}:schedule"), config)
    directory = tempfile.mkdtemp(prefix="repro-sim-")
    trace: list[str] = []
    stats: Counter = Counter()
    divergences: list[str] = []
    ended_early: str | None = None
    try:
        episode = (
            ShardedEpisode(seed, config)
            if config.shards
            else Episode(seed, config, directory)
        )
        trace, stats, divergences = episode.trace, episode.stats, episode.divergences
        episode.run(schedule)
        ended_early = episode.ended_early
    except Exception as exc:  # noqa: BLE001 — an escape *is* the finding
        message = str(exc).replace(directory, "<dir>")
        note = f"unhandled {type(exc).__name__}: {message}"
        trace.append(f"[!] {note}")
        divergences.append(note)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return EpisodeResult(seed, schedule, trace, stats, divergences, ended_early)


def minimize_schedule(
    seed: int,
    config: SimulationConfig,
    schedule: Schedule,
    budget: int = MINIMIZE_BUDGET,
) -> tuple[Schedule, list[str], int]:
    """Shrink a failing schedule while it keeps failing.

    Two phases under one replay budget: a bisection for the shortest
    failing prefix (failures are usually prefix-monotone — the final
    quiesce always runs — but the result is re-verified, so a
    non-monotone failure just keeps the full schedule), then greedy
    removal of single events from the back.  Returns the minimized
    schedule, its failing trace, and how many replays were spent.
    """

    def fails(candidate: Schedule) -> bool:
        return bool(run_episode(seed, config, schedule=candidate).divergences)

    runs = 0
    current = list(schedule)
    low, high = 1, len(current)
    while low < high and runs < budget:
        mid = (low + high) // 2
        runs += 1
        if fails(current[:mid]):
            high = mid
        else:
            low = mid + 1
    if high < len(current):
        runs += 1
        if fails(current[:high]):
            current = current[:high]
    index = len(current) - 1
    while index >= 0 and runs < budget:
        candidate = current[:index] + current[index + 1 :]
        runs += 1
        if candidate and fails(candidate):
            current = candidate
        index -= 1
    final = run_episode(seed, config, schedule=current)
    return current, final.trace, runs + 1


def run_simulation(
    config: SimulationConfig,
    minimize: bool = True,
    max_failures: int = 3,
) -> SimulationReport:
    """Run the batch; failing episodes get minimized reproductions.

    ``max_failures`` stops the batch early once that many episodes have
    diverged — enough evidence to debug with, without paying for the
    rest of the batch.
    """
    stats: Counter = Counter()
    episodes: list[EpisodeResult] = []
    failures: list[SimFailure] = []
    for seed in episode_seeds(config):
        result = run_episode(seed, config)
        episodes.append(result)
        stats.update(result.stats)
        stats["episodes"] += 1
        if result.ended_early:
            stats[f"episodes_{result.ended_early}"] += 1
        if result.ok:
            continue
        if minimize:
            minimized, trace, replays = minimize_schedule(
                seed, config, result.schedule
            )
        else:
            minimized, trace, replays = result.schedule, result.trace, 0
        failures.append(
            SimFailure(
                seed, result.divergences, result.schedule,
                minimized, trace, replays,
            )
        )
        if len(failures) >= max_failures:
            break
    return SimulationReport(config, stats, episodes, failures)
