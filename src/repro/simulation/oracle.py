"""The full-recompute oracle and cross-copy agreement checks.

Every check returns a list of human-readable divergence strings (empty
when the copy agrees) rather than raising, so one oracle round can
report everything it finds and the episode can attach the seed and
trace.  The checks:

:func:`verify_maintainer`
    The paper's ground truth: re-evaluate every view definition from
    the current base relations and compare byte-for-byte (multiplicity
    counters included) with the differentially maintained contents.
    Also audits the plan cache — a cached plan whose fingerprint no
    longer matches its view's definition would silently maintain the
    view with stale screening conditions.

:func:`verify_database_against_wal`
    Rebuild the base relations *independently* — latest checkpoint plus
    a raw WAL replay with no maintainer attached — and compare with a
    live database.  This is the durability contract: a recovered (or
    running) leader is exactly checkpoint + log.

:func:`verify_follower`
    A follower's base replica must match the leader's relations (over
    the names both have: followers receive no DDL, so relations created
    after their bootstrap checkpoint are legitimately absent — but the
    simulated base tables are required), and its own views must pass
    the full-recompute oracle against its replica.

:func:`verify_base_free_follower`
    A base-free follower holds no base replica to recompute from, so
    the ground truth comes from the *leader*: each follower view is
    re-evaluated with the naive tree evaluator against the leader's
    relations and bag-compared with the follower's maintained contents.
    Once the bootstrap copy has been shed, every base relation on the
    follower must also be empty — rows reappearing there would mean the
    delta-only path quietly fell back to base state.

All comparisons are *bag* comparisons over encoded tuples — the same
``Relation.counts()`` mapping the persistence layer serializes, so
"agree" here means byte-for-byte equal on disk too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.algebra.evaluate import evaluate
from repro.engine.database import Database
from repro.engine.log import replay_records
from repro.replication.checkpoints import Checkpoint, latest_checkpoint_path
from repro.replication.recovery import decode_wal_record
from repro.replication.wal import WalReader

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.maintainer import ViewMaintainer
    from repro.replication.follower import Follower


def audit_aggregate_state(label: str, maintainer: "ViewMaintainer") -> list[str]:
    """An aggregate view's three layers of state against each other.

    The support bags must render exactly the cached visible contents (a
    fold that mutated the bags but mis-rendered a group would otherwise
    slip past the expression-level recompute only by luck), and every
    group's accumulators must equal a rebuild from its bag — the bags
    move by dict arithmetic, the accumulators by the generated kernel,
    and restore, promotion and shard rebuild reconstruct the second
    from the first.
    """
    divergences: list[str] = []
    for name in maintainer.view_names():
        view = maintainer.view(name)
        state = view.aggregate_state
        if state is None:
            continue
        rendered = state.visible_relation().counts()
        visible = view.contents.counts()
        if rendered != visible:
            divergences.append(
                f"{label}: aggregate view {name!r} support bags render "
                f"{len(rendered)} group row(s) but the visible contents "
                f"hold {len(visible)} — internal state diverged"
            )
        drifted = state.accumulator_drift()
        if drifted:
            divergences.append(
                f"{label}: aggregate view {name!r} accumulators differ "
                f"from a rebuild from the support bags in "
                f"{len(drifted)} group(s), first {drifted[0]!r}"
            )
    return divergences


def verify_maintainer(label: str, maintainer: "ViewMaintainer") -> list[str]:
    """Full recompute of every view + plan-cache staleness audit.

    Only meaningful at a quiescent point for DEFERRED views — call
    :meth:`ViewMaintainer.quiesce` first.
    """
    divergences: list[str] = []
    for name, report in maintainer.verify_all(raise_on_mismatch=False).items():
        if not report.is_consistent():
            divergences.append(f"{label}: {report.summary()}")
    divergences.extend(audit_aggregate_state(label, maintainer))
    # A kept plan must have been compiled for the definition registered
    # under its name now (a stale one would maintain the view with
    # outdated screens).
    for name in maintainer.view_names():
        plan = maintainer.compiled_plan(name)
        if plan is not None and plan.definition is not maintainer.view(name).definition:
            divergences.append(
                f"{label}: cached plan for {name!r} is stale "
                "(compiled for another definition than the live one)"
            )
    return divergences


def ground_truth_database(directory: str) -> tuple[Database, int]:
    """Checkpoint + raw WAL replay, with no maintainer in the loop.

    Returns ``(database, last_sequence)``.  Propagates
    :class:`~repro.replication.wal.WalCorruptionError` — the caller
    decides whether detection was the expected outcome.
    """
    path = latest_checkpoint_path(directory)
    if path is None:
        raise AssertionError(f"no checkpoint in {directory!r} to ground on")
    checkpoint = Checkpoint.load(path)
    database = checkpoint.build_database()
    database.log.advance_sequence(checkpoint.wal_sequence + 1)
    last = checkpoint.wal_sequence
    reader = WalReader(directory)

    def decoded():
        nonlocal last
        for record in reader.records(after=checkpoint.wal_sequence):
            last = record.sequence
            yield decode_wal_record(database, record)

    replay_records(database, decoded(), preserve_txn_ids=True)
    return database, last


def diff_relations(
    label: str, expected: Database, actual: Database, names
) -> list[str]:
    """Bag-compare the named relations between two databases."""
    divergences: list[str] = []
    for name in sorted(names):
        want = expected.relation(name).counts()
        have = actual.relation(name).counts()
        if want == have:
            continue
        missing = sorted(set(want) - set(have))
        unexpected = sorted(set(have) - set(want))
        recounted = sorted(
            k for k in set(want) & set(have) if want[k] != have[k]
        )
        divergences.append(
            f"{label}: relation {name!r} diverges "
            f"(missing {missing[:3]!r}, unexpected {unexpected[:3]!r}, "
            f"count mismatches {recounted[:3]!r}; "
            f"sizes {len(want)} vs {len(have)})"
        )
    return divergences


def verify_database_against_wal(
    label: str, directory: str, database: Database
) -> list[str]:
    """A live database must equal its checkpoint + WAL, independently built."""
    truth, _ = ground_truth_database(directory)
    truth_names = set(truth.relation_names())
    live_names = set(database.relation_names())
    divergences: list[str] = []
    if truth_names != live_names:
        divergences.append(
            f"{label}: relation sets differ — WAL ground truth has "
            f"{sorted(truth_names - live_names)} extra, lacks "
            f"{sorted(live_names - truth_names)} (schema changes must "
            "pair with a checkpoint)"
        )
    divergences.extend(
        diff_relations(
            f"{label} (vs checkpoint+WAL)",
            truth,
            database,
            truth_names & live_names,
        )
    )
    return divergences


def verify_follower(
    label: str, follower: "Follower", leader: Database, required=()
) -> list[str]:
    """Follower base replica vs the leader, plus its own views' oracle.

    ``required`` names relations that must exist on both sides; other
    names are compared only when both sides have them (followers get no
    DDL, so later schema changes legitimately diverge).
    """
    follower_names = set(follower.database.relation_names())
    leader_names = set(leader.relation_names())
    divergences: list[str] = []
    missing_bases = set(required) - (follower_names & leader_names)
    if missing_bases:
        divergences.append(
            f"{label}: base tables {sorted(missing_bases)} absent from "
            "the replica or the leader"
        )
    divergences.extend(
        diff_relations(label, leader, follower.database, follower_names & leader_names)
    )
    follower.maintainer.quiesce()
    divergences.extend(verify_maintainer(label, follower.maintainer))
    return divergences


def verify_base_free_follower(
    label: str, follower: "Follower", leader: Database
) -> list[str]:
    """Base-free follower views vs a leader-side full recompute.

    Only meaningful at a quiescent point where the follower has applied
    every committed record — otherwise the leader is simply ahead.
    Deferred follower views are quiesced first, as everywhere else.
    """
    divergences: list[str] = []
    if follower.base_dropped:
        for name in sorted(follower.database.relation_names()):
            held = len(follower.database.relation(name))
            if held:
                divergences.append(
                    f"{label}: shed base relation {name!r} holds {held} "
                    "tuples — the base-free path leaked base state"
                )
    follower.maintainer.quiesce()
    divergences.extend(audit_aggregate_state(label, follower.maintainer))
    instances = {
        name: leader.relation(name) for name in leader.relation_names()
    }
    for name in sorted(follower.maintainer.view_names()):
        view = follower.maintainer.view(name)
        want = evaluate(view.definition.expression, instances).counts()
        have = view.contents.counts()
        if want == have:
            continue
        missing = sorted(set(want) - set(have))
        unexpected = sorted(set(have) - set(want))
        recounted = sorted(
            k for k in set(want) & set(have) if want[k] != have[k]
        )
        divergences.append(
            f"{label}: base-free view {name!r} diverges from the leader "
            f"recompute (missing {missing[:3]!r}, unexpected "
            f"{unexpected[:3]!r}, count mismatches {recounted[:3]!r}; "
            f"sizes {len(want)} vs {len(have)})"
        )
    return divergences
