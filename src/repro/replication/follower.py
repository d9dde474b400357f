"""Changefeed followers: independent views downstream of the WAL.

The paper's machinery needs nothing from the base store beyond the
committed delta stream — so a replica that receives (a directory
containing) the leader's checkpoint and WAL can maintain materialized
views the leader has never heard of.  :class:`Follower` is that
replica: it boots its own base-relation copy from the newest
checkpoint, registers its *own* view definitions, and then advances a
position cursor through the log, re-committing each shipped record
through its private commit pipeline.  Every poll runs the same
irrelevance filter and differential evaluation the leader runs, just
against the follower's view set.

Consistency model: a follower is *sequentially consistent with lag* —
after ``poll()`` returns 0 with an undamaged tail, the follower's base
relations equal the leader's as of the follower's position, and each
follower view equals what the same definition would contain on the
leader (deferred views after a ``refresh``).

Base-free hosting
-----------------
With ``base_free=True`` the follower sheds its base-relation copy once
its views are registered: every view must be **self-maintainable**
(:mod:`repro.scheduler.selfmaint` — maintainable from the view's own
counted contents plus the delta, with no base access), the bootstrap
rows are cleared, and each shipped record is decoded into net deltas
and fed straight to the maintainer
(:meth:`~repro.core.maintainer.ViewMaintainer.apply_deltas`) instead of
being re-committed against base state.  The maintained views stay
byte-for-byte what the full replica computes, because the compiled
plan's single-occurrence delta row never reads an OLD operand — only
the memory for the base copies is gone.  Constraint enforcement is
necessarily the leader's job in this mode: a base-free host has no
state to validate deltas against.

Declared keys widen what a base-free follower may host.  Declaring the
leader's keys and foreign keys on the follower
(:meth:`Follower.declare_key` / :meth:`Follower.declare_foreign_key`,
before the views) feeds the chase the premises for the ``fk_join``
self-maintainability class: a join view whose probe relations are
reached through declared foreign keys onto their declared keys
compiles to an FK-reduced plan that executes over the delta relation
alone, so it — inserts *and* deletes, which the shipped records carry
as leader-validated net effects — maintains exactly like a
single-relation view, with probe-relation deltas proven irrelevant and
dropped wholesale.
"""

from __future__ import annotations

from repro.algebra.expressions import Expression
from repro.core.maintainer import MaintenancePolicy, ViewMaintainer
from repro.core.views import MaterializedView
from repro.engine.log import replay_records
from repro.errors import ReplicationError
from repro.instrumentation import charge
from repro.replication.checkpoints import Checkpoint, latest_checkpoint_path
from repro.replication.recovery import decode_wal_record
from repro.replication.wal import TailDamage, WalReader, WalRecord


class Follower:
    """Consumes a WAL directory and maintains its own views from it.

    ``base_free=True`` drops the base-relation copy after view
    registration (see the module docstring); it requires every
    registered view to be self-maintainable.
    """

    def __init__(self, directory: str, base_free: bool = False) -> None:
        self.directory = directory
        self.base_free = base_free
        #: Distinct base tuples shed by base-free hosting (0 until the
        #: first applied record; the benchmark's memory-saving measure).
        self.base_rows_dropped = 0
        self._base_dropped = False
        path = latest_checkpoint_path(directory)
        if path is None:
            raise ReplicationError(
                f"no checkpoint in {directory!r}: followers bootstrap their "
                "base-relation copy (and schemas) from the leader's checkpoint"
            )
        checkpoint = Checkpoint.load(path)
        #: The follower's private base-relation replica.
        self.database = checkpoint.build_database()
        #: WAL sequence the replica is current as of.
        self.position = checkpoint.wal_sequence
        # Replayed commits keep their WAL sequences in the replica's
        # in-memory log, so follower view refresh positions are the
        # same WAL positions a server changefeed reports.
        self.database.log.advance_sequence(self.position + 1)
        #: The follower's own maintainer — define any views on it.
        self.maintainer = ViewMaintainer(self.database)
        #: Torn-tail report from the last poll (None when clean).
        self.tail_damage: TailDamage | None = None
        self._reader = WalReader(directory)

    # ------------------------------------------------------------------
    # View management (delegates to the private maintainer)
    # ------------------------------------------------------------------
    def define_view(
        self,
        name: str,
        expression: Expression,
        policy: MaintenancePolicy = MaintenancePolicy.IMMEDIATE,
    ) -> MaterializedView:
        """Register one of the follower's own views.

        The initial materialization evaluates against the replica at
        the current position; subsequent polls maintain it
        differentially from shipped deltas alone.  On a base-free
        follower all views must be registered before the first record
        is applied — the bootstrap rows the materialization needs are
        shed at that point.
        """
        if self._base_dropped:
            raise ReplicationError(
                f"cannot define view {name!r}: this base-free follower has "
                "already shed its base-relation copy; register every view "
                "before applying records"
            )
        return self.maintainer.define_view(name, expression, policy=policy)

    def view(self, name: str) -> MaterializedView:
        """One of the follower's materialized views."""
        return self.maintainer.view(name)

    def declare_key(self, relation_name: str, attributes) -> tuple[str, ...]:
        """Declare a candidate key on the follower's replica.

        Mirror the leader's declarations *before* defining views: the
        chase premises unlock the ``fk_join`` self-maintainability
        class, letting a base-free follower host FK-joins (see the
        module docstring).  The follower never enforces keys itself —
        shipped records are leader-validated — so declarations here
        are purely analysis premises.
        """
        return self.database.declare_key(relation_name, attributes)

    def declare_foreign_key(
        self,
        relation_name: str,
        attributes,
        ref_relation: str,
        ref_attributes,
    ):
        """Declare a foreign key on the follower's replica (see
        :meth:`declare_key`; the referenced key must be declared
        first)."""
        return self.database.declare_foreign_key(
            relation_name, attributes, ref_relation, ref_attributes
        )

    def refresh(self, name: str) -> bool:
        """Apply a deferred follower view's composed backlog."""
        return self.maintainer.refresh(name)

    # ------------------------------------------------------------------
    # The changefeed loop
    # ------------------------------------------------------------------
    def apply_record(self, record: WalRecord) -> bool:
        """Re-commit one shipped record; False for an applied duplicate.

        This is the single entry point every transport funnels into:
        :meth:`poll` reads records off the shared directory, a
        simulated or real network feed hands them over one at a time.
        Records at or below :attr:`position` are ignored (at-least-once
        delivery makes duplicates normal); a record that skips ahead
        raises :class:`~repro.errors.ReplicationError`, since applying
        it would silently drop the gap — in-order delivery is the
        caller's job (buffer and reorder before calling).
        """
        if record.sequence <= self.position:
            return False
        if record.sequence != self.position + 1:
            raise ReplicationError(
                f"follower at position {self.position} cannot apply record "
                f"{record.sequence}: records {self.position + 1}.."
                f"{record.sequence - 1} are missing"
            )
        if self.base_free:
            self.shed_base_copies()
            log_record = decode_wal_record(self.database, record)
            appended = self.database.log.append(
                log_record.txn_id, log_record.deltas
            )
            if appended.sequence != record.sequence:
                raise ReplicationError(
                    f"base-free follower log assigned sequence "
                    f"{appended.sequence} to WAL record {record.sequence}; "
                    "the in-memory log is out of step with the WAL"
                )
            self.maintainer.apply_deltas(log_record.txn_id, log_record.deltas)
        else:
            replay_records(
                self.database,
                [decode_wal_record(self.database, record)],
                preserve_txn_ids=True,
            )
        self.position = record.sequence
        return True

    # ------------------------------------------------------------------
    # Base-free hosting
    # ------------------------------------------------------------------
    @property
    def base_dropped(self) -> bool:
        """True once the base-relation copy has been shed."""
        return self._base_dropped

    def shed_base_copies(self) -> int:
        """Drop the bootstrap base rows (base-free mode; idempotent).

        Validates that every registered view is self-maintainable —
        anything else would silently diverge once the base copies are
        gone, so offenders are a :class:`ReplicationError` naming the
        views and why.  Returns the number of distinct base tuples
        dropped (also kept on :attr:`base_rows_dropped`).  Called
        automatically before the first record application.
        """
        if not self.base_free:
            raise ReplicationError(
                "shed_base_copies() requires base_free=True"
            )
        if self._base_dropped:
            return self.base_rows_dropped
        offenders = [
            name
            for name in self.maintainer.view_names()
            if not self.maintainer.is_self_maintainable(name)
        ]
        if offenders:
            reasons = "; ".join(
                f"{name}: {self.maintainer.self_maintainability(name).reason}"
                for name in offenders
            )
            raise ReplicationError(
                "base-free follower cannot host non-self-maintainable "
                f"view(s) {offenders}: {reasons}"
            )
        dropped = 0
        for name in sorted(self.database.relation_names()):
            dropped += self.database.relation(name).clear()
        self.base_rows_dropped = dropped
        self._base_dropped = True
        charge("base_free_rows_dropped", dropped)
        return dropped

    def poll(self, max_records: int | None = None) -> int:
        """Consume newly shipped records; returns how many were applied.

        Each record is re-committed as one transaction under its
        original id, advancing :attr:`position`.  A torn tail stops the
        poll (and is reported on :attr:`tail_damage`) — the next poll
        picks up whatever the leader completes afterwards.
        """
        applied = 0
        for record in self._reader.records(after=self.position):
            if self.apply_record(record):
                applied += 1
            if max_records is not None and applied >= max_records:
                break
        self.tail_damage = self._reader.tail_damage
        return applied

    def lag(self) -> int:
        """How many committed records the follower has not yet applied."""
        return max(0, self._reader.last_sequence() - self.position)

    def __repr__(self) -> str:
        return (
            f"<Follower {self.directory!r} position={self.position} "
            f"{len(self.maintainer.view_names())} views>"
        )
