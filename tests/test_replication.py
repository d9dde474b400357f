"""Tests for the durability & replication subsystem.

Covers the WAL codec and segment mechanics, the torn-tail/corruption
distinction, checkpointing, the kill-and-recover acceptance round-trip
(base relations plus immediate *and* deferred views byte-for-byte), the
changefeed follower, the CLI verbs, and property tests showing that
snapshot + WAL replay reproduces every relation and every view exactly
— multiplicity counters included.
"""

import gc
import io
import json
import os
import random
import shutil
import tempfile
import tracemalloc
import typing
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    BaseRef,
    Database,
    DurabilityManager,
    Follower,
    MaintenancePolicy,
    Recovery,
    ReplicationError,
    ViewMaintainer,
    check_view_consistency,
    recover,
)
from repro.engine.persistence import (
    FORMAT_VERSION,
    PersistenceError,
    load_database,
)
from repro.instrumentation import CostRecorder, recording
from repro.replication.checkpoints import (
    Checkpoint,
    latest_checkpoint_path,
    write_checkpoint,
)
from repro.replication.wal import (
    WalCorruptionError,
    WalIO,
    WalReader,
    WalRecord,
    WalWriter,
    decode_line,
    encode_record,
    segment_paths,
)

VIEW_EXPR = (
    BaseRef("r")
    .join(BaseRef("s"))
    .select("A < 10 and B = C")
    .project(["A", "D"])
)
DEFERRED_EXPR = BaseRef("r").select("A >= 5").project(["B"])


def make_leader(directory, **wal_options):
    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 2), (5, 10), (7, 10)])
    db.create_relation("s", ["C", "D"], [(2, 20), (10, 30)])
    durability = DurabilityManager(db, directory, **wal_options)
    maintainer = ViewMaintainer(db)
    maintainer.define_view("v", VIEW_EXPR)
    maintainer.define_view("d", DEFERRED_EXPR, policy=MaintenancePolicy.DEFERRED)
    durability.checkpoint(maintainer)
    return db, durability, maintainer


def churn(db, transactions, seed=0):
    rng = random.Random(seed)
    for _ in range(transactions):
        with db.transact() as txn:
            a = rng.randrange(12)
            txn.insert("r", (a, rng.randrange(12)))
            if rng.random() < 0.4:
                txn.insert("s", (rng.randrange(12), rng.randrange(40)))


# ----------------------------------------------------------------------
# Record codec
# ----------------------------------------------------------------------

class TestRecordCodec:
    def test_round_trip(self):
        doc = {"r": {"inserted": [[1, 2]], "deleted": []}}
        record = decode_line(encode_record(7, 12, doc).rstrip(b"\n"))
        assert record.sequence == 7
        assert record.txn_id == 12
        assert record.deltas_doc == doc

    def test_flipped_byte_fails_checksum(self):
        line = encode_record(1, 1, {"r": {"inserted": [[3, 4]], "deleted": []}})
        damaged = line.replace(b"[3,4]", b"[3,5]")
        assert decode_line(damaged.rstrip(b"\n")) is None

    def test_truncated_line_is_damage(self):
        line = encode_record(1, 1, {})
        assert decode_line(line[: len(line) // 2]) is None

    def test_non_record_json_is_damage(self):
        assert decode_line(b'{"hello": "world"}') is None

    def test_encoding_is_deterministic(self):
        doc = {"r": {"inserted": [[1, 2], [3, 4]], "deleted": [[5, 6]]}}
        assert encode_record(3, 9, doc) == encode_record(3, 9, doc)


# ----------------------------------------------------------------------
# One dump per record, unchanged bytes
# ----------------------------------------------------------------------

def two_dump_record(sequence, txn_id, deltas_doc):
    """The line encoder up to PR 22: body dumped for the checksum, then
    dumped again inside the envelope.  What every existing log holds."""
    body = {"seq": sequence, "txn": txn_id, "deltas": deltas_doc}
    crc = zlib.crc32(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    line = json.dumps({"body": body, "crc": crc}, sort_keys=True, separators=(",", ":"))
    return line.encode("utf-8") + b"\n"


_cells = st.integers(-(2**40), 2**40) | st.text(max_size=6)
_row_lists = st.lists(st.lists(_cells, max_size=3), max_size=3)
deltas_documents = st.dictionaries(
    st.text(max_size=8),
    st.fixed_dictionaries({"inserted": _row_lists, "deleted": _row_lists}),
    max_size=3,
)
_sequences = st.integers(0, 2**70)


class TestSingleDumpRecord:
    @given(sequence=_sequences, txn_id=_sequences, doc=deltas_documents)
    @example(sequence=1, txn_id=1, doc={'q"\\é☃': {"inserted": [["\"\\\u2028"]], "deleted": []}})
    @settings(max_examples=150, deadline=None)
    def test_spliced_line_is_the_two_dump_line(self, sequence, txn_id, doc):
        line = encode_record(sequence, txn_id, doc)
        assert line == two_dump_record(sequence, txn_id, doc)
        record = decode_line(line.rstrip(b"\n"))
        assert (record.sequence, record.txn_id, record.deltas_doc) == (
            sequence, txn_id, doc,
        )

    @given(docs=st.lists(deltas_documents, min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_a_log_written_by_the_old_encoder_reads_back_and_extends(self, docs):
        with tempfile.TemporaryDirectory() as directory:
            *old, newest = docs
            segment = os.path.join(directory, "wal-0000000000000001.jsonl")
            with open(segment, "wb") as stream:
                for sequence, doc in enumerate(old, start=1):
                    stream.write(two_dump_record(sequence, 100 + sequence, doc))
            reader = WalReader(directory)
            assert [
                (r.sequence, r.txn_id, r.deltas_doc) for r in reader.records()
            ] == [(n, 100 + n, doc) for n, doc in enumerate(old, start=1)]
            assert reader.tail_damage is None
            # A writer resumes behind it; the file it leaves is the one
            # the old encoder would have written for the whole history.
            with WalWriter(directory) as writer:
                assert writer.append(100 + len(docs), newest) == len(docs)
            with open(segment, "rb") as stream:
                assert stream.read() == b"".join(
                    two_dump_record(n, 100 + n, doc)
                    for n, doc in enumerate(docs, start=1)
                )


# ----------------------------------------------------------------------
# Writer / reader mechanics
# ----------------------------------------------------------------------

class TestWalMechanics:
    def test_append_read_round_trip(self, tmp_path):
        directory = str(tmp_path)
        with WalWriter(directory) as writer:
            for txn in range(1, 6):
                doc = {"r": {"inserted": [[txn, txn]], "deleted": []}}
                assert writer.append(txn, doc) == txn
        records = list(WalReader(directory).records())
        assert [r.sequence for r in records] == [1, 2, 3, 4, 5]
        assert [r.txn_id for r in records] == [1, 2, 3, 4, 5]

    def test_records_after_cursor(self, tmp_path):
        directory = str(tmp_path)
        with WalWriter(directory) as writer:
            for txn in range(1, 6):
                writer.append(txn, {})
        tail = [r.sequence for r in WalReader(directory).records(after=3)]
        assert tail == [4, 5]

    def test_rotation_creates_segments(self, tmp_path):
        directory = str(tmp_path)
        with WalWriter(directory, segment_bytes=200) as writer:
            for txn in range(1, 11):
                writer.append(txn, {"r": {"inserted": [[txn, 0]], "deleted": []}})
        segments = segment_paths(directory)
        assert len(segments) > 1
        # Segment names bound their contents: each starts at its first seq.
        assert segments[0][0] == 1
        assert [r.sequence for r in WalReader(directory).records()] == list(
            range(1, 11)
        )

    def test_reopen_resumes_sequence(self, tmp_path):
        directory = str(tmp_path)
        with WalWriter(directory) as writer:
            writer.append(1, {})
            writer.append(2, {})
        with WalWriter(directory) as writer:
            assert writer.last_sequence == 2
            assert writer.append(3, {}) == 3
        assert WalReader(directory).last_sequence() == 3

    def test_prune_removes_covered_segments(self, tmp_path):
        directory = str(tmp_path)
        with WalWriter(directory, segment_bytes=200) as writer:
            for txn in range(1, 11):
                writer.append(txn, {"r": {"inserted": [[txn, 0]], "deleted": []}})
            before = len(segment_paths(directory))
            removed = writer.prune_through(writer.last_sequence)
            assert removed == before - 1  # the active segment survives
            # The surviving tail still reads cleanly from the cursor.
            assert list(WalReader(directory).records(after=10)) == []

    def test_bad_sync_mode_rejected(self, tmp_path):
        with pytest.raises(ReplicationError):
            WalWriter(str(tmp_path), sync="sometimes")

    def test_missing_directory_rejected_by_reader(self, tmp_path):
        with pytest.raises(ReplicationError):
            WalReader(str(tmp_path / "nope"))

    def test_wal_counters_charged(self, tmp_path):
        recorder = CostRecorder()
        with recording(recorder):
            with WalWriter(str(tmp_path)) as writer:
                writer.append(1, {})
                writer.append(2, {})
            list(WalReader(str(tmp_path)).records())
        assert recorder.get("wal_records_appended") == 2
        assert recorder.get("wal_records_read") == 2
        assert recorder.get("wal_fsyncs") >= 2
        assert recorder.get("wal_bytes_written") > 0


# ----------------------------------------------------------------------
# Torn tails vs. corruption
# ----------------------------------------------------------------------

def _only_segment(directory):
    (pair,) = segment_paths(directory)
    return pair[1]


class TestTornTail:
    def write_log(self, directory, n=3):
        with WalWriter(directory) as writer:
            for txn in range(1, n + 1):
                writer.append(txn, {"r": {"inserted": [[txn, txn]], "deleted": []}})

    def test_reader_stops_at_torn_tail(self, tmp_path):
        directory = str(tmp_path)
        self.write_log(directory)
        path = _only_segment(directory)
        with open(path, "ab") as stream:
            stream.write(b'{"body": {"seq": 4, "txn"')  # crash mid-append
        reader = WalReader(directory)
        assert [r.sequence for r in reader.records()] == [1, 2, 3]
        assert reader.tail_damage is not None
        assert reader.tail_damage.path == path

    def test_writer_truncates_torn_tail(self, tmp_path):
        directory = str(tmp_path)
        self.write_log(directory)
        path = _only_segment(directory)
        clean_size = os.path.getsize(path)
        with open(path, "ab") as stream:
            stream.write(b"garbage that never became a record")
        with WalWriter(directory) as writer:
            assert writer.last_sequence == 3
            assert os.path.getsize(path) == clean_size
            assert writer.append(4, {}) == 4
        assert WalReader(directory).last_sequence() == 4

    def test_interior_damage_raises(self, tmp_path):
        directory = str(tmp_path)
        self.write_log(directory)
        path = _only_segment(directory)
        lines = open(path, "rb").read().splitlines(keepends=True)
        lines[1] = lines[1][:10] + b"X" + lines[1][11:]  # damage record 2 of 3
        with open(path, "wb") as stream:
            stream.writelines(lines)
        with pytest.raises(WalCorruptionError):
            list(WalReader(directory).records())
        with pytest.raises(WalCorruptionError):
            WalWriter(directory)  # open-time scan must refuse too

    def test_one_flipped_body_byte_in_the_final_record_is_tail_damage(
        self, tmp_path
    ):
        # The checksum covers the body bytes exactly as written: a flip
        # that leaves the line valid JSON is still caught.
        directory = str(tmp_path)
        self.write_log(directory)
        path = _only_segment(directory)
        data = open(path, "rb").read()
        flip = data.rindex(b"[3,3]") + 1
        with open(path, "wb") as stream:
            stream.write(data[:flip] + b"4" + data[flip + 1:])
        reader = WalReader(directory)
        assert [r.sequence for r in reader.records()] == [1, 2]
        assert reader.tail_damage is not None
        with WalWriter(directory) as writer:
            assert writer.last_sequence == 2

    def test_sequence_gap_raises(self, tmp_path):
        directory = str(tmp_path)
        path = os.path.join(directory, "wal-0000000000000001.jsonl")
        with open(path, "wb") as stream:
            stream.write(encode_record(1, 1, {}))
            stream.write(encode_record(3, 3, {}))  # 2 is missing
        with pytest.raises(WalCorruptionError):
            list(WalReader(directory).records())

    def test_writer_repairs_sheared_final_newline(self, tmp_path):
        # Found by the simulation harness (a crash cutting exactly one
        # byte): the torn write can shear just the terminating newline
        # off the final record, leaving its JSON intact.  The reader
        # still decodes it, so tail recovery keeps it — and a naive
        # append would weld the next record onto the same line, which
        # later reads as mid-log corruption.  The writer must restore
        # the terminator before appending.
        directory = str(tmp_path)
        self.write_log(directory)
        path = _only_segment(directory)
        with open(path, "r+b") as stream:
            stream.truncate(os.path.getsize(path) - 1)  # shear the "\n"
        with WalWriter(directory) as writer:
            assert writer.last_sequence == 3  # record 3 is intact
            assert writer.append(4, {}) == 4
        assert [r.sequence for r in WalReader(directory).records()] == [1, 2, 3, 4]


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------

class TestCheckpoints:
    def test_round_trip_with_views(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        path = latest_checkpoint_path(directory)
        checkpoint = Checkpoint.load(path)
        assert checkpoint.view_names() == ("d", "v")
        assert checkpoint.view_policy("d") == "deferred"
        rebuilt = checkpoint.build_database()
        for name in db.relation_names():
            assert rebuilt.relation(name) == db.relation(name)
        assert checkpoint.view_contents("v") == maintainer.view("v").contents

    def test_newest_checkpoint_wins(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        churn(db, 3)
        durability.checkpoint(maintainer)
        assert Checkpoint.load(latest_checkpoint_path(directory)).wal_sequence == 3

    def test_checkpoint_without_maintainer_omits_views(self, tmp_path):
        directory = str(tmp_path)
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 2)])
        path = write_checkpoint(directory, db, 0)
        checkpoint = Checkpoint.load(path)
        assert checkpoint.view_names() == ()
        assert checkpoint.view_contents("v") is None

    def test_wrong_format_rejected(self, tmp_path):
        with pytest.raises(ReplicationError):
            Checkpoint({"format": 999})

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ReplicationError):
            latest_checkpoint_path(str(tmp_path / "nope"))


# ----------------------------------------------------------------------
# Kill-and-recover round trip (the acceptance criterion)
# ----------------------------------------------------------------------

class TestCrashRecovery:
    def test_recovery_matches_pre_crash_state(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        churn(db, 8, seed=1)
        durability.checkpoint(maintainer)  # mid-stream checkpoint + prune
        churn(db, 7, seed=2)
        maintainer.refresh("d")
        expected_relations = {n: db.relation(n) for n in db.relation_names()}
        expected_v = maintainer.view("v").contents
        expected_d = maintainer.view("d").contents
        del db, durability, maintainer  # crash: nothing is closed

        def restore(recovery, fresh):
            recovery.restore_view(fresh, "v", VIEW_EXPR)
            recovery.restore_view(fresh, "d", DEFERRED_EXPR)

        recovery, recovered = recover(directory, restore)
        assert recovery.tail_damage is None
        for name, relation in expected_relations.items():
            assert recovery.database.relation(name) == relation
        assert recovered.view("v").contents == expected_v
        # The deferred view's backlog re-accumulated during replay.
        recovered.refresh("d")
        assert recovered.view("d").contents == expected_d
        check_view_consistency(recovered.view("v"), recovery.database.instances())

    def test_empty_tail_recovery_sits_at_the_checkpoint_sequence(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        churn(db, 5, seed=4)
        durability.checkpoint(maintainer)  # nothing follows it in the WAL
        position = db.last_sequence()
        assert position == maintainer.view("v").last_refresh_sequence == 5
        del db, durability, maintainer

        recovery, recovered = recover(
            directory, lambda rec, fresh: rec.restore_view(fresh, "v", VIEW_EXPR)
        )
        assert recovery.checkpoint_sequence == recovery.last_sequence == position
        assert recovery.database.last_sequence() == position
        assert recovered.view("v").last_refresh_sequence == position
        assert recovered.backlog("v")["sequence_lag"] == 0
        with recovery.database.transact() as txn:
            txn.insert("r", (3, 2))
        assert recovered.view("v").last_refresh_sequence == position + 1

    def test_recovered_views_catch_up_differentially(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        churn(db, 6, seed=3)
        del db, durability, maintainer

        recovery = Recovery(directory)
        fresh = ViewMaintainer(recovery.database)
        recovery.restore_view(fresh, "v", VIEW_EXPR)
        recorder = CostRecorder()
        with recording(recorder):
            assert recovery.replay() == 6
        assert recorder.get("log_replay_transactions") == 6
        stats = fresh.stats("v")
        # Replay went through the maintenance pipeline, not re-evaluation:
        # the six records were folded into one commit, which the view
        # saw and screened.
        assert stats["transactions_seen"] == 1
        assert stats["tuples_screened"] > 0

    def test_restored_policy_defaults_from_checkpoint(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        del db, durability, maintainer
        recovery = Recovery(directory)
        fresh = ViewMaintainer(recovery.database)
        recovery.restore_view(fresh, "d", DEFERRED_EXPR)
        assert fresh.policy("d") is MaintenancePolicy.DEFERRED

    def test_recovery_requires_checkpoint(self, tmp_path):
        directory = str(tmp_path)
        with WalWriter(directory) as writer:
            writer.append(1, {})
        with pytest.raises(ReplicationError, match="checkpoint"):
            Recovery(directory)

    def test_recovery_tolerates_torn_tail(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        churn(db, 4, seed=4)
        del db, durability, maintainer
        (_, path) = segment_paths(directory)[-1]
        with open(path, "ab") as stream:
            stream.write(b'{"body": {"seq":')
        recovery, recovered = recover(
            directory, lambda rec, m: rec.restore_view(m, "v", VIEW_EXPR)
        )
        assert recovery.tail_damage is not None
        assert recovery.last_sequence == 4
        check_view_consistency(recovered.view("v"), recovery.database.instances())

    def test_resumed_leader_appends_after_recovery(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        churn(db, 3, seed=5)
        del db, durability, maintainer

        recovery, recovered = recover(
            directory, lambda rec, m: rec.restore_view(m, "v", VIEW_EXPR)
        )
        resumed = DurabilityManager(recovery.database, directory)
        assert resumed.position == 3
        with recovery.database.transact() as txn:
            txn.insert("r", (2, 2))
        assert resumed.position == 4
        # Transaction ids keep advancing past everything ever committed.
        assert recovery.database.next_txn_id > 4
        resumed.close()

    def test_a_tail_that_nets_to_nothing_still_lands_the_position(
        self, tmp_path
    ):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        with db.transact() as txn:
            txn.insert("r", (3, 2))
        with db.transact() as txn:
            txn.delete("r", (3, 2))
        expected = {n: db.relation(n).counts() for n in db.relation_names()}
        del db, durability, maintainer

        recovery, recovered = recover(
            directory, lambda rec, m: rec.restore_view(m, "v", VIEW_EXPR)
        )
        assert recovery.last_sequence == recovery.database.last_sequence() == 2
        assert recovery.database.next_txn_id == 3
        assert {
            n: recovery.database.relation(n).counts()
            for n in recovery.database.relation_names()
        } == expected
        # Nothing reached the view, so it was not maintained.
        assert recovered.stats("v")["transactions_seen"] == 0
        with recovery.database.transact() as txn:
            txn.insert("r", (3, 2))
        assert recovery.database.last_sequence() == 3
        assert recovered.view("v").last_refresh_sequence == 3

    def test_mid_log_corruption_leaves_the_checkpoint_state(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        churn(db, 6, seed=3)
        del db, durability, maintainer
        path = _only_segment(directory)
        lines = open(path, "rb").read().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"seq":3', b'"seq":4')  # crc now wrong
        with open(path, "wb") as stream:
            stream.writelines(lines)
        checkpoint = Checkpoint.load(latest_checkpoint_path(directory))
        snapshot = checkpoint.build_database()

        recovery = Recovery(directory)
        fresh = ViewMaintainer(recovery.database)
        recovery.restore_view(fresh, "v", VIEW_EXPR)
        with pytest.raises(WalCorruptionError):
            recovery.replay()
        for name in snapshot.relation_names():
            assert recovery.database.relation(name) == snapshot.relation(name)
        assert recovery.database.last_sequence() == checkpoint.wal_sequence
        assert recovery.database.next_txn_id == checkpoint.next_txn_id
        assert fresh.view("v").contents == checkpoint.view_contents("v")
        assert fresh.stats("v")["transactions_seen"] == 0


# ----------------------------------------------------------------------
# The recovery lifecycle and hostile bytes
# ----------------------------------------------------------------------

R_ATTRIBUTES = [
    {"name": "A", "domain": {"kind": "integer"}},
    {"name": "B", "domain": {"kind": "integer"}},
]
#: Rows over r(A, B integer) that must not load.  From ``[True, 7]`` on
#: they are what a batch check of types and arities could wave through:
#: a bool (an ``int`` to Python), a float, one value too many, and JSON
#: objects (mappings to ``coerce_row``; the codec writes only arrays).
#: The first object repeats the ``[7, 7]`` the cases load before it;
#: the second does not, so only the array rule refuses it.
BAD_ROWS = [
    [1],
    [1, "x"],
    5,
    "ab",
    None,
    [True, 7],
    [7.0, 7],
    [7, 7, 7],
    {"A": 7, "B": 7},
    {"A": 8, "B": 9},
]


def checkpoint_document(rows, views=None, catalog=None):
    return {
        "format": 1,
        "wal_sequence": 0,
        "next_txn_id": 1,
        "database": {
            "format": FORMAT_VERSION,
            "relations": {
                "r": {
                    "attributes": R_ATTRIBUTES,
                    "rows": rows,
                    "counts": [1] * len(rows),
                }
            },
            "constraints": {},
            "keys": {},
            "foreign_keys": [],
            **(catalog or {}),
        },
        "views": views or {},
    }


#: Catalog entries that parse as JSON but do not hold over r(A, B) with
#: the rows [7, 7] and [7, 8].
BAD_CATALOGS = {
    "unknown relation": {"constraints": {"zz": "A >= 0"}},
    "attribute outside the schema": {"keys": {"r": [["Z"]]}},
    "constraint that does not parse": {"constraints": {"r": "A >="}},
    "constraint out of class": {"constraints": {"r": "A != 5"}},
    "constraint the rows break": {"constraints": {"r": "B <= 7"}},
    "key the rows collide on": {"keys": {"r": [["A"]]}},
    "foreign key to an undeclared key": {
        "foreign_keys": [
            {
                "relation": "r",
                "attributes": ["B"],
                "ref_relation": "r",
                "ref_attributes": ["A"],
            }
        ]
    },
    "foreign key missing a field": {"foreign_keys": [{"relation": "r"}]},
    "foreign key that is not an object": {"foreign_keys": ["r"]},
    "constraint that is not text": {"constraints": {"r": 5}},
    "key that is a string": {"keys": {"r": ["B"]}},
    "keys that are not a list": {"keys": {"r": 3}},
    "keys that are not a mapping": {"keys": [["B"]]},
    "foreign keys that are not a list": {"foreign_keys": {}},
    "no catalog": {"constraints": None},
}


class TestRecoveryLifecycle:
    def test_restore_and_replay_are_refused_after_replay(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        churn(db, 3, seed=2)
        del db, durability, maintainer

        recovery = Recovery(directory)
        fresh = ViewMaintainer(recovery.database)
        recovery.restore_view(fresh, "v", VIEW_EXPR)
        assert recovery.replay() == 3
        with pytest.raises(ReplicationError, match="after replay"):
            recovery.restore_view(fresh, "d", DEFERRED_EXPR)
        with pytest.raises(ReplicationError, match="after replay"):
            recovery.replay()
        # The CLI's recover verb lists them after replaying.
        assert recovery.checkpointed_views() == ("d", "v")

    def test_no_checkpoint_rows_remain_behind_a_finished_recovery(
        self, tmp_path
    ):
        # The database and its maintainer are what a served process
        # keeps; the recovery session that built them must hold none of
        # the checkpoint's documents (base rows or view contents).
        directory = str(tmp_path)
        db = Database()
        db.create_relation("r", ["A", "B"], [(i, i % 50) for i in range(3000)])
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", BaseRef("r").select("B < 40"))
        with DurabilityManager(db, directory) as durability:
            durability.checkpoint(maintainer)
            for i in range(5):
                db.apply(inserts={"r": [(3000 + i, i)]}, deletes={"r": [(i, i)]})
        del db, maintainer

        gc.collect()
        tracemalloc.start()
        try:
            recovery = Recovery(directory)
            database = recovery.database
            fresh = ViewMaintainer(database)
            recovery.restore_view(fresh, "v", BaseRef("r").select("B < 40"))
            recovery.replay()
            gc.collect()
            before, _ = tracemalloc.get_traced_memory()
            del recovery
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert before - after < 64 * 1024, before - after
        assert len(database.relation("r")) >= 3000
        assert len(fresh.view("v").contents) >= 2400


class TestHostileBytes:
    """Checkpoint and WAL bytes that parse but do not fit the schema
    are a :class:`ReplicationError` naming the relation or record."""

    @pytest.mark.parametrize("row", BAD_ROWS)
    def test_a_bad_base_row_in_a_checkpoint(self, row):
        checkpoint = Checkpoint(checkpoint_document([[7, 7], row]))
        with pytest.raises(ReplicationError, match="'r'"):
            checkpoint.build_database()

    @pytest.mark.parametrize("again", [[7, 8], (7, 8)], ids=["list", "tuple"])
    def test_a_duplicate_base_row_in_a_checkpoint(self, again):
        checkpoint = Checkpoint(checkpoint_document([[7, 7], [7, 8], [9, 9], again]))
        with pytest.raises(
            ReplicationError, match=r"'r'.*duplicate initial row \[?\(?7, 8"
        ):
            checkpoint.build_database()

    @pytest.mark.parametrize("row", BAD_ROWS)
    def test_a_bad_row_in_checkpointed_view_contents(self, row):
        views = {
            "v": {
                "policy": "immediate",
                "relation": {
                    "attributes": R_ATTRIBUTES,
                    "rows": [[7, 7], row],
                    "counts": [2, 1],
                },
            }
        }
        checkpoint = Checkpoint(checkpoint_document([], views))
        with pytest.raises(ReplicationError, match="'v'"):
            checkpoint.view_contents("v")

    @pytest.mark.parametrize("row", BAD_ROWS)
    def test_a_bad_row_in_a_checksummed_wal_record(self, row, tmp_path):
        from repro.replication.recovery import decode_wal_record

        database = Checkpoint(checkpoint_document([])).build_database()
        line = encode_record(1, 1, {"r": {"inserted": [row], "deleted": []}})
        record = decode_line(line.rstrip(b"\n"))
        assert record is not None  # the bytes are intact
        with pytest.raises(ReplicationError, match="WAL record 1"):
            decode_wal_record(database, record)
        # Recovery surfaces the same typed error.
        directory = str(tmp_path)
        with open(os.path.join(directory, "checkpoint-0000000000000000.json"), "w") as out:
            json.dump(checkpoint_document([]), out)
        with open(os.path.join(directory, "wal-0000000000000001.jsonl"), "wb") as out:
            out.write(line)
        with pytest.raises(ReplicationError, match="WAL record 1"):
            Recovery(directory).replay()

    @pytest.mark.parametrize(
        "catalog", BAD_CATALOGS.values(), ids=list(BAD_CATALOGS)
    )
    def test_a_bad_catalog_entry(self, catalog):
        doc = checkpoint_document([[7, 7], [7, 8]], catalog=catalog)
        with pytest.raises(ReplicationError, match="catalog"):
            Checkpoint(doc).build_database()
        with pytest.raises(PersistenceError, match="catalog"):
            load_database(io.StringIO(json.dumps(doc["database"])))

    def test_the_same_rows_and_a_good_catalog_load(self):
        catalog = {"constraints": {"r": "A = 7"}, "keys": {"r": [["A", "B"]]}}
        doc = checkpoint_document([[7, 7], [7, 8]], catalog=catalog)
        database = Checkpoint(doc).build_database()
        assert database.keys.keys_of("r") == (("A", "B"),)
        assert str(database.constraints.get("r")) == "A = 7"

    def test_a_tail_that_breaks_the_checkpoints_catalog(self, tmp_path):
        # The WAL carries rows only: a key dropped after the checkpoint
        # is back on restart, and a tail that broke it cannot replay.
        directory = str(tmp_path)
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 1)])
        db.declare_key("r", ["A"])
        durability = DurabilityManager(db, directory, sync="never")
        durability.checkpoint()
        with db.transact() as txn:
            txn.insert("r", (2, 2))
        db.drop_key("r")
        with db.transact() as txn:
            txn.insert("r", (1, 2))
        durability.close()

        recovery = Recovery(directory)
        with pytest.raises(ReplicationError) as raised:
            recovery.replay()
        assert "key (A) on 'r'" in str(raised.value)
        assert "checkpoint 0" in str(raised.value)
        assert recovery.database.relation("r").counts() == {(1, 1): 1}
        assert recovery.database.last_sequence() == 0
        assert recovery.database.keys.keys_of("r") == (("A",),)


# ----------------------------------------------------------------------
# Followers
# ----------------------------------------------------------------------

class TestFollower:
    def test_follower_converges_with_own_view(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)

        follower = Follower(directory)
        follower.define_view("mine", BaseRef("s").select("D > 20").project(["C"]))
        churn(db, 10, seed=6)
        assert follower.lag() == 10
        assert follower.poll() == 10
        assert follower.lag() == 0
        for name in db.relation_names():
            assert follower.database.relation(name) == db.relation(name)
        check_view_consistency(follower.view("mine"), follower.database.instances())

    def test_follower_matches_leader_definition(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        follower = Follower(directory)
        follower.define_view("v2", VIEW_EXPR)
        churn(db, 8, seed=7)
        follower.poll()
        assert follower.view("v2").contents == maintainer.view("v").contents

    def test_poll_is_incremental(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        follower = Follower(directory)
        churn(db, 5, seed=8)
        assert follower.poll(max_records=2) == 2
        assert follower.position == 2
        assert follower.poll() == 3
        churn(db, 2, seed=9)
        assert follower.poll() == 2
        assert follower.poll() == 0

    def test_follower_requires_checkpoint(self, tmp_path):
        directory = str(tmp_path)
        with WalWriter(directory) as writer:
            writer.append(1, {})
        with pytest.raises(ReplicationError, match="checkpoint"):
            Follower(directory)

    def test_apply_record_annotations_resolve(self):
        assert typing.get_type_hints(Follower.apply_record)["record"] is WalRecord


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------

class TestCliVerbs:
    def test_recover_verb(self, tmp_path, capsys):
        from repro.cli import main

        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        for a in (20, 21, 22, 23):
            with db.transact() as txn:
                txn.insert("r", (a, a))
        assert main(["recover", directory]) == 0
        out = capsys.readouterr().out
        assert "checkpoint" in out
        assert "replayed 4" in out

    def test_follow_verb(self, tmp_path, capsys):
        from repro.cli import main

        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        for a in (20, 21, 22):
            with db.transact() as txn:
                txn.insert("r", (a, a))
        assert main(["follow", directory, "--once"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("seq=1 ")

    def test_follow_from_cursor(self, tmp_path, capsys):
        from repro.cli import main

        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        for a in (20, 21, 22):
            with db.transact() as txn:
                txn.insert("r", (a, a))
        assert main(["follow", directory, "--once", "--from", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("seq=3 ")

    def test_recover_missing_directory_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["recover", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Satellite regressions
# ----------------------------------------------------------------------

class TestSatelliteRegressions:
    def test_drop_relation_with_multiple_indexes(self):
        db = Database()
        relation = db.create_relation("r", ["A", "B"], [(1, 2)])
        db.create_index("r", ["A"])
        db.create_index("r", ["B"])
        db.create_index("r", ["A", "B"])
        db.drop_relation("r")
        assert "r" not in db.relation_names()
        assert dict(relation.indexes) == {}

    def test_begin_pins_and_advances_txn_ids(self):
        db = Database()
        db.create_relation("r", ["A"], [])
        with db.transact(txn_id=7) as txn:
            txn.insert("r", (1,))
        assert db.next_txn_id == 8
        # Out-of-order replay ids never move the counter backwards.
        with db.transact(txn_id=3) as txn:
            txn.insert("r", (2,))
        assert db.next_txn_id == 8
        with db.transact() as txn:  # normal allocation resumes
            txn.insert("r", (3,))
        assert db.next_txn_id == 9


# ----------------------------------------------------------------------
# Property tests: replay reproduces everything byte-for-byte
# ----------------------------------------------------------------------

ops = st.sampled_from(["insert_r", "insert_s", "delete_r", "modify_r"])
txn_scripts = st.lists(
    st.tuples(ops, st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=4
)


def run_script(db, scripts):
    for script in scripts:
        with db.transact() as txn:
            for op, a, b in script:
                if op == "insert_r":
                    txn.insert("r", (a, b))
                elif op == "insert_s":
                    txn.insert("s", (a, b))
                elif op == "delete_r":
                    if (a, b) in db.relation("r"):
                        txn.delete("r", (a, b))
                elif op == "modify_r":
                    if (a, b) in db.relation("r"):
                        txn.update("r", (a, b), (b, a))


class RecordedCuts(WalIO):
    """The real filesystem, with each torn-tail truncation recorded."""

    def __init__(self):
        self.cuts = []

    def truncate(self, path, offset):
        self.cuts.append((os.path.basename(path), offset))
        super().truncate(path, offset)


def _segment_bytes(directory):
    contents = {}
    for _, path in segment_paths(directory):
        with open(path, "rb") as stream:
            contents[os.path.basename(path)] = stream.read()
    return contents


def assert_one_scan_matches_two(directory, recovery, scratch):
    """A writer opened from ``recovery.scan``, as ``serve`` opens it,
    resumes at the same sequence, cuts the same torn tail and appends
    the same bytes as a writer that scans the log for itself (over
    ``scratch``, a copy of ``directory`` taken before either opens).
    Returns the sequence both resumed at."""
    shutil.copytree(directory, scratch)
    handed, own = RecordedCuts(), RecordedCuts()
    doc = {"r": {"inserted": [[99, 98]], "deleted": []}}
    with WalWriter(directory, io=handed, scan=recovery.scan) as one:
        with WalWriter(scratch, io=own) as two:
            resumed = one.last_sequence
            assert two.last_sequence == resumed
            assert handed.cuts == own.cuts
            assert one.append(1000, doc) == two.append(1000, doc)
    assert _segment_bytes(directory) == _segment_bytes(scratch)
    return resumed


class TestReplayProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(txn_scripts, max_size=8))
    def test_snapshot_plus_replay_reproduces_all_state(self, scripts):
        import tempfile

        with tempfile.TemporaryDirectory() as directory:
            db, durability, maintainer = make_leader(directory)
            run_script(db, scripts)
            maintainer.refresh("d")
            expected = {n: db.relation(n) for n in db.relation_names()}
            expected_views = {
                "v": maintainer.view("v").contents,
                "d": maintainer.view("d").contents,
            }
            del db, durability, maintainer

            def restore(recovery, fresh):
                recovery.restore_view(fresh, "v", VIEW_EXPR)
                recovery.restore_view(fresh, "d", DEFERRED_EXPR)

            recovery, recovered = recover(directory, restore)
            recovered.refresh("d")
            for name, relation in expected.items():
                assert recovery.database.relation(name) == relation
            for name, contents in expected_views.items():
                got = recovered.view(name).contents
                assert got == contents
                # Byte-for-byte includes the projection multiplicities.
                assert got.counts() == contents.counts()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(txn_scripts, min_size=1, max_size=5), st.data())
    def test_arbitrary_tail_truncation_never_crashes(self, scripts, data):
        import tempfile

        with tempfile.TemporaryDirectory() as directory:
            db, durability, maintainer = make_leader(directory)
            run_script(db, scripts)
            del db, durability, maintainer
            segments = segment_paths(directory)
            if not segments:  # every transaction was a net no-op
                return
            (_, path) = segments[-1]
            size = os.path.getsize(path)
            cut = data.draw(st.integers(min_value=0, max_value=size))
            with open(path, "r+b") as stream:
                stream.truncate(cut)
            # A crash can only lose a suffix: recovery must come up on
            # the longest intact prefix, never raise.
            recovery, recovered = recover(
                directory, lambda rec, m: rec.restore_view(m, "v", VIEW_EXPR)
            )
            assert recovery.last_sequence <= len(scripts)
            check_view_consistency(
                recovered.view("v"), recovery.database.instances()
            )
            with tempfile.TemporaryDirectory() as scratch:
                resumed = assert_one_scan_matches_two(
                    directory, recovery, os.path.join(scratch, "own")
                )
            assert resumed == recovery.last_sequence


STACKED_EXPR = BaseRef("v").select("D >= 4")
MINMAX_EXPR = BaseRef("s").aggregate(
    ["C"], [("max", "D", "top"), ("min", "D", "bottom")]
)
#: One view of each kind recovery must carry: immediate, deferred,
#: stacked on another view, and an aggregate whose MIN/MAX rescan.
MATRIX_VIEWS = {
    "v": VIEW_EXPR,
    "d": DEFERRED_EXPR,
    "hot": STACKED_EXPR,
    "extremes": MINMAX_EXPR,
}


def restore_matrix_views(recovery, maintainer):
    for name, expression in MATRIX_VIEWS.items():
        recovery.restore_view(maintainer, name, expression)


class TestCrashPointMatrix:
    """Every record boundary of a 50-commit log is a crash point.

    Generalizes the ad-hoc tail-truncation cases above: the log is
    written into a single segment, then for *each* record boundary a
    copy of the directory is truncated at exactly that boundary and
    recovered.  Recovery folds the surviving tail into one commit; it
    must reach the state the per-record oracle (``replay_records``, one
    commit per record) reaches after the same number of records — base
    relations and every view's stored contents byte-for-byte, the
    position and the transaction counter — at every one of the ~50
    crash points, not just the handful an ad-hoc test picks.  At each,
    the WAL writer opened from the recovery's own scan, as ``serve``
    opens it, must match a writer that scans the log again.
    """

    def test_recovery_at_every_record_boundary(self, tmp_path):
        from repro.engine.log import replay_records
        from repro.replication.recovery import decode_wal_record

        directory = str(tmp_path / "leader")
        os.makedirs(directory)
        db, durability, maintainer = make_leader(
            directory, segment_bytes=1 << 20
        )
        maintainer.define_view("hot", STACKED_EXPR)
        maintainer.define_view("extremes", MINMAX_EXPR)
        durability.checkpoint(maintainer)
        rng = random.Random(42)
        for _ in range(50):
            with db.transact() as txn:
                for _ in range(rng.randint(1, 3)):
                    name = rng.choice(["r", "s"])
                    row = (rng.randrange(8), rng.randrange(8))
                    if rng.random() < 0.7:
                        txn.insert(name, row)
                    else:
                        txn.delete(name, row)
        segments = segment_paths(directory)
        assert len(segments) == 1, "matrix assumes a single segment"
        _, segment = segments[0]
        with open(segment, "rb") as stream:
            payload = stream.read()
        boundaries = [0] + [
            index + 1 for index, byte in enumerate(payload) if byte == 0x0A
        ]
        records = list(WalReader(directory).records())
        assert len(boundaries) == len(records) + 1

        def state(database, views):
            views.quiesce()
            return (
                {
                    name: dict(database.relation(name).counts())
                    for name in database.relation_names()
                },
                {
                    name: dict(views.view(name).stored_contents().counts())
                    for name in MATRIX_VIEWS
                },
                database.last_sequence(),
                database.next_txn_id,
            )

        # The expected state after k records: the same boot and view
        # restore, then one commit per record.
        oracle = Recovery(directory)
        oracle_views = ViewMaintainer(oracle.database)
        restore_matrix_views(oracle, oracle_views)
        expected = [state(oracle.database, oracle_views)]
        for record in records:
            replay_records(
                oracle.database,
                [decode_wal_record(oracle.database, record)],
                preserve_txn_ids=True,
            )
            expected.append(state(oracle.database, oracle_views))

        checkpoint_sequence = oracle.checkpoint_sequence
        for k, offset in enumerate(boundaries):
            scratch = str(tmp_path / f"crash-{k}")
            shutil.copytree(directory, scratch)
            copied_segment = os.path.join(scratch, os.path.basename(segment))
            with open(copied_segment, "r+b") as stream:
                stream.truncate(offset)
            recovery, recovered = recover(scratch, restore_matrix_views)
            assert state(recovery.database, recovered) == expected[k], (
                f"crash at record boundary {k} diverged"
            )
            last = records[k - 1].sequence if k else checkpoint_sequence
            assert recovery.last_sequence == last
            # One folded commit: a view the net tail reached is current
            # as of the last record, any other as of the checkpoint.
            for name in ("v", "hot", "extremes"):
                seen = recovered.stats(name)["transactions_seen"]
                assert seen in (0, 1)
                assert recovered.view(name).last_refresh_sequence == (
                    last if seen else checkpoint_sequence
                )
            recovered.verify_all()
            own = str(tmp_path / f"own-{k}")
            assert assert_one_scan_matches_two(scratch, recovery, own) == last
            shutil.rmtree(scratch)
            shutil.rmtree(own)


class TestWriterHandover:
    """A writer opened from a recovery's scan reads no record again, and
    refuses whatever a writer scanning for itself would refuse."""

    def test_the_served_restart_decodes_each_record_once(self, tmp_path):
        from repro.cli import build_served_state

        directory = str(tmp_path)
        db, durability, _ = make_leader(directory)
        churn(db, 12)
        durability.close()
        with recording(CostRecorder()) as recorder:
            recovery, _, replayed, served = build_served_state(directory, [])
        served.close()
        assert replayed == 12
        assert recorder.get("wal_records_read") == 12
        assert served.position == recovery.last_sequence == 12

    def test_damage_below_an_unpruned_checkpoint_still_stops_serve(self, tmp_path):
        from repro.cli import run_serve

        directory = str(tmp_path / "leader")
        db, durability, maintainer = make_leader(directory, segment_bytes=200)
        churn(db, 12)
        durability.checkpoint(maintainer, prune=False)
        churn(db, 3, seed=1)
        durability.close()
        segments = segment_paths(directory)
        assert len(segments) > 2
        first = segments[0][1]
        with open(first, "rb") as stream:
            lines = stream.read().splitlines(keepends=True)
        assert len(lines) > 1
        lines[0] = lines[0][:10] + b"X" + lines[0][11:]  # valid records follow
        with open(first, "wb") as stream:
            stream.writelines(lines)
        own = str(tmp_path / "own")
        shutil.copytree(directory, own)
        with pytest.raises(WalCorruptionError) as scanned:
            WalWriter(own)
        # The replay reads only the segments above the checkpoint ...
        recovery = Recovery(directory)
        assert recovery.replay() == 3
        assert recovery.scan.skipped
        # ... so the writer opened from its scan reads the whole log.
        with pytest.raises(WalCorruptionError) as handed:
            WalWriter(directory, scan=recovery.scan)
        assert str(handed.value) == str(scanned.value)
        with pytest.raises(WalCorruptionError) as served:
            run_serve(directory, port=0, emit=lambda line: None)
        assert str(served.value) == str(scanned.value)

    def test_a_later_segment_with_no_intact_record_resumes_at_its_start(
        self, tmp_path
    ):
        # What a checkpoint's pruning can leave after a crash tore the
        # first record of a fresh segment: the segment's name is the
        # only trace of the sequences before it.
        directory = str(tmp_path)
        with WalWriter(directory, segment_bytes=1) as writer:
            for txn in range(1, 6):
                writer.append(txn, {})
        *older, (_, newest) = segment_paths(directory)
        for _, path in older:
            os.remove(path)
        with open(newest, "wb") as stream:
            stream.write(b'{"body":{"seq":5,')  # the torn first record
        scan = WalReader(directory)
        assert list(scan.records(after=4)) == []
        assert scan.last_intact == 4
        with WalWriter(directory, scan=scan) as writer:
            assert writer.last_sequence == 4
            assert writer.append(5, {}) == 5
        assert WalReader(directory).last_sequence() == 5

    def test_a_scan_that_did_not_finish_is_refused(self, tmp_path):
        directory = str(tmp_path / "log")
        with WalWriter(directory) as writer:
            writer.append(1, {})
            writer.append(2, {})
        unread = WalReader(directory)
        with pytest.raises(ReplicationError, match="not a finished scan"):
            WalWriter(directory, scan=unread)
        halfway = WalReader(directory)
        next(halfway.records())
        with pytest.raises(ReplicationError, match="not a finished scan"):
            WalWriter(directory, scan=halfway)
        other = str(tmp_path / "other")
        os.makedirs(other)
        elsewhere = WalReader(other)
        assert elsewhere.last_sequence() == 0
        with pytest.raises(ReplicationError, match="not a finished scan"):
            WalWriter(directory, scan=elsewhere)
        assert WalReader(directory).last_sequence() == 2
