"""Tests for the network view-server (repro.server).

Covers the wire protocol codecs, the changefeed retention window, the
end-to-end serve path (txn through the normal commit pipeline, query
answered byte-for-byte from stored view contents, subscription events),
concurrent client load, fan-out equivalence with a direct Follower,
backpressure (slow-subscriber disconnect), admission control and
graceful shutdown.
"""

from __future__ import annotations

import asyncio
import io
import json
import random
import socket
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import BaseRef
from repro.core.maintainer import ViewMaintainer
from repro.engine.database import Database
from repro.engine.persistence import delta_to_document, relation_to_document
from repro.instrumentation import CostRecorder
from repro.replication.durability import DurabilityManager
from repro.replication.follower import Follower
from repro.replication.recovery import recover
from repro.server import (
    ServerConfig,
    ServerError,
    ServerHandle,
    ViewClient,
    ViewServer,
    protocol,
)
from repro.server.protocol import ProtocolError
from repro.server.server import Changefeed
from repro.server.session import Session

HOT = BaseRef("r").join(BaseRef("s")).select("C > 4").project(["A", "C"])


def make_database():
    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 10), (2, 20)])
    db.create_relation("s", ["B", "C"], [(10, 5), (20, 6)])
    return db


@pytest.fixture
def served():
    """A running server over (r ⋈ s) with view ``hot``; yields a bundle."""
    db = make_database()
    maintainer = ViewMaintainer(db)
    maintainer.define_view("hot", HOT)
    server = ViewServer(db, maintainer, ServerConfig())
    with ServerHandle(server) as handle:
        yield handle, server, db, maintainer


def connect(handle, **kwargs) -> ViewClient:
    return ViewClient(port=handle.port, timeout=10.0, **kwargs)


# ----------------------------------------------------------------------
# Protocol codecs
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_roundtrip(self):
        doc = {"id": 1, "op": "ping", "nested": {"a": [1, 2]}}
        framed = protocol.encode_frame(doc)
        stream = io.BytesIO(framed)
        assert protocol.read_frame_blocking(stream, 1 << 20) == doc

    def test_clean_eof_returns_none(self):
        assert protocol.read_frame_blocking(io.BytesIO(b""), 1 << 20) is None

    def test_truncated_header(self):
        with pytest.raises(ProtocolError) as exc:
            protocol.read_frame_blocking(io.BytesIO(b"\x00\x00"), 1 << 20)
        assert exc.value.code == protocol.E_BAD_FRAME

    def test_truncated_payload(self):
        framed = protocol.encode_frame({"id": 1})[:-2]
        with pytest.raises(ProtocolError):
            protocol.read_frame_blocking(io.BytesIO(framed), 1 << 20)

    def test_oversized_frame_rejected(self):
        framed = protocol.encode_frame({"id": 1, "blob": "x" * 100})
        with pytest.raises(ProtocolError) as exc:
            protocol.read_frame_blocking(io.BytesIO(framed), 16)
        assert exc.value.code == protocol.E_BAD_FRAME

    def test_non_json_payload(self):
        with pytest.raises(ProtocolError):
            protocol.decode_payload(b"\xff\xfe not json")

    def test_non_object_payload(self):
        with pytest.raises(ProtocolError):
            protocol.decode_payload(b"[1, 2, 3]")

    def test_request_field_missing_required(self):
        with pytest.raises(ProtocolError) as exc:
            protocol.request_field({"op": "query"}, "target", str)
        assert exc.value.code == protocol.E_BAD_REQUEST

    def test_request_field_wrong_type(self):
        with pytest.raises(ProtocolError):
            protocol.request_field({"target": 7}, "target", str)

    def test_request_field_bool_is_not_int(self):
        with pytest.raises(ProtocolError):
            protocol.request_field({"from": True}, "from", int)

    def test_request_field_optional_absent(self):
        assert protocol.request_field({}, "where", str, required=False) is None


# ----------------------------------------------------------------------
# Framing properties
# ----------------------------------------------------------------------

#: JSON documents of the shape the protocol actually carries: string
#: keys, scalar/list/object values, small enough to frame thousands of
#: examples quickly.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
json_documents = st.dictionaries(st.text(max_size=6), _json_values, max_size=4)


class _ChoppyStream:
    """A binary stream that serves reads in adversarial chunk sizes.

    Models a TCP receiver seeing arbitrary segmentation: each ``read``
    returns between 1 byte and the full request, decided by ``rng``.
    """

    def __init__(self, data: bytes, rng) -> None:
        self._data = data
        self._pos = 0
        self._rng = rng

    def read(self, count: int) -> bytes:
        if self._pos >= len(self._data):
            return b""
        step = self._rng.randint(1, max(1, count))
        chunk = self._data[self._pos : self._pos + min(step, count)]
        self._pos += len(chunk)
        return chunk


def _drain_blocking(stream, max_frame_bytes=1 << 20):
    """Read frames to EOF; (outcome, docs-recovered-before-it)."""
    out = []
    try:
        while (doc := protocol.read_frame_blocking(stream, max_frame_bytes)) is not None:
            out.append(doc)
        return ("eof", out)
    except ProtocolError as exc:
        return (exc.code, out)


def _drain_split(data: bytes, rng, max_frame_bytes=1 << 20):
    """Same contract as :func:`_drain_blocking`, via the server's
    incremental splitter fed ``data`` in ``_ChoppyStream`` chunks."""
    stream = _ChoppyStream(data, rng)
    buffer = bytearray()
    out = []
    try:
        while chunk := stream.read(len(data)):
            buffer += chunk
            for payload in protocol.split_frames(buffer, max_frame_bytes):
                out.append(protocol.decode_payload(payload))
        protocol.check_stream_end(buffer)
        return ("eof", out)
    except ProtocolError as exc:
        return (exc.code, out)


class TestFramingProperties:
    """Property tests for the length-prefixed frame codec."""

    @given(
        docs=st.lists(json_documents, min_size=1, max_size=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_survives_split_and_coalesced_reads(self, docs, seed):
        """Any segmentation of the byte stream recovers the documents.

        The frames are coalesced into one buffer and served back in
        random chunk sizes — both halves of the TCP reality: several
        frames may arrive in one read, one frame across many.
        """
        blob = b"".join(protocol.encode_frame(doc) for doc in docs)
        stream = _ChoppyStream(blob, random.Random(seed))
        assert _drain_blocking(stream) == ("eof", docs)
        assert _drain_split(blob, random.Random(seed)) == ("eof", docs)

    @given(doc=json_documents)
    @settings(max_examples=40, deadline=None)
    def test_oversized_frame_rejected_at_declared_length(self, doc):
        """A limit one byte under the payload rejects before decoding."""
        framed = protocol.encode_frame(doc)
        payload_length = len(framed) - protocol.HEADER_BYTES
        with pytest.raises(ProtocolError) as exc:
            protocol.read_frame_blocking(io.BytesIO(framed), payload_length - 1)
        assert exc.value.code == protocol.E_BAD_FRAME
        assert protocol.read_frame_blocking(io.BytesIO(framed), payload_length) == doc
        # The splitter refuses on the header alone, payload unread.
        with pytest.raises(ProtocolError) as exc:
            next(protocol.split_frames(bytearray(framed[:4]), payload_length - 1))
        assert exc.value.code == protocol.E_BAD_FRAME

    @given(
        docs=st.lists(json_documents, min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_truncation_yields_clean_prefix_or_error(self, docs, data):
        """A cut anywhere yields a document prefix, never a wrong doc.

        Truncation at a frame boundary reads as clean EOF; anywhere
        else raises ``E_BAD_FRAME`` — and in both cases every document
        recovered before the cut is exact and the last (cut) frame is
        never delivered.
        """
        blob = b"".join(protocol.encode_frame(doc) for doc in docs)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        outcome, recovered = _drain_blocking(io.BytesIO(blob[:cut]))
        assert outcome in ("eof", protocol.E_BAD_FRAME)
        assert recovered == docs[: len(recovered)]
        assert len(recovered) < len(docs)
        boundaries = set()
        offset = 0
        for doc in docs:
            boundaries.add(offset)
            offset += len(protocol.encode_frame(doc))
        assert (outcome == "eof") == (cut in boundaries)

    @given(
        docs=st.lists(json_documents, min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        limit=st.just(1 << 20) | st.integers(min_value=0, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_splitter_agrees_with_blocking(self, docs, seed, limit):
        """The server's splitter and the client's blocking reader
        classify every prefix of a stream identically, whatever the
        chunking and the frame-size limit."""
        blob = b"".join(protocol.encode_frame(doc) for doc in docs)
        rng = random.Random(seed)
        for cut in range(len(blob) + 1):
            prefix = blob[:cut]
            assert _drain_split(prefix, rng, limit) == _drain_blocking(
                io.BytesIO(prefix), limit
            )


# ----------------------------------------------------------------------
# One dump per delta, unchanged bytes
# ----------------------------------------------------------------------
def whole_document_frame(doc) -> bytes:
    """The frame encoder up to PR 22: every document dumped whole."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return len(payload).to_bytes(4, "big") + payload


class TestEncodeOnce:
    @given(
        view=st.text(max_size=12),
        subscription=st.integers(0, 2**40),
        sequence=st.integers(0, 2**70),
        delta=json_documents,
    )
    @example(view='hot "\\ é☃\u2028', subscription=3, sequence=42,
             delta={"inserted": [[3, "a\"b"]], "deleted": []})
    @settings(max_examples=150, deadline=None)
    def test_spliced_event_frame_is_the_whole_document_frame(
        self, view, subscription, sequence, delta
    ):
        doc = protocol.delta_event(subscription, view, sequence, delta)
        expected = whole_document_frame(doc)
        assert protocol.encode_frame(doc) == expected
        # Live and replayed events both come out of the feed's one dump.
        feed = Changefeed(view, base_sequence=sequence - 1, capacity=2)
        live = []
        feed.listeners.append(lambda f, head: live.append(head))
        feed.append(sequence, delta)
        [(replayed_sequence, replayed)] = feed.since(sequence - 1)
        assert replayed_sequence == sequence
        for head in (live[0], replayed):
            assert protocol.encode_event(head, subscription, feed.tail) == expected


# ----------------------------------------------------------------------
# Changefeed retention
# ----------------------------------------------------------------------
class TestChangefeed:
    def test_since_and_floor(self):
        feed = Changefeed("v", base_sequence=5, capacity=3)
        for seq in (6, 7, 8):
            feed.append(seq, {"seq": seq})
        assert [s for s, _ in feed.since(5)] == [6, 7, 8]
        assert [s for s, _ in feed.since(7)] == [8]
        assert feed.since(8) == []

    def test_eviction_advances_floor(self):
        feed = Changefeed("v", base_sequence=0, capacity=2)
        for seq in (1, 2, 3):
            feed.append(seq, {})
        assert feed.floor == 1
        with pytest.raises(ProtocolError) as exc:
            feed.since(0)
        assert exc.value.code == protocol.E_OFFSET_OUT_OF_RANGE
        assert [s for s, _ in feed.since(1)] == [2, 3]

    def test_resume_before_attach_is_out_of_range(self):
        feed = Changefeed("v", base_sequence=10, capacity=4)
        with pytest.raises(ProtocolError):
            feed.since(3)


# ----------------------------------------------------------------------
# End-to-end: the acceptance-criteria loop
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_ping(self, served):
        handle, server, db, maintainer = served
        with connect(handle) as client:
            result = client.ping()
        assert result["protocol"] == protocol.PROTOCOL_VERSION
        assert result["views"] == ["hot"]
        assert result["relations"] == ["r", "s"]

    def test_txn_subscribe_query_loop(self, served):
        handle, server, db, maintainer = served
        with connect(handle) as client:
            sub = client.subscribe("hot")
            result = client.txn(insert={"r": [(3, 10)], "s": [(30, 9)]})
            assert result["applied"]["r"]["inserted"] == 1
            assert result["seq"] == 1

            event = client.next_event(timeout=5)
            assert event is not None
            assert event["view"] == "hot"
            assert event["subscription"] == sub["subscription"]
            assert event["seq"] == 1
            assert event["delta"]["inserted"] == [[3, 5]]
            assert event["delta"]["deleted"] == []

            # The query answer is byte-for-byte the in-process view.
            answer = client.query("hot")
        stored = relation_to_document(maintainer.view("hot").contents)
        assert answer["rows"] == stored["rows"]
        assert answer["counts"] == stored["counts"]
        assert answer["seq"] == 1
        assert answer["kind"] == "view"

    def test_delete_flows_through(self, served):
        handle, server, db, maintainer = served
        with connect(handle) as client:
            client.subscribe("hot")
            client.txn(delete={"r": [(2, 20)]})
            event = client.next_event(timeout=5)
            assert event["delta"]["deleted"] == [[2, 6]]
            answer = client.query("hot")
        assert answer["rows"] == [[1, 5]]

    def test_query_relation(self, served):
        handle, *_ = served
        with connect(handle) as client:
            answer = client.query("r")
        assert answer["kind"] == "relation"
        assert answer["rows"] == [[1, 10], [2, 20]]
        assert answer["counts"] == [1, 1]

    def test_query_where_and_select(self, served):
        handle, *_ = served
        with connect(handle) as client:
            answer = client.query("r", where="B >= 20", select=["A"])
            assert answer["rows"] == [[2]]
            # Bag projection merges multiplicities.
            merged = client.query("hot", select=["C"])
        assert merged["attributes"] == ["C"]
        assert merged["rows"] == [[5], [6]]

    def test_query_limit_truncates(self, served):
        handle, *_ = served
        with connect(handle) as client:
            answer = client.query("r", limit=1)
        assert answer["rows"] == [[1, 10]]
        assert answer["truncated"] is True

    def test_projection_counts_merge(self, served):
        handle, *_ = served
        with connect(handle) as client:
            client.txn(insert={"r": [(3, 10)]})  # second A-row joining B=10
            merged = client.query("hot", select=["C"])
        assert merged["rows"] == [[5], [6]]
        assert merged["counts"] == [2, 1]

    def test_query_unknown_target(self, served):
        handle, *_ = served
        with connect(handle) as client:
            with pytest.raises(ServerError) as exc:
                client.query("nope")
        assert exc.value.code == protocol.E_UNKNOWN_TARGET

    def test_query_bad_condition(self, served):
        handle, *_ = served
        with connect(handle) as client:
            with pytest.raises(ServerError) as exc:
                client.query("r", where="A ~~ 3")
            assert exc.value.code == protocol.E_BAD_CONDITION
            with pytest.raises(ServerError) as exc:
                client.query("r", where="Z > 3")
            assert exc.value.code == protocol.E_BAD_CONDITION

    def test_query_bad_select(self, served):
        handle, *_ = served
        with connect(handle) as client:
            with pytest.raises(ServerError) as exc:
                client.query("r", select=["Z"])
        assert exc.value.code == protocol.E_BAD_REQUEST

    def test_txn_unknown_relation_fails_atomically(self, served):
        handle, server, db, maintainer = served
        # An unknown relation, a row of the wrong arity, and cells of
        # the wrong type: each a typed txn_failed, never the catch-all.
        hostile = (
            {"r": [(7, 10)], "zzz": [(1,)]},
            {"r": [(7, 10), (1, 2, 3)]},
            {"r": [(7, 10), (1, "x")]},
            {"r": [(7, 10), (1, [2])]},
            {"r": [(7, 10), (1, None)]},
            {"r": [(7, 10), (1, 2.5)]},
        )
        with connect(handle) as client:
            for insert in hostile:
                with pytest.raises(ServerError) as exc:
                    client.txn(insert=insert)
                assert exc.value.code == protocol.E_TXN_FAILED, insert
            answer = client.query("r")
            assert client.stats()["counters"]["server_txns_failed"] == len(hostile)
        # The whole batch aborted: the valid part did not land either.
        assert [7, 10] not in answer["rows"]

    def test_an_undone_commit_is_txn_failed_whatever_raised(self):
        db = make_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("hot", HOT)
        armed = []

        def hook(txn_id, deltas):
            if armed:
                raise OSError("injected disk failure")

        db.add_commit_hook(hook)
        server = ViewServer(db, maintainer, ServerConfig())
        with ServerHandle(server) as handle, connect(handle) as client:
            armed.append(True)
            with pytest.raises(ServerError) as exc:
                client.txn(insert={"r": [(7, 10)]})
            assert exc.value.code == protocol.E_TXN_FAILED
            assert "OSError: injected disk failure" in str(exc.value)
            armed.clear()
            assert [7, 10] not in client.query("r")["rows"]
            assert client.txn(insert={"r": [(7, 10)]})["seq"] == 1

    def test_a_quarantined_view_is_reported_and_refused(self, kernel_faults):
        db = make_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("hot", HOT)
        maintainer.define_view("all_r", BaseRef("r"))
        server = ViewServer(db, maintainer, ServerConfig())
        with ServerHandle(server) as handle, connect(handle) as client:
            kernel_faults.add("<codegen:hot:")
            reply = client.txn(insert={"r": [(7, 10)]})
            kernel_faults.clear()
            assert reply["quarantined"] == ["hot"]
            assert [7, 10] in client.query("all_r")["rows"]  # committed
            for call in (lambda: client.query("hot"), lambda: client.subscribe("hot")):
                with pytest.raises(ServerError) as exc:
                    call()
                assert exc.value.code == protocol.E_VIEW_QUARANTINED
            record = client.stats()["views"]["hot"]["maintenance"]["quarantined"]
            assert record == {
                "txn": reply["txn"], "seq": 1, "view": "hot", "error": "RuntimeError",
                "message": "injected fault in <codegen:hot:shape0>",
            }
            assert "quarantined" not in client.stats()["views"]["all_r"]["maintenance"]

    def test_txn_empty_rejected(self, served):
        handle, *_ = served
        with connect(handle) as client:
            with pytest.raises(ServerError) as exc:
                client.call("txn")
        assert exc.value.code == protocol.E_BAD_REQUEST

    def test_txn_malformed_batch(self, served):
        handle, *_ = served
        with connect(handle) as client:
            with pytest.raises(ServerError) as exc:
                client.call("txn", insert={"r": "not-a-list"})
        assert exc.value.code == protocol.E_BAD_REQUEST

    def test_unknown_op(self, served):
        handle, *_ = served
        with connect(handle) as client:
            with pytest.raises(ServerError) as exc:
                client.call("upsert")
        assert exc.value.code == protocol.E_UNKNOWN_OP

    def test_stats(self, served):
        handle, *_ = served
        with connect(handle) as client:
            client.txn(insert={"r": [(3, 10)]})
            client.query("hot")
            stats = client.stats()
        assert stats["views"]["hot"]["maintenance"]["transactions_seen"] == 1
        assert stats["views"]["hot"]["seq"] == 1
        assert stats["counters"]["server_txns_committed"] == 1
        assert stats["counters"]["server_requests"] >= 3
        assert stats["sessions"]["open"] == 1
        assert stats["plan_cache"]["plan_cache_hits"] >= 1
        assert stats["plan_cache"]["plan_cache_misses"] == 0
        assert stats["views"]["hot"]["maintenance"]["plan_cache_hits"] >= 1
        assert stats["counters"]["plan_cache_hits"] >= 1
        assert stats["codegen"]["codegen_plans_compiled"] >= 1
        assert stats["codegen"]["codegen_batch_rows"] >= 1
        assert stats["codegen"]["codegen_fallback_tuples"] == 0

    def test_subscribe_unknown_view(self, served):
        handle, *_ = served
        with connect(handle) as client:
            with pytest.raises(ServerError) as exc:
                client.subscribe("r")  # a relation, not a view
        assert exc.value.code == protocol.E_UNKNOWN_TARGET

    def test_unsubscribe_stops_events(self, served):
        handle, *_ = served
        with connect(handle) as client:
            sub = client.subscribe("hot")
            client.unsubscribe(sub["subscription"])
            client.txn(insert={"r": [(3, 10)]})
            assert client.next_event(timeout=0.3) is None

    def test_unsubscribe_unknown_id(self, served):
        handle, *_ = served
        with connect(handle) as client:
            with pytest.raises(ServerError) as exc:
                client.unsubscribe(99)
        assert exc.value.code == protocol.E_BAD_REQUEST

    def test_resume_from_offset(self, served):
        handle, *_ = served
        with connect(handle) as writer:
            writer.txn(insert={"r": [(3, 10)]})   # seq 1
            writer.txn(insert={"r": [(4, 20)]})   # seq 2
            with connect(handle) as late:
                sub = late.subscribe("hot", from_seq=0)
                assert sub["replayed"] == 2
                events = late.drain_events(2, timeout=5)
                assert [e["seq"] for e in events] == [1, 2]
                # And the stream continues live after catch-up.
                writer.txn(insert={"r": [(5, 10)]})
                live = late.next_event(timeout=5)
                assert live["seq"] == 3

    def test_resume_from_current_replays_nothing(self, served):
        handle, *_ = served
        with connect(handle) as client:
            client.txn(insert={"r": [(3, 10)]})
            sub = client.subscribe("hot", from_seq=1)
        assert sub["replayed"] == 0

    def test_resume_out_of_retention(self):
        db = make_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("hot", HOT)
        server = ViewServer(db, maintainer, ServerConfig(changefeed_history=2))
        with ServerHandle(server) as handle:
            with connect(handle) as client:
                for key in range(3, 8):
                    client.txn(insert={"r": [(key, 10)]})
                with pytest.raises(ServerError) as exc:
                    client.subscribe("hot", from_seq=0)
        assert exc.value.code == protocol.E_OFFSET_OUT_OF_RANGE

    def test_irrelevant_txn_emits_no_event(self, served):
        handle, *_ = served
        with connect(handle) as client:
            client.subscribe("hot")
            # C = 1 fails the view condition C > 4 for every join: the
            # irrelevance filter screens it and no view delta applies.
            client.txn(insert={"s": [(99, 1)]})
            assert client.next_event(timeout=0.3) is None


# ----------------------------------------------------------------------
# Concurrency: many clients against one view
# ----------------------------------------------------------------------
class TestConcurrentLoad:
    def test_interleaved_txn_and_query(self, served):
        handle, server, db, maintainer = served
        clients = 6
        txns_each = 10
        errors: list[BaseException] = []

        def worker(base: int) -> None:
            try:
                with connect(handle) as client:
                    for i in range(txns_each):
                        key = 1000 + base * txns_each + i
                        result = client.txn(insert={"r": [(key, 10)]})
                        assert result["applied"]["r"]["inserted"] == 1
                        answer = client.query("hot")
                        # Reads observe some consistent state at least as
                        # new as this client's own committed write.
                        assert answer["seq"] >= result["seq"]
                        assert [key, 5] in answer["rows"]
            except BaseException as exc:  # surfaced to the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors, errors

        # Every commit serialized: the final state equals the same
        # batches applied in-process, in any order (inserts commute).
        expected_db = make_database()
        expected_maintainer = ViewMaintainer(expected_db)
        expected_maintainer.define_view("hot", HOT)
        for base in range(clients):
            for i in range(txns_each):
                key = 1000 + base * txns_each + i
                with expected_db.transact() as txn:
                    txn.insert("r", (key, 10))
        with connect(handle) as client:
            answer = client.query("hot")
        expected = relation_to_document(expected_maintainer.view("hot").contents)
        assert answer["rows"] == expected["rows"]
        assert answer["counts"] == expected["counts"]
        assert db.last_sequence() == clients * txns_each

    def test_every_subscriber_sees_the_same_sequence(self, served):
        handle, *_ = served
        subscriber_count = 4
        txns = 6
        subscribers = [connect(handle) for _ in range(subscriber_count)]
        try:
            for client in subscribers:
                client.subscribe("hot")
            with connect(handle) as writer:
                for i in range(txns):
                    writer.txn(insert={"r": [(500 + i, 10)]})
            streams = [
                [
                    (e["seq"], e["delta"]["inserted"], e["delta"]["deleted"])
                    for e in client.drain_events(txns, timeout=5)
                ]
                for client in subscribers
            ]
        finally:
            for client in subscribers:
                client.close()
        assert all(len(stream) == txns for stream in streams)
        assert all(stream == streams[0] for stream in streams)


# ----------------------------------------------------------------------
# Fan-out equivalence with a direct WAL follower
# ----------------------------------------------------------------------
class TestFollowerEquivalence:
    def test_subscription_stream_matches_follower(self, tmp_path):
        directory = str(tmp_path / "durable")
        db = make_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("hot", HOT)
        durability = DurabilityManager(db, directory, sync="never")
        durability.checkpoint(maintainer)

        server = ViewServer(
            db, maintainer, ServerConfig(), durability=durability
        )
        with ServerHandle(server) as handle:
            with connect(handle) as subscriber, connect(handle) as writer:
                subscriber.subscribe("hot")
                for i in range(5):
                    writer.txn(insert={"r": [(700 + i, 10 if i % 2 else 20)]})
                events = subscriber.drain_events(5, timeout=5)
                wal_position = writer.stats()["wal_position"]
        durability.close()
        assert wal_position == 5

        served_stream = [(e["seq"], e["delta"]) for e in events]
        assert len(served_stream) == 5

        # An independent follower re-derives the same view from the
        # shipped deltas alone; its per-commit view deltas must be the
        # same sequence the server fanned out.
        follower = Follower(directory)
        follower_stream: list[tuple[int, dict]] = []
        follower.define_view("hot", HOT)
        follower.maintainer.subscribe(
            "hot",
            lambda view, delta: follower_stream.append(
                (view.last_refresh_sequence, delta_to_document(delta))
            ),
        )
        follower.poll()
        assert follower.position == 5
        assert follower_stream == served_stream
        # And the follower's view contents equal the leader's.
        assert (
            relation_to_document(follower.view("hot").contents)
            == relation_to_document(maintainer.view("hot").contents)
        )


class TestRestartedServer:
    def test_position_and_resume_after_an_empty_tail_recovery(self, tmp_path):
        """A server restarted from a checkpoint with nothing after it
        answers the checkpoint's sequence, and a subscriber resuming
        from before it is told so instead of silently missing deltas."""
        directory = str(tmp_path / "durable")
        db = make_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("hot", HOT)
        durability = DurabilityManager(db, directory, sync="never")
        for i in range(5):
            db.apply(inserts={"r": [(700 + i, 10)]})
        durability.checkpoint(maintainer)
        durability.close()

        recovery, recovered = recover(
            directory, lambda rec, fresh: rec.restore_view(fresh, "hot", HOT)
        )

        server = ViewServer(recovery.database, recovered, ServerConfig())
        with ServerHandle(server) as handle, connect(handle) as client:
            assert client.query("hot")["seq"] == 5
            with pytest.raises(ServerError) as exc:
                client.subscribe("hot", from_seq=2)
            assert exc.value.code == protocol.E_OFFSET_OUT_OF_RANGE
            sub = client.subscribe("hot", from_seq=5)
            assert (sub["seq"], sub["replayed"]) == (5, 0)
            assert client.txn(insert={"r": [(800, 10)]})["seq"] == 6
            assert client.next_event(timeout=5)["seq"] == 6


# ----------------------------------------------------------------------
# Backpressure: the slow-subscriber policy
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_slow_subscriber_is_disconnected_not_awaited(self):
        db = make_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("hot", HOT)
        # A tiny outbox so the overflow trips quickly once the socket
        # and transport buffers are saturated by large event frames.
        config = ServerConfig(outbox_frames=2, max_frame_bytes=4 << 20)
        server = ViewServer(db, maintainer, config)
        with ServerHandle(server) as handle:
            # Small kernel buffers (accepted sockets inherit the
            # listener's SO_SNDBUF) cap how many event bytes the OS
            # absorbs on the slow client's behalf, so the server-side
            # writer stalls — and the outbox overflows — after a
            # bounded number of events instead of megabytes of them.
            for sock in server._asyncio_server.sockets:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 16384)
            slow = ViewClient(port=handle.port, timeout=5.0, max_frame_bytes=4 << 20)
            slow._socket.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
            slow.subscribe("hot")
            # The slow client now simply stops reading.
            with connect(handle) as writer:
                batch = 3000
                disconnected = False
                for round_number in range(80):
                    rows = [
                        [1_000_000 + round_number * batch + i, 10]
                        for i in range(batch)
                    ]
                    writer.txn(insert={"r": rows})
                    if server.recorder.get("server_slow_consumer_disconnects"):
                        disconnected = True
                        break
                assert disconnected, "slow subscriber was never disconnected"
                # The server is not wedged: other sessions still serve.
                assert writer.ping()["protocol"] == protocol.PROTOCOL_VERSION
            # The slow consumer's connection is dead.
            with pytest.raises((ConnectionError, ServerError)):
                for _ in range(10_000):
                    slow.ping()
            slow.close()


# ----------------------------------------------------------------------
# One socket write per connection per commit
# ----------------------------------------------------------------------
class TestOneWritePerCommit:
    def test_a_commit_is_one_write_per_connection_it_reaches(self):
        db = make_database()
        maintainer = ViewMaintainer(db)
        # Defined out of name order: events must follow definition order.
        views = {
            "v_joined": HOT,
            "v_all": BaseRef("r").project(["A", "B"]),
            "v_big": BaseRef("r").select("A > 1").project(["A"]),
        }
        for name, expression in views.items():
            maintainer.define_view(name, expression)
        server = ViewServer(db, maintainer, ServerConfig())
        with ServerHandle(server) as handle:
            with connect(handle) as subscriber, connect(handle) as writer:
                for name in views:
                    subscriber.subscribe(name)
                assert writer.ping()
                subscribed, writing = sorted(
                    server._sessions.values(), key=lambda s: not s.subscriptions
                )
                assert subscribed.subscriptions and not writing.subscriptions
                before = (subscribed.writes, writing.writes)
                events = server.recorder.get("server_events_sent")
                # (7, 20) joins s's (20, 6): all three views change.
                seq = writer.txn(insert={"r": [(7, 20)]})["seq"]
                received = subscriber.drain_events(len(views), timeout=5)
                assert [e["view"] for e in received] == list(views)
                assert {e["seq"] for e in received} == {seq}
                assert server.recorder.get("server_events_sent") - events == len(views)
                # Three event frames left in one write, the response in
                # another — and nothing else, then or later.
                after = (before[0] + 1, before[1] + 1)
                assert (subscribed.writes, writing.writes) == after
                assert subscriber.next_event(timeout=0.2) is None
                assert (subscribed.writes, writing.writes) == after


# ----------------------------------------------------------------------
# Admission control and shutdown
# ----------------------------------------------------------------------
class TestAdmissionAndShutdown:
    def test_session_limit(self):
        db = make_database()
        maintainer = ViewMaintainer(db)
        server = ViewServer(db, maintainer, ServerConfig(max_sessions=1))
        with ServerHandle(server) as handle:
            with connect(handle) as first:
                assert first.ping()
                second = connect(handle)
                with pytest.raises(ServerError) as exc:
                    second.ping()
                assert exc.value.code == protocol.E_TOO_MANY_SESSIONS
                second.close()
                assert server.recorder.get("server_sessions_rejected") == 1
            # Releasing the first session frees the slot.
            for _ in range(100):
                if not server._sessions:
                    break
                time.sleep(0.05)
            with connect(handle) as third:
                assert third.ping()

    def test_graceful_shutdown_refuses_new_connections(self, served):
        handle, *_ = served
        with connect(handle) as client:
            assert client.txn(insert={"r": [(3, 10)]})["seq"] == 1
        handle.stop()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", handle.port), timeout=1)

    def test_oversized_request_frame_hangs_up(self, served):
        handle, server, *_ = served
        server.config.max_frame_bytes = 64
        with connect(handle) as client:
            with pytest.raises((ServerError, ConnectionError)):
                client.query("hot", where="A > 1000000 and B > 1000000")
                client.ping()

    def test_server_handle_reports_bind_failure(self):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        db = make_database()
        server = ViewServer(db, ViewMaintainer(db), ServerConfig(port=port))
        try:
            with pytest.raises(RuntimeError, match="failed to start"):
                ServerHandle(server).start()
        finally:
            blocker.close()


# ----------------------------------------------------------------------
# Session-level behavior (driven with a stub server)
# ----------------------------------------------------------------------
class _StubServer:
    """The slice of ViewServer a Session needs, with a pluggable handler."""

    def __init__(self, handler, **config_overrides):
        self.config = ServerConfig(**config_overrides)
        self.recorder = CostRecorder()
        self._handler = handler
        self.released = []

    async def dispatch(self, session, doc):
        return await self._handler(session, doc)

    def release_session(self, session):
        self.released.append(session.session_id)


async def _read_doc(reader, timeout=5.0):
    """The next frame's document from an asyncio stream; None at EOF."""
    try:
        header = await asyncio.wait_for(
            reader.readexactly(protocol.HEADER_BYTES), timeout
        )
    except asyncio.IncompleteReadError:
        return None
    payload = await asyncio.wait_for(
        reader.readexactly(int.from_bytes(header, "big")), timeout
    )
    return protocol.decode_payload(payload)


def _drive_session(stub, data, read_frames=1):
    """Run one Session over a real socket; returns received docs."""

    async def main():
        loop = asyncio.get_running_loop()
        server = await loop.create_server(lambda: Session(stub, 1), "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(data)
        await writer.drain()
        received = []
        for _ in range(read_frames):
            doc = await _read_doc(reader)
            if doc is None:
                break
            received.append(doc)
        writer.close()
        # EOF reaches the session asynchronously; wait for its release.
        deadline = loop.time() + 5.0
        while not stub.released and loop.time() < deadline:
            await asyncio.sleep(0.01)
        server.close()
        await server.wait_closed()
        return received

    return asyncio.run(main())


def _frames(*docs) -> bytes:
    return b"".join(protocol.encode_frame(doc) for doc in docs)


class TestSession:
    def test_framing_violation_answers_then_hangs_up(self):
        async def handler(session, doc):  # pragma: no cover - never reached
            return protocol.response_ok(doc.get("id"), {})

        stub = _StubServer(handler)
        # An absurd declared length, then one more read: the error, then EOF.
        received = _drive_session(stub, b"\x7f\xff\xff\xff", read_frames=2)
        assert len(received) == 1
        assert received[0]["ok"] is False
        assert received[0]["error"]["code"] == protocol.E_BAD_FRAME
        assert stub.released == [1]

    def test_frames_pending_when_the_drain_starts_are_delivered(self):
        """A response queued in the loop iteration a close begins in
        (not yet written: the flush is scheduled, the close gets there
        first) still reaches the client before the connection closes —
        what a shutdown's drain relies on."""

        async def handler(session, doc):
            # Scheduled ahead of the flush this response will schedule.
            asyncio.get_running_loop().call_soon(session.close)
            return protocol.response_ok(doc.get("id"), {"last": True})

        stub = _StubServer(handler)
        received = _drive_session(stub, _frames({"id": 4, "op": "ping"}), read_frames=2)
        assert received == [{"id": 4, "ok": True, "result": {"last": True}}]
        assert stub.released == [1]

    def test_session_releases_on_eof(self):
        async def handler(session, doc):
            return protocol.response_ok(doc.get("id"), {})

        stub = _StubServer(handler)
        _drive_session(stub, _frames({"id": 1, "op": "ping"}))
        assert stub.released == [1]

    def test_a_paused_transport_gets_the_backlog_in_one_write_on_resume(self):
        class Transport:
            def __init__(self):
                self.writes = []

            def write(self, data):
                self.writes.append(data)

        frames = [protocol.encode_frame({"n": n}) for n in range(3)]

        async def main():
            session = Session(_StubServer(None), 1)
            transport = Transport()
            session.connection_made(transport)
            session.pause_writing()
            for frame in frames:
                assert session.send_frame(frame)
            await asyncio.sleep(0)
            paused = list(transport.writes)
            session.resume_writing()
            await asyncio.sleep(0)
            return paused, transport.writes, session.writes

        paused, writes, count = asyncio.run(main())
        assert paused == []
        assert writes == [b"".join(frames)]
        assert count == 1

    def test_eof_mid_frame_is_a_bad_frame(self):
        async def handler(session, doc):
            return protocol.response_ok(doc.get("id"), {})

        stub = _StubServer(handler)

        async def main():
            loop = asyncio.get_running_loop()
            server = await loop.create_server(lambda: Session(stub, 1), "127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.sockets[0].getsockname()[1]
            )
            writer.write(_frames({"id": 1, "op": "ping"}) + b"\x00\x00\x00\x09{")
            writer.write_eof()
            docs = [await _read_doc(reader) for _ in range(3)]
            writer.close()
            server.close()
            await server.wait_closed()
            return docs

        answered, refused, eof = asyncio.run(main())
        assert answered == {"id": 1, "ok": True, "result": {}}
        assert refused["error"]["code"] == protocol.E_BAD_FRAME
        assert "mid-frame" in refused["error"]["message"]
        assert eof is None


# ----------------------------------------------------------------------
# Framing on a live connection
# ----------------------------------------------------------------------
def _raw_connection(handle) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", handle.port), timeout=5)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _read_responses(sock, count):
    """Exactly ``count`` frames, then proof that nothing else follows."""
    stream = sock.makefile("rb")
    docs = [protocol.read_frame_blocking(stream, 1 << 20) for _ in range(count)]
    sock.settimeout(0.2)
    with pytest.raises(socket.timeout):
        stream.read(1)
    return docs


class TestLiveFraming:
    def test_a_request_sent_one_byte_per_send_gets_one_response(self, served):
        handle, *_ = served
        with _raw_connection(handle) as sock:
            for byte in _frames({"id": 5, "op": "ping"}):
                sock.send(bytes([byte]))
                time.sleep(0.0005)
            (response,) = _read_responses(sock, 1)
        assert response["id"] == 5 and response["ok"] is True

    def test_three_requests_in_one_sendall_get_three_responses_in_order(self, served):
        handle, *_ = served
        with _raw_connection(handle) as sock:
            sock.sendall(
                _frames(
                    {"id": 1, "op": "txn", "insert": {"r": [[3, 10]]}},
                    {"id": 2, "op": "query", "target": "hot"},
                    {"id": 3, "op": "ping"},
                )
            )
            responses = _read_responses(sock, 3)
        assert [r["id"] for r in responses] == [1, 2, 3]
        assert all(r["ok"] for r in responses)
        # The query saw the transaction before it in the same segment.
        assert [3, 5] in responses[1]["result"]["rows"]

    def test_connecting_clients_adds_no_task(self, served):
        handle, server, *_ = served

        async def task_count():
            return len(asyncio.all_tasks())

        def tasks():
            return asyncio.run_coroutine_threadsafe(task_count(), handle._loop).result(5)

        before = tasks()
        clients = [connect(handle) for _ in range(8)]
        try:
            for client in clients:
                assert client.ping()
            assert len(server._sessions) == 8
            assert tasks() == before
        finally:
            for client in clients:
                client.close()
