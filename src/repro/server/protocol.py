"""The view-server wire protocol: length-prefixed JSON frames.

A connection is a bidirectional stream of *frames*.  Each frame is a
4-byte big-endian unsigned length followed by that many bytes of UTF-8
JSON encoding one object.  Three frame shapes exist (``docs/server.md``
is the normative description):

* **Request** (client → server)::

      {"id": 7, "op": "query", ...op parameters...}

  ``id`` is an arbitrary client-chosen integer echoed in the response;
  ``op`` is one of ``ping``, ``query``, ``txn``, ``subscribe``,
  ``unsubscribe``, ``stats``.

* **Response** (server → client)::

      {"id": 7, "ok": true,  "result": {...}}
      {"id": 7, "ok": false, "error": {"code": "...", "message": "..."}}

* **Event** (server → client, unsolicited — changefeed traffic)::

      {"event": "delta", "subscription": 3, "view": "hot",
       "seq": 42, "delta": {"inserted": [...], "deleted": [...]}}

Error codes are closed-vocabulary strings (the ``E_*`` constants);
clients switch on the code, never on the message.  The framing is
symmetric, so both the asyncio server and the blocking client share the
codecs in this module.
"""

from __future__ import annotations

import json
import struct
from typing import Any, BinaryIO

from repro.engine.persistence import canonical_json
from repro.errors import ReproError

#: Bumped on any incompatible frame- or document-shape change.
PROTOCOL_VERSION = 1

#: Default bound on a single frame's JSON payload.
DEFAULT_MAX_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct(">I")
HEADER_BYTES = _HEADER.size

# ----------------------------------------------------------------------
# Error codes (closed vocabulary; see docs/server.md)
# ----------------------------------------------------------------------

#: Frame violates the transport: oversized, truncated, or not JSON.
E_BAD_FRAME = "bad_frame"
#: Frame is JSON but not a well-formed request for its op.
E_BAD_REQUEST = "bad_request"
#: ``op`` is not in the protocol's vocabulary.
E_UNKNOWN_OP = "unknown_op"
#: ``query``/``subscribe`` target names no relation or view.
E_UNKNOWN_TARGET = "unknown_target"
#: A ``where`` condition failed to parse or reference the schema.
E_BAD_CONDITION = "bad_condition"
#: A ``txn`` was rejected; the transaction was not applied.
E_TXN_FAILED = "txn_failed"
#: ``subscribe --from`` position fell outside the retained window.
E_OFFSET_OUT_OF_RANGE = "offset_out_of_range"
#: Admission control: the server is at its session limit.
E_TOO_MANY_SESSIONS = "too_many_sessions"
#: The server is draining; no new work is accepted.
E_SHUTTING_DOWN = "shutting_down"
#: The request exceeded the server's per-request timeout.
E_TIMEOUT = "timeout"
#: A cluster transaction aborted because a shard stayed unreachable
#: past the coordinator's two-phase-commit timeout (retry is safe: the
#: abort is durable before the error is reported).
E_SHARD_UNAVAILABLE = "shard_unavailable"
#: The request raised an error the server did not classify.
E_INTERNAL = "internal"


class ProtocolError(ReproError):
    """A frame or document violated the wire protocol."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class ServerError(ReproError):
    """A request was answered with ``ok: false`` (client-side raise)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


# ----------------------------------------------------------------------
# Frame codecs
# ----------------------------------------------------------------------

def encode_frame(doc: dict[str, Any]) -> bytes:
    """Serialize one document to its framed wire form."""
    payload = canonical_json(doc)
    return _HEADER.pack(len(payload)) + payload


# An event frame is ``encode_frame(delta_event(...))`` byte for byte, but
# built without a pass over the delta per subscriber: with sorted keys the
# payload is a *head* (the delta — dumped once per view delta — and the
# sequence), the subscription id, and a *tail* (the view name, fixed per
# view).

def event_head(sequence: int, delta_doc: dict[str, Any]) -> bytes:
    """An event payload up to its subscription id: the one dump of a
    view delta, shared by every subscriber it will ever reach."""
    return b'{"delta":%b,"event":"delta","seq":%d,"subscription":' % (
        canonical_json(delta_doc),
        sequence,
    )


def event_tail(view_name: str) -> bytes:
    """What follows the subscription id in every event of one view."""
    return b',"view":%b}' % canonical_json(view_name)


def encode_event(head: bytes, subscription_id: int, tail: bytes) -> bytes:
    """One subscriber's framed event, spliced from the shared parts."""
    payload = b"%b%d%b" % (head, subscription_id, tail)
    return _HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict[str, Any]:
    """Decode a frame payload; raises :class:`ProtocolError` on damage."""
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(
            E_BAD_FRAME, f"frame payload is not JSON: {exc}"
        ) from exc
    if not isinstance(doc, dict):
        raise ProtocolError(E_BAD_FRAME, "frame payload must be a JSON object")
    return doc


def check_frame_length(length: int, max_frame_bytes: int) -> None:
    """Reject a declared payload length outside the admissible range."""
    if length > max_frame_bytes:
        raise ProtocolError(
            E_BAD_FRAME,
            f"frame of {length} bytes exceeds the {max_frame_bytes}-byte limit",
        )


async def read_frame_async(reader, max_frame_bytes: int) -> dict[str, Any] | None:
    """Read one frame from an asyncio stream reader.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`ProtocolError` for truncation mid-frame or an oversized or
    undecodable payload.
    """
    import asyncio

    try:
        header = await reader.readexactly(HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(E_BAD_FRAME, "connection closed mid-header") from exc
    (length,) = _HEADER.unpack(header)
    check_frame_length(length, max_frame_bytes)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(E_BAD_FRAME, "connection closed mid-frame") from exc
    return decode_payload(payload)


def read_frame_blocking(stream: BinaryIO, max_frame_bytes: int) -> dict[str, Any] | None:
    """Read one frame from a blocking binary stream (the client side).

    Same contract as :func:`read_frame_async`: ``None`` on clean EOF,
    :class:`ProtocolError` on truncation or damage.
    """
    header = _read_exact(stream, HEADER_BYTES)
    if header is None:
        return None
    if len(header) < HEADER_BYTES:
        raise ProtocolError(E_BAD_FRAME, "connection closed mid-header")
    (length,) = _HEADER.unpack(header)
    check_frame_length(length, max_frame_bytes)
    payload = _read_exact(stream, length)
    if payload is None or len(payload) < length:
        raise ProtocolError(E_BAD_FRAME, "connection closed mid-frame")
    return decode_payload(payload)


def _read_exact(stream: BinaryIO, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; ``None`` on immediate EOF."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    if not chunks and count:
        return None
    return b"".join(chunks)


# ----------------------------------------------------------------------
# Document constructors (shared shapes)
# ----------------------------------------------------------------------

def response_ok(request_id: Any, result: dict[str, Any]) -> dict[str, Any]:
    """A successful response document."""
    return {"id": request_id, "ok": True, "result": result}


def response_error(request_id: Any, code: str, message: str) -> dict[str, Any]:
    """A failed response document."""
    return {"id": request_id, "ok": False, "error": {"code": code, "message": message}}


def delta_event(
    subscription_id: int, view_name: str, sequence: int, delta_doc: dict[str, Any]
) -> dict[str, Any]:
    """A changefeed event document (the shape :func:`encode_event` splices)."""
    return {
        "event": "delta",
        "subscription": subscription_id,
        "view": view_name,
        "seq": sequence,
        "delta": delta_doc,
    }


def request_field(doc: dict[str, Any], name: str, kind: type, required: bool = True):
    """Extract and type-check one request parameter.

    Raises :class:`ProtocolError` (``bad_request``) when a required
    field is absent or a present field has the wrong JSON type.
    Returns ``None`` for an absent optional field.
    """
    value = doc.get(name)
    if value is None:
        if required:
            raise ProtocolError(E_BAD_REQUEST, f"request is missing {name!r}")
        return None
    # bool is an int subclass; reject it where an int is expected.
    if kind is int and isinstance(value, bool):
        raise ProtocolError(E_BAD_REQUEST, f"{name!r} must be an integer")
    if not isinstance(value, kind):
        raise ProtocolError(
            E_BAD_REQUEST, f"{name!r} must be of JSON type {kind.__name__}"
        )
    return value
