"""The write-ahead delta log.

The paper's central result is that committed net-effect deltas are
sufficient to keep any materialized view current — which makes the
delta stream the natural unit of durability and replication, not just
of maintenance.  This module stores that stream on disk: an append-only
sequence of JSONL records, one per committed transaction, each carrying
``(sequence, txn_id, {relation: delta})`` with the deltas serialized in
the decoded-row form of :mod:`repro.engine.persistence`.

Format
------
Every record is one line of JSON::

    {"body": {"seq": 7, "txn": 12, "deltas": {...}}, "crc": 2833017299}

``crc`` is the CRC-32 of the canonical (sorted-key, no-whitespace) JSON
encoding of ``body``; deltas serialize rows in sorted order, so a given
record always produces identical bytes.  Records live in *segment*
files named ``wal-<first sequence>.jsonl``; a segment is closed and a
new one started once it exceeds the writer's ``segment_bytes``, which
keeps checkpoint-time pruning a matter of deleting whole files.

Failure model
-------------
A crash mid-append leaves a *torn tail*: the final line is incomplete
or fails its checksum.  Both :class:`WalReader` and :class:`WalWriter`
treat a damaged record with nothing valid after it as that torn tail —
the reader stops in front of it, the writer physically truncates it on
open.  A damaged record *followed by* valid data cannot be produced by
an append-only crash and raises :class:`WalCorruptionError` instead of
being silently skipped.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Iterator

from repro.engine.persistence import canonical_json
from repro.errors import ReplicationError
from repro.instrumentation import charge

#: Bumped on any incompatible record-format change.
WAL_FORMAT_VERSION = 1

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".jsonl"
#: Default rotation threshold — small enough that pruning bites in tests.
DEFAULT_SEGMENT_BYTES = 1 << 20


class WalCorruptionError(ReplicationError):
    """The log is damaged somewhere other than its torn tail."""


class TailDamage:
    """Where and why the log's torn tail starts."""

    __slots__ = ("path", "offset", "reason")

    def __init__(self, path: str, offset: int, reason: str) -> None:
        self.path = path
        self.offset = offset
        self.reason = reason

    def __repr__(self) -> str:
        return f"<TailDamage {os.path.basename(self.path)}@{self.offset}: {self.reason}>"


class WalRecord:
    """One committed transaction as shipped through the log."""

    __slots__ = ("sequence", "txn_id", "deltas_doc")

    def __init__(self, sequence: int, txn_id: int, deltas_doc: dict[str, Any]) -> None:
        self.sequence = sequence
        self.txn_id = txn_id
        #: Per-relation delta documents (see persistence.delta_to_document).
        self.deltas_doc = deltas_doc

    def __repr__(self) -> str:
        return (
            f"<WalRecord seq={self.sequence} txn={self.txn_id} "
            f"{sorted(self.deltas_doc)}>"
        )


# ----------------------------------------------------------------------
# Line codec
# ----------------------------------------------------------------------

def encode_record(sequence: int, txn_id: int, deltas_doc: dict[str, Any]) -> bytes:
    """Serialize one record to its checksummed JSONL line (with newline).

    The body is dumped once; its bytes are what the checksum covers and
    what the envelope carries.
    """
    body = canonical_json({"seq": sequence, "txn": txn_id, "deltas": deltas_doc})
    return b'{"body":%b,"crc":%d}\n' % (body, zlib.crc32(body))


def decode_line(raw: bytes) -> WalRecord | None:
    """Decode one line; ``None`` when it is damaged in any way."""
    try:
        doc = json.loads(raw.decode("utf-8"))
        body = doc["body"]
        crc = doc["crc"]
        sequence = body["seq"]
        txn_id = body["txn"]
        deltas_doc = body["deltas"]
    except (ValueError, KeyError, TypeError, UnicodeDecodeError):
        return None
    if not isinstance(sequence, int) or not isinstance(txn_id, int):
        return None
    if not isinstance(deltas_doc, dict):
        return None
    if zlib.crc32(canonical_json(body)) != crc:
        return None
    return WalRecord(sequence, txn_id, deltas_doc)


# ----------------------------------------------------------------------
# Segment bookkeeping
# ----------------------------------------------------------------------

def _segment_path(directory: str, first_sequence: int) -> str:
    return os.path.join(
        directory, f"{_SEGMENT_PREFIX}{first_sequence:016d}{_SEGMENT_SUFFIX}"
    )


def segment_paths(directory: str) -> list[tuple[int, str]]:
    """Sorted ``(first_sequence, path)`` pairs of the directory's segments."""
    segments = []
    for entry in os.listdir(directory):
        if not (entry.startswith(_SEGMENT_PREFIX) and entry.endswith(_SEGMENT_SUFFIX)):
            continue
        stem = entry[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
        try:
            first_sequence = int(stem)
        except ValueError:
            raise WalCorruptionError(
                f"unrecognized segment name {entry!r}"
            ) from None
        segments.append((first_sequence, os.path.join(directory, entry)))
    segments.sort()
    return segments


def _segment_lines(path: str) -> Iterator[tuple[int, bytes]]:
    """Yield ``(byte_offset, line)`` for every (possibly empty) line."""
    with open(path, "rb") as stream:
        data = stream.read()
    pos = 0
    while pos < len(data):
        newline = data.find(b"\n", pos)
        if newline == -1:
            yield pos, data[pos:]
            return
        yield pos, data[pos:newline]
        pos = newline + 1


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------

class WalReader:
    """Sequential, re-scannable access to a WAL directory.

    ``records()`` re-opens the segments on every call, so a long-lived
    reader observes appends made after it was constructed — this is the
    polling loop of :class:`repro.replication.follower.Follower`.  After
    an iteration finishes, :attr:`tail_damage` reports the torn tail it
    stopped in front of, if any.
    """

    def __init__(self, directory: str) -> None:
        if not os.path.isdir(directory):
            raise ReplicationError(f"WAL directory {directory!r} does not exist")
        self.directory = directory
        #: Set by the most recent full ``records()`` iteration.
        self.tail_damage: TailDamage | None = None

    def records(self, after: int = 0) -> Iterator[WalRecord]:
        """Yield records with ``sequence > after``, in sequence order."""
        self.tail_damage = None
        segments = segment_paths(self.directory)
        expected: int | None = None
        for index, (first_sequence, path) in enumerate(segments):
            if expected is None:
                expected = first_sequence
            elif first_sequence != expected:
                raise WalCorruptionError(
                    f"segment {os.path.basename(path)} starts at sequence "
                    f"{first_sequence}, expected {expected}"
                )
            # Whole segments below the cursor can be skipped without
            # parsing: the next segment's name bounds their contents.
            if index + 1 < len(segments) and segments[index + 1][0] <= after + 1:
                expected = segments[index + 1][0]
                continue
            lines = list(_segment_lines(path))
            for line_index, (offset, raw) in enumerate(lines):
                if not raw:
                    continue  # blank line (trailing newline artifact)
                record = decode_line(raw)
                if record is None:
                    tail = index == len(segments) - 1 and not any(
                        later and decode_line(later) is not None
                        for _, later in lines[line_index + 1:]
                    )
                    if tail:
                        self.tail_damage = TailDamage(
                            path, offset, "undecodable or checksum-mismatched record"
                        )
                        return
                    raise WalCorruptionError(
                        f"damaged record at {os.path.basename(path)} offset "
                        f"{offset} with valid records after it"
                    )
                if record.sequence != expected:
                    raise WalCorruptionError(
                        f"record at {os.path.basename(path)} offset {offset} "
                        f"has sequence {record.sequence}, expected {expected}"
                    )
                expected += 1
                if record.sequence > after:
                    charge("wal_records_read")
                    yield record

    def last_sequence(self) -> int:
        """Sequence of the newest intact record (0 when the log is empty)."""
        last = 0
        for record in self.records():
            last = record.sequence
        return last

    def __repr__(self) -> str:
        return f"<WalReader {self.directory!r}>"


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------

class WalIO:
    """The writer's narrow OS seam: open, write, fsync, truncate.

    Everything :class:`WalWriter` does to the filesystem goes through
    one of these, so a test harness can substitute a fault-injecting
    subclass (see ``repro.simulation.faults.FaultyWalIO``) that models
    lost fsyncs and torn tail writes without touching the writer's
    logic.  Production code never needs to pass one.
    """

    def open_append(self, path: str):
        """Open ``path`` for appending, positioned at its current end."""
        return open(path, "ab")

    def write(self, stream, data: bytes) -> None:
        """Append ``data`` and push it to the OS (flush, not fsync)."""
        stream.write(data)
        stream.flush()

    def fsync(self, stream) -> None:
        """Ask the OS to make everything written so far durable."""
        os.fsync(stream.fileno())

    def close(self, stream) -> None:
        stream.close()

    def truncate(self, path: str, offset: int) -> None:
        """Cut ``path`` at ``offset`` durably (torn-tail cleanup)."""
        with open(path, "r+b") as stream:
            stream.truncate(offset)
            stream.flush()
            os.fsync(stream.fileno())


class WalWriter:
    """Appends checksummed records, rotating and fsyncing as configured.

    Parameters
    ----------
    directory:
        Created if missing.  Existing segments are scanned on open: the
        writer resumes after the last intact record and *truncates* a
        torn tail left by a crash (damage that is not a torn tail
        raises :class:`WalCorruptionError` — see the module docstring).
    segment_bytes:
        Rotation threshold.  A record always lands wholly in one
        segment; rotation happens when the current segment has reached
        the threshold before the append.
    sync:
        ``"commit"`` (default) fsyncs after every append — the
        durability guarantee; ``"close"`` fsyncs only on rotation and
        close; ``"never"`` leaves flushing to the OS (benchmarking).
    io:
        The :class:`WalIO` implementation carrying all filesystem
        operations (default: the real one).
    """

    _SYNC_MODES = ("commit", "close", "never")

    def __init__(
        self,
        directory: str,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        sync: str = "commit",
        io: WalIO | None = None,
    ) -> None:
        if sync not in self._SYNC_MODES:
            raise ReplicationError(
                f"unknown sync mode {sync!r}; expected one of {self._SYNC_MODES}"
            )
        if segment_bytes <= 0:
            raise ReplicationError("segment_bytes must be positive")
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.sync = sync
        self._io = io if io is not None else WalIO()
        self._stream = None
        self._segment_size = 0
        self._last_sequence = self._recover_tail()

    # ------------------------------------------------------------------
    # Open-time tail recovery
    # ------------------------------------------------------------------
    def _recover_tail(self) -> int:
        """Find the last intact sequence; truncate a torn tail in place."""
        reader = WalReader(self.directory)
        last = 0
        for record in reader.records():
            last = record.sequence
        damage = reader.tail_damage
        if damage is not None:
            self._io.truncate(damage.path, damage.offset)
        return last

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    @property
    def last_sequence(self) -> int:
        """Sequence of the last appended (or recovered) record."""
        return self._last_sequence

    def append(self, txn_id: int, deltas_doc: dict[str, Any]) -> int:
        """Append one committed transaction; returns its sequence."""
        sequence = self._last_sequence + 1
        line = encode_record(sequence, txn_id, deltas_doc)
        stream = self._stream_for(sequence)
        self._io.write(stream, line)
        if self.sync == "commit":
            self._io.fsync(stream)
            charge("wal_fsyncs")
        self._segment_size += len(line)
        self._last_sequence = sequence
        charge("wal_records_appended")
        charge("wal_bytes_written", len(line))
        return sequence

    def _stream_for(self, sequence: int):
        if self._stream is not None and self._segment_size >= self.segment_bytes:
            self._close_stream()
            charge("wal_segments_rotated")
        if self._stream is None:
            segments = segment_paths(self.directory)
            if segments and os.path.getsize(segments[-1][1]) < self.segment_bytes:
                path = segments[-1][1]
            else:
                path = _segment_path(self.directory, sequence)
            self._stream = self._io.open_append(path)
            self._segment_size = self._stream.tell()
            if self._segment_size and not self._ends_with_newline(path):
                # A crash can shear exactly the terminating newline off
                # the final record while leaving its JSON intact — the
                # reader still decodes it, so tail recovery keeps it.
                # Appending straight after it would weld two records
                # onto one line; restore the terminator first.
                self._io.write(self._stream, b"\n")
                self._segment_size += 1
        return self._stream

    @staticmethod
    def _ends_with_newline(path: str) -> bool:
        with open(path, "rb") as probe:
            probe.seek(-1, os.SEEK_END)
            return probe.read(1) == b"\n"

    def _close_stream(self) -> None:
        if self._stream is None:
            return
        self._stream.flush()
        if self.sync != "never":
            self._io.fsync(self._stream)
            charge("wal_fsyncs")
        self._io.close(self._stream)
        self._stream = None
        self._segment_size = 0

    def sync_now(self) -> None:
        """Force an fsync of the open segment regardless of sync mode."""
        if self._stream is not None:
            self._stream.flush()
            self._io.fsync(self._stream)
            charge("wal_fsyncs")

    # ------------------------------------------------------------------
    # Pruning
    # ------------------------------------------------------------------
    def prune_through(self, sequence: int) -> int:
        """Delete segments wholly covered by a checkpoint at ``sequence``.

        A segment may go once every record in it has sequence
        ``<= sequence`` *and* it is not the newest segment (the active
        one the writer appends to).  Returns the number of files
        removed.
        """
        segments = segment_paths(self.directory)
        removed = 0
        for index in range(len(segments) - 1):
            next_first = segments[index + 1][0]
            if next_first - 1 <= sequence:
                os.remove(segments[index][1])
                removed += 1
            else:
                break
        return removed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush, fsync (unless ``sync="never"``) and release the segment."""
        self._close_stream()

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<WalWriter {self.directory!r} last_seq={self._last_sequence} "
            f"sync={self.sync}>"
        )
