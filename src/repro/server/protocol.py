"""Length-prefixed framing for the query service.

One frame is a 5-byte header — one byte of frame type, four bytes of
big-endian payload length — followed by the payload::

    +------+----------------+=================+
    | type | payload length |     payload     |
    | (1B) |   (4B, BE)     | (length bytes)  |
    +------+----------------+=================+

Textual payloads (queries, XML chunks, results, error messages, JSON
stats) are UTF-8.  The same encoding serves three transports: the
asyncio server (:func:`read_frame`), the blocking client
(:func:`read_frame_blocking`) and anything byte-at-a-time
(:class:`FrameDecoder`), so the tests can drive each against the
others.

Conversation shape (client frames on the left, server on the right)::

    OPEN(query)       ->
                      <-  OPENED(session id)   | BUSY(reason) | ERROR(msg)
    CHUNK(xml)*       ->
                      <-  RESULT(output part)*     (streamed as produced)
    FINISH()          ->
                      <-  RESULT(output part)*
                      <-  FINISH(session stats JSON)  | ERROR(msg)
    STATS()           ->
                      <-  STATS(metrics JSON)

The STATS payload is one server's metrics snapshot — except against a
worker pool (``gcx serve --workers N``, DESIGN.md §14), where the
answering worker returns the fleet-aggregated shape instead:
``{"fleet": {...}, "totals": {...}, "per_worker": [...]}`` — totals
summed (peaks/percentiles as maxima) across every worker plus the
per-worker breakdown, whichever worker the connection landed on.

Shared streams (DESIGN.md §13) replace OPEN with a pub/sub pair: any
number of subscriber connections attach queries to a *named* stream,
then one publisher connection feeds the document once and every
subscriber receives its own results — one lex+project pass serving
all of them::

    SUBSCRIBE("name\n" + query)  ->
                      <-  OPENED(subscriber id) | BUSY(reason) | ERROR(msg)
                      ...            (the publisher's stream runs) ...
                      <-  RESULT(output part)*     (this query's results)
                      <-  FINISH(session stats JSON)  | ERROR(msg)

    PUBLISH(name)     ->
                      <-  OPENED(stream name) | BUSY(reason) | ERROR(msg)
    CHUNK(xml)*       ->          (first CHUNK seals the subscriber set)
    FINISH()          ->
                      <-  FINISH(stream summary JSON)  | ERROR(msg)

A failed SUBSCRIBE or PUBLISH behaves exactly like a failed OPEN: the
server answers ERROR or BUSY and *drains* that conversation's
pipelined CHUNK/FINISH frames, so the connection stays usable.

Results stream: RESULT frames may arrive any time after OPENED — the
server emits output fragments while the client is still sending CHUNK
frames — so a client that interleaves other requests (e.g. STATS) on a
connection with a session in flight must be prepared to see RESULT
frames first.  The blocking :class:`~repro.server.client.GCXClient`
handles this by draining inbound frames into an ordered queue while it
sends (so pipelining can never wedge against the stream) and consuming
them in ``finish()`` — or earlier via ``recv_result()``.

Checkpoint/resume (DESIGN.md §16): a CHECKPOINT frame *before* OPEN
marks the next session checkpointable (it runs the same pipeline as
any other session: every tier is freeze-safe);
a CHECKPOINT frame *during* the session freezes it,
drains the produced output, and answers with one SNAPSHOT frame whose
payload is ``SNAPSHOT_OFFSETS`` (input offset = document bytes
consumed, output offset = result bytes already sent on this
connection) followed by the versioned snapshot blob.  Because frames
are ordered, by the time the client reads the SNAPSHOT it has read
exactly ``output offset`` result bytes — the pair is the replay
point.  The server may also emit SNAPSHOT unsolicited, either on a
configured byte interval (``gcx serve --checkpoint-interval``) or when
a draining worker pushes state out before shutting down.  RESUME
carries a previously received blob and behaves exactly like OPEN
(OPENED / BUSY / ERROR), rebuilding the session — on any worker, in
any process — at the checkpointed offsets::

    CHECKPOINT()      ->                       (empty: arm checkpointing)
    OPEN(query)       ->
                      <-  OPENED(session id)
    CHUNK(xml)*       ->
                      <-  RESULT(output part)*
    CHECKPOINT()      ->
                      <-  RESULT(output part)*   (the drained tail)
                      <-  SNAPSHOT(offsets + blob)
    ...                                        (connection dies) ...
    RESUME(blob)      ->                       (fresh connection/worker)
                      <-  OPENED(session id)
    CHUNK(xml)*       ->                       (replay from input offset)
    FINISH()          ->
                      <-  RESULT(output part)*
                      <-  FINISH(session stats JSON)

A BUSY or a query ERROR (compile failure, malformed XML, evaluation
error) leaves the connection usable: the client may OPEN again
(overload is refusal, never queueing — DESIGN.md §8).  Two failure
classes close the connection instead: framing-level
:class:`ProtocolError` cases, because byte streams cannot resynchronise
after a corrupt header, and protocol-state violations (OPEN while a
session is active, CHUNK/FINISH before any OPEN), because they mean
the client's view of the conversation has diverged from the server's.
"""

from __future__ import annotations

import enum
import struct
from typing import NamedTuple

#: default TCP port of the service (``gcx serve`` / ``gcx stats``)
DEFAULT_PORT = 7733

#: frame header: type byte + big-endian payload length
HEADER = struct.Struct(">BI")

#: refuse frames larger than this (a corrupt header otherwise asks the
#: reader to allocate gigabytes)
MAX_PAYLOAD = 64 * 1024 * 1024

#: prefix of every SNAPSHOT payload: input offset (bytes of the
#: document fed before the checkpoint) and output offset (bytes of
#: result already sent on this connection), both big-endian u64; the
#: versioned snapshot blob (DESIGN.md §16) follows
SNAPSHOT_OFFSETS = struct.Struct(">QQ")


class ProtocolError(ValueError):
    """The byte stream is not a well-formed frame sequence."""


class FrameType(enum.IntEnum):
    """Wire identifiers of the frame kinds."""

    OPEN = 1  # client: start a session; payload = query text
    CHUNK = 2  # client: next XML input chunk
    FINISH = 3  # client: end of input / server: end of results (+stats)
    RESULT = 4  # server: one part of the serialized output
    ERROR = 5  # server: evaluation or protocol failure, one line
    BUSY = 6  # server: admission refused, retry later
    STATS = 7  # client: request metrics / server: metrics JSON
    OPENED = 8  # server: session admitted; payload = session id
    SUBSCRIBE = 9  # client: attach a query to a shared stream;
    #                payload = "stream name\n" + query text
    PUBLISH = 10  # client: feed a shared stream; payload = stream name
    CHECKPOINT = 11  # client: before OPEN (empty payload) — open the
    #                  next session checkpointable; during a session —
    #                  snapshot it now (DESIGN.md §16)
    SNAPSHOT = 12  # server: one session checkpoint; payload =
    #                SNAPSHOT_OFFSETS(input offset, output offset) +
    #                the versioned snapshot blob
    RESUME = 13  # client: rebuild a session from a snapshot blob;
    #              payload = the blob; answered like OPEN (OPENED/BUSY)


class Frame(NamedTuple):
    """One decoded frame."""

    type: FrameType
    payload: bytes

    @property
    def text(self) -> str:
        """The payload decoded as UTF-8."""
        return self.payload.decode("utf-8")


def _check_header(type_byte: int, length: int, max_payload: int) -> FrameType:
    try:
        ftype = FrameType(type_byte)
    except ValueError:
        raise ProtocolError(f"unknown frame type {type_byte}") from None
    if length > max_payload:
        raise ProtocolError(
            f"frame payload of {length} bytes exceeds the {max_payload} limit"
        )
    return ftype


def encode_frame(ftype: FrameType, payload: bytes | str = b"") -> bytes:
    """Serialize one frame; *payload* strings are UTF-8 encoded."""
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the {MAX_PAYLOAD} limit"
        )
    return HEADER.pack(int(ftype), len(payload)) + payload


class FrameDecoder:
    """Incremental decoder: feed bytes in arbitrary pieces, get frames.

    Mirrors the incremental lexer's contract — any split point is fine,
    state survives between ``feed()`` calls.
    """

    def __init__(self, max_payload: int = MAX_PAYLOAD):
        self._buffer = bytearray()
        self._max_payload = max_payload

    def feed(self, data: bytes) -> list[Frame]:
        """Decode every complete frame now available."""
        self._buffer.extend(data)
        frames: list[Frame] = []
        while len(self._buffer) >= HEADER.size:
            type_byte, length = HEADER.unpack_from(self._buffer)
            ftype = _check_header(type_byte, length, self._max_payload)
            end = HEADER.size + length
            if len(self._buffer) < end:
                break
            frames.append(Frame(ftype, bytes(self._buffer[HEADER.size : end])))
            del self._buffer[:end]
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._buffer)


async def read_frame(reader, max_payload: int = MAX_PAYLOAD) -> Frame | None:
    """Read one frame from an :class:`asyncio.StreamReader`.

    Returns ``None`` on a clean end of stream (connection closed at a
    frame boundary); raises :class:`ProtocolError` when the stream ends
    mid-frame or the header is invalid.
    """
    import asyncio

    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed inside a frame header") from None
    type_byte, length = HEADER.unpack(header)
    ftype = _check_header(type_byte, length, max_payload)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed inside a frame payload") from None
    return Frame(ftype, payload)


def _recv_exactly(sock, count: int) -> bytes:
    """Blocking read of exactly *count* bytes (short only at EOF)."""
    parts = bytearray()
    while len(parts) < count:
        piece = sock.recv(count - len(parts))
        if not piece:
            break
        parts.extend(piece)
    return bytes(parts)


def read_frame_blocking(sock, max_payload: int = MAX_PAYLOAD) -> Frame | None:
    """Read one frame from a blocking socket (``None`` at clean EOF)."""
    header = _recv_exactly(sock, HEADER.size)
    if not header:
        return None
    if len(header) < HEADER.size:
        raise ProtocolError("connection closed inside a frame header")
    type_byte, length = HEADER.unpack(header)
    ftype = _check_header(type_byte, length, max_payload)
    payload = _recv_exactly(sock, length)
    if len(payload) < length:
        raise ProtocolError("connection closed inside a frame payload")
    return Frame(ftype, payload)
