"""Push-based streaming sessions: feed XML chunks, pull results.

The paper's runtime is a *pull* chain — evaluator → buffer manager →
stream pre-projector → lexer — which blocks whenever the next token has
not arrived (Section 3).  Network servers, however, receive input
*push*-style, in arbitrary chunks.  :class:`StreamSession` bridges the
two: the pull chain runs on a dedicated worker while ``feed(chunk)``
hands input across a small bounded channel, so evaluation, active
garbage collection and result emission all progress concurrently with
input arrival.  The observable behaviour — output bytes, buffer
watermark, per-token series — is byte-for-byte identical to a one-shot
:meth:`repro.GCXEngine.run`, regardless of how the input is chunked,
because the evaluator consumes the very same token stream in the very
same order.

Results are **incremental** (DESIGN.md §10): every fragment the
evaluator serializes flows through an output channel the moment it is
produced, while input is still arriving.  Consumers choose their side
of the contract:

* ``drain_output()`` — non-blocking: everything produced since the
  last drain;
* ``next_output(max_chars, timeout)`` — blocking: the next bounded
  fragment (what the server's RESULT pump uses);
* ``on_output=callback`` / ``output_stream=sink`` — push delivery on
  the session worker; ``finish()`` then returns an empty ``output``.

Anything not consumed early is returned by ``finish()`` as
``RunResult.output``, so plain callers keep the classic contract.
``max_pending_output`` bounds produced-but-undrained output: beyond it
the evaluator pauses until the consumer catches up (output-side
backpressure, the mirror image of the input chunk channel).

Sessions are **bytes-native** (DESIGN.md §11): ``feed()`` takes the
raw UTF-8 wire bytes and hands them — without a decode pass — to the
bytes-domain lexer (:class:`~repro.xmlio.lexer_bytes.ByteXmlLexer`),
which scans bytes directly and decodes text lazily.  ``str`` chunks
are still accepted (encoded once on the way in), so plain-text callers
keep working; either way the observable behaviour is identical because
the bytes lexer is held byte-identical to the str oracle.  With
``binary_output=True`` the output side is bytes too: fragments are
UTF-8-encoded once as they are produced and ``drain_output()`` /
``next_output()`` return ``bytes`` cut at UTF-8 character boundaries —
what the server's RESULT pump puts on the wire with no re-encode.

Many sessions may run concurrently over one immutable
:class:`~repro.core.plan.QueryPlan`; each session owns its mutable
runtime state (projector, buffer, stats, writer, channels) and nothing
else is shared.

Typical use::

    engine = GCXEngine()
    plan = engine.compile(query_text)          # once
    session = engine.session(plan)             # per stream
    for chunk in chunks:                       # arbitrary chunking
        session.feed(chunk)
        early = session.drain_output()         # results so far
    result = session.finish()                  # RunResult, as ever
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.core.buffer import Buffer
from repro.core.evaluator import PullEvaluator
from repro.core.plan import QueryPlan
from repro.core.program import CompiledEvaluator
from repro.core.projector import (
    CompiledStreamProjector,
    FusedStreamProjector,
    StreamProjector,
)
from repro.core.snapshot import (
    decode_session,
    encode_session,
    plan_digest,
    verify_plan,
)
from repro.core.stats import BufferStats
from repro.xmlio.errors import FreezeSignal
from repro.xmlio.lexer_bytes import ByteXmlLexer
from repro.xmlio.writer import XmlWriter

#: Default upper bound on chunks queued between ``feed()`` and the
#: worker.  A small bound gives backpressure: a producer cannot race
#: megabytes ahead of evaluation, so input memory stays O(chunks).
DEFAULT_MAX_PENDING_CHUNKS = 8

#: Sentinel a :class:`_ChunkChannel` hands to the consumer instead of a
#: chunk when the session wants the pull chain to unwind for a
#: checkpoint.  Distinct from ``None`` (end of input).
_FREEZE = object()


class SessionStateError(RuntimeError):
    """A session method was called in the wrong lifecycle state."""


def build_pipeline(
    plan: QueryPlan,
    lexer,
    buffer: Buffer,
    stats: BufferStats,
    writer: XmlWriter,
    gc_enabled: bool = True,
    *,
    compiled: bool = True,
    compiled_eval: bool = True,
):
    """``(projector, evaluator)`` for one run of *plan*: the one
    pipeline of pull runs, push sessions and restored sessions.

    Projector: the fused front-end where the plan has a lexer kernel and
    the lexer has ``project_into`` (bytes sources), the DFA tables
    otherwise; with *compiled* False, the NFA interpreter.  Evaluator:
    the operator-program VM; with *compiled_eval* False (or a plan
    without a program), the interpreter.  Every tier is freeze-safe, so
    checkpointable sessions run this same pipeline.
    """
    kernel = plan.lexer_kernel
    if compiled and plan.dfa is not None:
        if kernel is not None and hasattr(lexer, "project_into"):
            projector = FusedStreamProjector(kernel, lexer, buffer, stats)
        else:
            projector = CompiledStreamProjector(lexer, plan.dfa, buffer, stats)
    else:
        projector = StreamProjector(lexer, plan.matcher, buffer, stats)
    # The plan's operator program is immutable and shared too; all
    # per-run state (slots, loop frames) lives on the evaluator.
    if compiled_eval and plan.program is not None:
        evaluator = CompiledEvaluator(
            plan.program, projector, buffer, writer, gc_enabled
        )
    else:
        evaluator = PullEvaluator(
            plan.rewritten, projector, buffer, writer, gc_enabled
        )
    return projector, evaluator


class _ChunkChannel:
    """Bounded single-producer / single-consumer chunk hand-off.

    Three terminal states matter: *closed* (producer signalled end of
    input; consumer drains what remains), and *abandoned* (consumer is
    gone — finished or failed; producers stop blocking and their input
    is discarded).
    """

    def __init__(self, capacity: int = DEFAULT_MAX_PENDING_CHUNKS):
        self._chunks: deque[bytes] = deque()
        self._capacity = max(1, capacity)
        self._closed = False
        self._abandoned = False
        self._interrupt = False
        self._cond = threading.Condition()

    def put(self, chunk: bytes) -> bool:
        """Queue *chunk*; blocks while full.  False if abandoned."""
        with self._cond:
            while len(self._chunks) >= self._capacity and not self._abandoned:
                self._cond.wait()
            if self._abandoned:
                return False
            if self._closed:
                raise SessionStateError("channel already closed")
            self._chunks.append(chunk)
            self._cond.notify_all()
            return True

    def close(self) -> None:
        """Producer side: no more chunks will arrive."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def abandon(self) -> None:
        """Consumer side: stop accepting input, release producers."""
        with self._cond:
            self._abandoned = True
            self._chunks.clear()
            self._cond.notify_all()

    def interrupt(self) -> None:
        """Make the consumer's next ``get()`` return the ``_FREEZE``
        sentinel instead of a chunk.  Queued chunks stay queued — they
        become the snapshot's input backlog."""
        with self._cond:
            self._interrupt = True
            self._cond.notify_all()

    def backlog(self) -> list[bytes]:
        """Chunks queued but not yet consumed (snapshot input side)."""
        with self._cond:
            return list(self._chunks)

    def preload(self, chunks) -> None:
        """Re-queue a restored snapshot's input backlog (may exceed the
        capacity bound transiently; the worker drains it first)."""
        with self._cond:
            self._chunks.extend(chunks)
            self._cond.notify_all()

    def get(self):
        """Next chunk; blocks while empty.  ``None`` at end of input,
        ``_FREEZE`` when interrupted for a checkpoint."""
        with self._cond:
            while not (
                self._chunks
                or self._closed
                or self._abandoned
                or self._interrupt
            ):
                self._cond.wait()
            if self._interrupt:
                # freeze outranks queued input: the chunks serialize
                # as backlog and are consumed after restore instead
                self._interrupt = False
                return _FREEZE
            if self._chunks:
                chunk = self._chunks.popleft()
                self._cond.notify_all()
                return chunk
            return None


class _OutputChannel:
    """Incremental result sink between the evaluator and a consumer.

    The session's :class:`~repro.xmlio.writer.XmlWriter` streams into
    this channel from the worker thread; ``drain()`` / ``next()`` hand
    fragments to the caller side.  With a *limit*, ``write`` blocks
    while more than *limit* characters sit undrained — output-side
    backpressure that keeps a slow consumer from accumulating the
    whole serialized result (a bounded channel therefore needs a
    concurrent consumer; ``finish()`` alone never drains early).

    *passthrough* (a ``write()`` sink) or *callback* delivery bypass
    buffering entirely: fragments are forwarded on the worker thread
    and ``drain()`` stays empty, matching the classic ``output_stream``
    contract.

    With *binary* the channel accumulates **bytes**: every fragment is
    UTF-8-encoded exactly once as the worker produces it, *limit* and
    ``max_chars`` count bytes, and a bounded ``_take`` backs its cut
    off to a UTF-8 character boundary so every drained piece is valid
    UTF-8 on its own — the server forwards the pieces as RESULT frame
    payloads verbatim, with no re-encode pass and no re-slice.
    """

    def __init__(
        self, limit: int | None = None, callback=None, passthrough=None,
        binary: bool = False,
    ):
        self._parts: list = []
        self._pending = 0
        self._limit = limit if limit is None else max(1, limit)
        self._callback = callback
        self._passthrough = passthrough
        self._binary = binary
        self._empty = b"" if binary else ""
        self._closed = False
        self._abandoned = False
        self._frozen = False
        self._cond = threading.Condition()
        #: ``time.perf_counter()`` of the first fragment, or ``None``
        self.first_output_at: float | None = None
        #: cumulative length of everything handed to the consumer
        #: (bytes when binary, chars otherwise).  Survives
        #: checkpoint/restore — see :attr:`StreamSession.delivered_output`.
        self.taken_total = 0

    # -- worker side -------------------------------------------------------

    def write(self, chunk: str) -> None:
        if not chunk:
            return
        if self.first_output_at is None:
            self.first_output_at = time.perf_counter()
        if self._passthrough is not None:
            self._passthrough.write(chunk)
            return
        if self._callback is not None:
            self._callback(chunk)
            return
        if self._binary:
            chunk = chunk.encode("utf-8")
        with self._cond:
            if self._limit is not None:
                while self._pending >= self._limit and not self._abandoned:
                    self._cond.wait()
            if self._abandoned:
                return
            self._parts.append(chunk)
            self._pending += len(chunk)
            self._cond.notify_all()

    def close(self) -> None:
        """Worker side: no more fragments will be produced."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def freeze(self) -> None:
        """Worker side, checkpoint: stop producing *for now*.  Blocked
        consumers wake, drain what remains and then see ``None`` — the
        same termination signal as ``close()`` — but ``unfreeze()``
        reopens the channel when the session thaws."""
        with self._cond:
            self._frozen = True
            self._cond.notify_all()

    def unfreeze(self) -> None:
        with self._cond:
            self._frozen = False
            self._cond.notify_all()

    def backlog(self) -> list:
        """Produced-but-undrained fragments (snapshot output side)."""
        with self._cond:
            return list(self._parts)

    def preload(self, parts) -> None:
        """Re-queue a restored snapshot's output backlog."""
        with self._cond:
            for part in parts:
                self._parts.append(part)
                self._pending += len(part)
            self._cond.notify_all()

    # -- consumer side -----------------------------------------------------

    def _take(self, max_chars: int | None):
        """Pop up to *max_chars* characters (bytes when binary;
        everything when ``None``).  Caller holds the lock."""
        if max_chars is None or self._pending <= max_chars:
            taken = self._empty.join(self._parts)
            self._parts.clear()
            self._pending = 0
        else:
            joined = self._empty.join(self._parts)
            cut = max_chars
            if self._binary:
                # Never cut a multi-byte character in half: back off
                # past UTF-8 continuation bytes so the taken piece is
                # valid UTF-8 on its own (at most 3 steps).  When
                # *max_chars* is smaller than the first character,
                # overshoot to its end instead — a fragment may exceed
                # the bound by up to 3 bytes, never be invalid.
                while cut > 0 and (joined[cut] & 0xC0) == 0x80:
                    cut -= 1
                if cut == 0:
                    size = len(joined)
                    cut = max_chars
                    while cut < size and (joined[cut] & 0xC0) == 0x80:
                        cut += 1
            taken = joined[:cut]
            remainder = joined[cut:]
            if remainder:
                self._parts[:] = [remainder]
                self._pending = len(remainder)
            else:  # an overshot cut may swallow the whole buffer
                self._parts.clear()
                self._pending = 0
        if taken:
            self.taken_total += len(taken)
            self._cond.notify_all()
        return taken

    def drain(self, max_chars: int | None = None):
        """Everything produced and not yet drained (non-blocking)."""
        with self._cond:
            return self._take(max_chars)

    def next(self, max_chars: int | None = None, timeout: float | None = None):
        """Block until output is available; ``None`` once the channel
        is closed and empty, empty (``""``/``b""``) on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._parts:
                if self._closed or self._abandoned or self._frozen:
                    return None
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        if not self._parts:
                            return self._empty if not self._closed else None
            return self._take(max_chars)

    def abandon(self) -> None:
        """Consumer gone: discard pending output, release the worker."""
        with self._cond:
            self._abandoned = True
            self._parts.clear()
            self._pending = 0
            self._cond.notify_all()


class StreamSession:
    """One streaming evaluation of one plan over one pushed document.

    Sessions are single-use: construct (evaluation starts immediately),
    ``feed()`` any number of chunks, then ``finish()`` exactly once to
    collect the :class:`~repro.core.engine.RunResult`.  Sessions also
    work as context managers; leaving the block finishes the session
    (or aborts it if an exception is already propagating).

    Errors raised by the pipeline — malformed XML, evaluation errors —
    surface on the next ``feed()`` or at ``finish()``.
    """

    def __init__(
        self,
        plan: QueryPlan,
        gc_enabled: bool = True,
        record_series: bool = True,
        drain: bool = True,
        output_stream=None,
        on_output=None,
        max_pending_output: int | None = None,
        max_pending_chunks: int = DEFAULT_MAX_PENDING_CHUNKS,
        compiled: bool = True,
        compiled_eval: bool = True,
        binary_output: bool = False,
        checkpointable: bool = False,
    ):
        if checkpointable:
            if not (compiled and plan.dfa is not None):
                raise SessionStateError(
                    "checkpointable sessions require the compiled "
                    "projector tier (plan.dfa)"
                )
            if not (compiled_eval and plan.program is not None):
                raise SessionStateError(
                    "checkpointable sessions require the compiled "
                    "evaluator tier (plan.program)"
                )
        self.plan = plan
        self._checkpointable = checkpointable
        self._gc_enabled = gc_enabled
        self._frozen = False
        self._drain = drain
        self._binary_output = binary_output
        self._channel = _ChunkChannel(max_pending_chunks)
        self._output = _OutputChannel(
            limit=max_pending_output,
            callback=on_output,
            passthrough=output_stream,
            binary=binary_output,
        )
        self._stats = BufferStats(record_series=record_series)
        self._buffer = Buffer(self._stats)
        # The input side is bytes end to end: chunks cross the channel
        # as raw UTF-8 and the bytes-domain lexer scans them directly
        # (text decoded lazily; skipped subtrees never decoded).
        self._lexer = ByteXmlLexer(refill=self._pull_chunk)
        # The plan's matcher/dfa are shared by all sessions: per-stream
        # match state lives on the projector's stack, and the dfa's
        # transition memo only ever gains deterministic entries — one
        # session discovering a tag makes it a dict lookup for all.
        self._writer = XmlWriter(stream=self._output)
        self._projector, self._evaluator = build_pipeline(
            plan, self._lexer, self._buffer, self._stats, self._writer,
            gc_enabled, compiled=compiled, compiled_eval=compiled_eval,
        )
        self._error: BaseException | None = None
        self._result = None
        self._bytes_fed = 0
        self._started = time.perf_counter()
        self._worker = threading.Thread(
            target=self._run, name="gcx-stream-session", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # worker side (the pull chain)
    # ------------------------------------------------------------------

    def _pull_chunk(self):
        """Refill callable handed to the lexer: converts the channel's
        freeze sentinel into the :class:`FreezeSignal` that unwinds the
        pull chain with every component checkpoint-consistent."""
        chunk = self._channel.get()
        if chunk is _FREEZE:
            raise FreezeSignal()
        return chunk

    def _run(self) -> None:
        frozen = False
        try:
            self._evaluator.run()
            if self._drain:
                self._projector.run_to_end()
        except FreezeSignal:
            frozen = True
            self._frozen = True
        except BaseException as exc:  # noqa: BLE001 - reraised on the caller side
            self._error = exc
        finally:
            if frozen:
                # Keep input queued (it is the snapshot's backlog) and
                # only *freeze* the output: consumers drain what is
                # left and see the termination signal; ``thaw()``
                # reopens the channel and restarts the worker.
                self._output.freeze()
            else:
                # Unblock any producer; late input is irrelevant now.
                # The output channel closes so blocked consumers wake
                # up too.
                self._channel.abandon()
                self._output.close()

    # ------------------------------------------------------------------
    # caller side (the push interface)
    # ------------------------------------------------------------------

    def feed(self, chunk: bytes | str) -> "StreamSession":
        """Hand the next input chunk to the session.

        ``bytes`` chunks are the native path — raw socket/file data,
        forwarded to the lexer without a decode pass.  ``str`` chunks
        are UTF-8-encoded once here.  Chunk boundaries are arbitrary —
        any **byte** offset, even inside a tag name, an entity
        reference or a multi-byte character, is fine.  Blocks briefly
        when the session is more than a few chunks behind
        (backpressure).
        """
        if self._result is not None:
            raise SessionStateError("session already finished")
        self._raise_pending()
        if chunk:
            if isinstance(chunk, str):
                chunk = chunk.encode("utf-8")
            else:
                chunk = bytes(chunk)
            self._bytes_fed += len(chunk)
            self._channel.put(chunk)
            self._raise_pending()
        return self

    def drain_output(self):
        """Serialized output produced since the last drain (or start).

        Non-blocking; fragments stream out while input is still being
        fed (``bytes`` under ``binary_output``, ``str`` otherwise).
        Whatever is never drained is returned by ``finish()`` as
        ``RunResult.output``, so calling this is optional.
        """
        return self._output.drain()

    def next_output(
        self, max_chars: int | None = None, timeout: float | None = None
    ):
        """Block for the next output fragment (at most *max_chars* —
        bytes under ``binary_output``, characters otherwise).

        Returns ``None`` once evaluation has ended and everything was
        drained — the pump loop termination signal — and an empty
        fragment when *timeout* elapses with nothing new.
        """
        return self._output.next(max_chars, timeout)

    def finish(self):
        """Signal end of input and return the :class:`RunResult`.

        Idempotent: repeated calls return the same result object.
        ``RunResult.output`` holds whatever was not already consumed
        via ``drain_output()`` / ``next_output()`` / ``on_output`` /
        ``output_stream``.
        """
        if self._result is not None:
            return self._result
        self._channel.close()
        self._worker.join()
        self._raise_pending()
        from repro.core.engine import RunResult  # circular at import time

        stats = self._stats
        stats.elapsed = time.perf_counter() - self._started
        stats.final_buffered = self._buffer.live_count
        self._buffer.clear()
        output = self._output.drain()
        if self._binary_output:
            # RunResult.output keeps the classic str contract; the
            # undrained remainder is whatever a concurrent consumer
            # (e.g. the server's RESULT pump) did not pick up.
            output = output.decode("utf-8")
        stats.output_chars = self._writer.chars_written
        self._result = RunResult(output, stats, self.plan)
        return self._result

    def abort(self) -> None:
        """Tear the session down without collecting a result."""
        self._channel.abandon()
        self._channel.close()
        self._output.abandon()
        self._worker.join()
        self._output.close()

    # ------------------------------------------------------------------
    # checkpointing (DESIGN.md §16)
    # ------------------------------------------------------------------

    @property
    def checkpointable(self) -> bool:
        return self._checkpointable

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> None:
        """Unwind the pull chain and park the session, checkpoint-ready.

        Interrupts the input channel so the worker's next refill raises
        :class:`FreezeSignal`; every stateful stage parks its in-flight
        work (lexer skip locals, projector pending skip, evaluator pc)
        on the way out, and the worker thread exits with the whole
        chain quiescent.  The output channel is frozen, not closed:
        blocked consumers drain what remains and see the termination
        signal, and ``thaw()`` reopens it.

        Raises :class:`SessionStateError` for non-checkpointable or
        finished sessions, and when the worker completes before the
        interrupt lands (possible with ``drain=False`` once all input
        was consumed — there is nothing left to checkpoint).  Like
        ``finish()``, freezing a session whose *bounded* output channel
        is full requires a concurrent consumer, otherwise the worker
        never reaches a refill.
        """
        if not self._checkpointable:
            raise SessionStateError(
                "session was not opened with checkpointable=True"
            )
        if self._result is not None:
            raise SessionStateError("session already finished")
        if self._frozen:
            return
        self._raise_pending()
        self._channel.interrupt()
        self._worker.join()
        self._raise_pending()
        if not self._frozen:
            raise SessionStateError(
                "session completed before it could freeze; "
                "collect the result with finish() instead"
            )

    def thaw(self) -> None:
        """Restart a frozen session's worker; evaluation resumes at the
        exact op the freeze unwound."""
        if not self._frozen:
            raise SessionStateError("session is not frozen")
        self._frozen = False
        self._output.unfreeze()
        self._worker = threading.Thread(
            target=self._run, name="gcx-stream-session", daemon=True
        )
        self._worker.start()

    def snapshot(self) -> bytes:
        """Serialize the session into a versioned, self-contained blob.

        Freezes first when necessary; an already-frozen session (the
        server checkpoints that way, between freeze and thaw, after its
        RESULT pump drained) is encoded in place and stays frozen.
        The blob restores with :meth:`restore` — in this process or any
        other holding an equivalent plan — and the restored session
        continues byte-identically.
        """
        if self._frozen:
            return self._encode_frozen()
        self.freeze()
        try:
            return self._encode_frozen()
        finally:
            self.thaw()

    def _encode_frozen(self) -> bytes:
        first = self._output.first_output_at
        return encode_session(
            {
                "plan_text": self.plan.canonical_text(),
                "roles_digest": plan_digest(self.plan),
                "gc_enabled": self._gc_enabled,
                "drain": self._drain,
                "binary_output": self._binary_output,
                "bytes_fed": self._bytes_fed,
                "elapsed": time.perf_counter() - self._started,
                "first_output_delta": (
                    None if first is None else first - self._started
                ),
                "stats": self._stats,
                "buffer": self._buffer,
                "lexer": self._lexer.snapshot_state(),
                "projector": self._projector.snapshot_state(),
                "chars_written": self._writer.chars_written,
                "delivered_output": self._output.taken_total,
                "evaluator": self._evaluator.snapshot_state(),
                "output_parts": self._output.backlog(),
                "input_chunks": self._channel.backlog(),
            }
        )

    @classmethod
    def restore(
        cls,
        plan: QueryPlan,
        blob: bytes,
        *,
        output_stream=None,
        on_output=None,
        max_pending_output: int | None = None,
        max_pending_chunks: int = DEFAULT_MAX_PENDING_CHUNKS,
    ) -> "StreamSession":
        """Rebuild a session from a :meth:`snapshot` blob.

        *plan* must be equivalent to the one the snapshot was taken
        against — same canonical query text *and* same role analysis —
        otherwise :class:`~repro.core.snapshot.SnapshotPlanMismatch` is
        raised; a blob from a different format version is refused with
        :class:`~repro.core.snapshot.SnapshotFormatError`.  The caller
        resumes feeding at byte offset ``bytes_fed`` and the combined
        output (already-delivered prefix + what this session produces)
        is byte-identical to an uninterrupted run.  The session runs the
        pipeline a new session of *plan* runs; the fused and table
        projectors share one checkpoint state.
        """
        snap = decode_session(blob)
        verify_plan(snap, plan)
        if plan.dfa is None or plan.program is None:
            raise SessionStateError(
                "restore requires the compiled projector and evaluator "
                "tiers (plan.dfa and plan.program)"
            )
        self = cls.__new__(cls)
        self.plan = plan
        self._checkpointable = True
        self._gc_enabled = snap.gc_enabled
        self._frozen = False
        self._drain = snap.drain
        self._binary_output = snap.binary_output
        self._channel = _ChunkChannel(max_pending_chunks)
        self._channel.preload(snap.input_chunks)
        self._output = _OutputChannel(
            limit=max_pending_output,
            callback=on_output,
            passthrough=output_stream,
            binary=snap.binary_output,
        )
        self._output.preload(snap.output_parts)
        # The drained-prefix position carries across restore so a later
        # snapshot reports session-cumulative delivered output, not
        # output since this restore.
        self._output.taken_total = snap.delivered_output
        # Build the chain exactly as __init__ does (construction side
        # effects — start roles on the fresh root — land on objects
        # whose state the snapshot overwrites next).
        self._stats = BufferStats(record_series=snap.stats["record_series"])
        self._buffer = Buffer(self._stats)
        self._lexer = ByteXmlLexer(refill=self._pull_chunk)
        self._writer = XmlWriter(stream=self._output)
        self._projector, self._evaluator = build_pipeline(
            plan, self._lexer, self._buffer, self._stats, self._writer,
            snap.gc_enabled,
        )
        # the series in place: the fused projector's loop holds the list
        self._stats.series[:] = snap.stats["series"]
        for field in (
            "watermark", "tokens", "nodes_buffered", "nodes_purged",
            "roles_assigned", "roles_removed", "subtrees_skipped",
            "output_chars", "final_buffered",
        ):
            setattr(self._stats, field, snap.stats[field])
        self._buffer._seq = snap.seq_counter
        self._buffer.live_count = snap.live_count
        self._buffer.root = snap.root
        self._lexer.restore_state(snap.lexer)
        self._projector.restore_state(snap.projector, snap.resolve)
        self._writer.chars_written = snap.chars_written
        self._evaluator.restore_state(snap.evaluator, snap.resolve)
        self._error = None
        self._result = None
        self._bytes_fed = snap.bytes_fed
        self._started = time.perf_counter() - snap.elapsed
        if snap.first_output_delta is not None:
            self._output.first_output_at = (
                self._started + snap.first_output_delta
            )
        self._worker = threading.Thread(
            target=self._run, name="gcx-stream-session", daemon=True
        )
        self._worker.start()
        return self

    @property
    def bytes_fed(self) -> int:
        """Total input bytes accepted so far (str chunks count their
        UTF-8 encoding)."""
        return self._bytes_fed

    @property
    def delivered_output(self) -> int:
        """Output already handed to the consumer via ``drain_output()``
        / ``next_output()`` (bytes with ``binary_output``, chars
        otherwise), cumulative across checkpoint/restore — the
        session-absolute offset at which a resumed consumer continues
        (DESIGN.md §16)."""
        return self._output.taken_total

    @property
    def finished(self) -> bool:
        return self._result is not None

    @property
    def time_to_first_output(self) -> float | None:
        """Seconds from session start to the first serialized output
        fragment (``None`` while — or if — nothing was produced)."""
        first = self._output.first_output_at
        return None if first is None else first - self._started

    def _raise_pending(self) -> None:
        if self._error is not None:
            # Sticky: every later feed()/finish() re-raises the same
            # failure.  Make sure the worker is gone before handing
            # control back.
            self._channel.close()
            self._worker.join()
            raise self._error

    # ------------------------------------------------------------------

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is not None:
            self.abort()
        elif self._result is None:
            self.finish()
