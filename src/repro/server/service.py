"""The asyncio TCP service: many concurrent streaming sessions, one process.

One process is also the unit of sharding: ``gcx serve --workers N``
(:mod:`repro.server.workers`, DESIGN.md §14) runs N of these servers
in separate processes over one listen port — each constructed with a
pre-bound ``listen_sock`` (SO_REUSEPORT) or fed accepted sockets via
:meth:`GCXServer.adopt_connection` (fd passing), and a
``stats_provider`` that swaps the local STATS payload for the
supervisor's fleet aggregate.

Each connection is one handler task reading frames in order.  The
pull-chain work — ``feed()`` under backpressure, ``finish()`` — runs in
a bounded thread pool via ``run_in_executor`` so the event loop never
blocks; because the handler *awaits* each feed before reading the next
frame, a session whose chunk channel is full transparently pauses that
connection's reads (per-connection backpressure) while every other
connection keeps streaming.

The data path is bytes end to end (DESIGN.md §11): CHUNK frame
payloads are fed to the session verbatim — no decode pass; the
bytes-domain lexer scans the wire bytes directly — and the session's
bytes-native output channel hands the RESULT pump UTF-8 fragments that
go on the wire verbatim — no re-encode pass.  ``bytes_in`` /
``bytes_out`` therefore count raw frame payload lengths on both sides.

Results stream (DESIGN.md §10): alongside each admitted session runs a
RESULT *pump* task that blocks on the session's output channel and
forwards every produced fragment as a bounded RESULT frame — a client
receives its first results while it is still sending CHUNK frames.
The output channel itself is bounded (``max_pending_output``), so a
slow reader pauses evaluation instead of accumulating the serialized
result in memory; whatever the pump has not picked up when ``finish``
completes is flushed after the pump ends, before the FINISH summary.

Checkpoint/resume (DESIGN.md §16): a CHECKPOINT frame (or the
server-driven ``checkpoint_interval`` cadence, or a draining worker's
shutdown path) freezes the session, lets the pump drain the produced
output, and answers one SNAPSHOT frame carrying the input/output
offsets plus the versioned snapshot blob before thawing; RESUME
rebuilds a session from such a blob — on any worker, in any process —
and the conversation continues exactly like after OPEN.  The optional
``fault_plan`` (:mod:`repro.testing.faults`) deterministically injects
worker crashes, feed failures and frame delays/duplicates/truncations
to prove those paths.

Failure semantics (DESIGN.md §8):

* admission refused → BUSY; the connection stays usable and may retry;
* query compile error / malformed XML / evaluation error → one ERROR
  frame with a one-line message; the remainder of that query's frames
  is drained and discarded so a pipelining client never deadlocks, and
  the connection stays usable for the next OPEN;
* framing error or protocol-state violation (OPEN mid-session, CHUNK
  before any OPEN) → ERROR, then the connection closes: the byte
  stream (or the client's view of the conversation) can no longer be
  trusted.

Shared streams (DESIGN.md §13): SUBSCRIBE attaches a query to a named
stream (admission counts the subscriber against the session cap) and
hands the rest of that conversation to a per-subscriber pump; PUBLISH
binds the connection as the stream's publisher, whose CHUNK frames
drive **one** lex+project pass serving every subscriber.  A failed
SUBSCRIBE or PUBLISH enters the same drain mode as a failed OPEN.

Shutdown closes the listener, cancels the connection tasks and aborts
their sessions; :class:`ServerThread` packages start/stop on a daemon
thread for blocking callers (tests, benchmarks, the CI smoke job).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.evaluator import EvaluationError
from repro.core.session import SessionStateError
from repro.server.protocol import (
    HEADER,
    SNAPSHOT_OFFSETS,
    FrameType,
    ProtocolError,
    encode_frame,
    read_frame,
)
from repro.server.scheduler import (
    DEFAULT_MAX_SESSIONS,
    DEFAULT_MAX_STREAMS,
    SessionScheduler,
)
from repro.testing.faults import InjectedFault
from repro.xmlio.errors import XmlStarvedError

#: everything a query can fail with that deserves an ERROR frame (the
#: ValueError family covers XmlSyntaxError, XQueryParseError,
#: NormalizationError, AnalysisError, MatcherError, snapshot refusals
#: — SnapshotFormatError, SnapshotPlanMismatch — and the fault
#: harness's injected feed failures)
QUERY_ERRORS = (
    ValueError,
    XmlStarvedError,
    EvaluationError,
    SessionStateError,
    InjectedFault,
)

#: serialized output is returned in RESULT frames of at most this size,
#: so one huge result never occupies a single giant frame
DEFAULT_RESULT_FRAME_SIZE = 64 * 1024


def _one_line(exc: BaseException) -> str:
    """A single-line ``Type: message`` rendering of an exception."""
    text = f"{type(exc).__name__}: {exc}"
    return text.splitlines()[0] if text else type(exc).__name__


def _abort_orphaned_admission(future) -> None:
    """Release a session admitted after its handler was cancelled.

    ``abort()`` joins the session's worker thread, so it runs on a
    throwaway thread rather than the event loop (the server's executor
    may already be shutting down when this fires).
    """
    try:
        managed = future.result()
    except BaseException:  # noqa: BLE001 - admission failed: nothing to release
        return
    if managed is not None:
        threading.Thread(
            target=managed.abort, name="gcx-abort-orphan", daemon=True
        ).start()


class GCXServer:
    """Asyncio TCP front end over a :class:`SessionScheduler`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        scheduler: SessionScheduler | None = None,
        result_frame_size: int = DEFAULT_RESULT_FRAME_SIZE,
        max_streams: int = DEFAULT_MAX_STREAMS,
        listen_sock=None,
        stats_provider=None,
        checkpoint_interval: int = 0,
        fault_plan=None,
    ):
        self.host = host
        #: server-driven checkpoint cadence in input bytes (0 = only on
        #: client CHECKPOINT frames): every time a checkpointable
        #: session's fed bytes advance this far past its last
        #: checkpoint, the server pushes an unsolicited SNAPSHOT frame
        self.checkpoint_interval = max(0, checkpoint_interval)
        #: optional :class:`repro.testing.faults.FaultPlan` — the
        #: deterministic fault-injection harness (DESIGN.md §16)
        self.fault_plan = fault_plan
        #: set while draining: handlers push a checkpoint to their
        #: client before the conversation is allowed to wind down
        self._drain_checkpoint = asyncio.Event()
        self.port = port  # 0 = ephemeral; replaced by the bound port on start()
        #: a pre-bound listening socket to serve instead of binding
        #: host/port — how a worker process shares one port with its
        #: siblings via SO_REUSEPORT (DESIGN.md §14)
        self.listen_sock = listen_sock
        #: when set, STATS frames are answered with this callable's
        #: dict instead of the local scheduler snapshot — a pool worker
        #: plugs in the supervisor's fleet aggregation here.  Called on
        #: an executor thread (it may do blocking control-channel I/O);
        #: any failure falls back to the local snapshot.
        self.stats_provider = stats_provider
        self.result_frame_size = max(1, result_frame_size)
        self.scheduler = (
            scheduler
            if scheduler is not None
            else SessionScheduler(
                max_sessions=max_sessions,
                # output-side backpressure: a session may run at most a
                # few frames ahead of its RESULT pump
                max_pending_output=4 * self.result_frame_size,
                max_streams=max_streams,
            )
        )
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        # feed()/finish() block (backpressure, drain) and every session
        # additionally parks one RESULT-pump call in next_output();
        # two slots per admissible session (subscribers hold session
        # slots, so their pumps are covered) plus one feed slot per
        # live shared stream's publisher plus slack for admissions and
        # STATS, so a stalled producer or a quiet pump can never starve
        # the others.
        self._executor = ThreadPoolExecutor(
            max_workers=2 * self.scheduler.max_sessions
            + self.scheduler.max_streams
            + 4,
            thread_name_prefix="gcx-serve",
        )

    @property
    def metrics(self):
        return self.scheduler.metrics

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "GCXServer":
        """Bind (or adopt ``listen_sock``) and start accepting."""
        if self.listen_sock is not None:
            self._server = await asyncio.start_server(
                self._on_client, sock=self.listen_sock
            )
        else:
            self._server = await asyncio.start_server(
                self._on_client, self.host, self.port
            )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def adopt_connection(self, sock) -> None:
        """Serve one already-accepted TCP connection (the fd-passing
        fallback of DESIGN.md §14: a parent acceptor hands accepted
        sockets to workers over a Unix socket).  Runs the full
        per-connection protocol; returns when the conversation ends."""
        reader, writer = await asyncio.open_connection(sock=sock)
        await self._on_client(reader, writer)

    async def drain(self, timeout: float = 30.0) -> bool:
        """Graceful drain: stop accepting, let live conversations end.

        Closes the listener (new connection attempts are refused —
        under SO_REUSEPORT the kernel routes them to sibling workers
        instead) and waits up to *timeout* seconds for every open
        connection to finish its conversation and disconnect.  Returns
        ``True`` when the server emptied out, ``False`` on timeout
        (the caller then escalates to :meth:`shutdown`, which aborts
        whatever is left).
        """
        if self._server is not None:
            self._server.close()
        # Drain-to-checkpoint (DESIGN.md §16): every connection with a
        # checkpointable session in flight pushes one SNAPSHOT to its
        # client, so a SIGTERMed worker's sessions can be resumed
        # elsewhere even when their clients never asked to checkpoint.
        self._drain_checkpoint.set()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while self._connections and loop.time() < deadline:
            await asyncio.sleep(0.05)
        return not self._connections

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Stop accepting, cancel live connections, abort their sessions.

        Handlers are cancelled *before* ``wait_closed()`` is awaited:
        from Python 3.12.1 on, ``wait_closed`` blocks until every
        connection handler returns, so the old order would deadlock on
        a client parked in ``read_frame``.
        """
        if self._server is not None:
            self._server.close()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # per-connection protocol
    # ------------------------------------------------------------------

    async def _on_client(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._handle_connection(reader, writer)
        except asyncio.CancelledError:
            # Shutdown cancelled this connection: end the task cleanly
            # (start_server's done-callback re-raises a cancelled state
            # as event-loop noise otherwise).
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _send(
        self, writer, ftype: FrameType, payload: bytes | str = b"", lock=None
    ) -> None:
        """Write one frame.  *lock* serializes writers that share the
        connection: the handler and the RESULT pump both send, and two
        tasks awaiting ``writer.drain()`` concurrently is unsafe (the
        transport supports a single drain waiter)."""
        if lock is None:
            writer.write(encode_frame(ftype, payload))
            await writer.drain()
        else:
            async with lock:
                writer.write(encode_frame(ftype, payload))
                await writer.drain()

    async def _handle_connection(self, reader, writer) -> None:
        loop = asyncio.get_running_loop()
        send_lock = asyncio.Lock()  # handler + pump share the writer
        session = None  # the ManagedSession of the query in flight
        pump = None  # the RESULT-pump task of that session
        publishing = None  # the ManagedStream this connection publishes
        subscription = None  # the latest ManagedSubscriber on this connection
        sub_pump = None  # that subscriber's RESULT/FINISH pump task
        discarding = False  # drain this query's frames after an ERROR
        arm_checkpoint = False  # CHECKPOINT before OPEN arms the next session
        drain_checkpointed = False  # one drain-driven SNAPSHOT per connection
        read_task = None  # outstanding read, kept across drain wake-ups
        try:
            while True:
                if read_task is None:
                    read_task = asyncio.ensure_future(read_frame(reader))
                if (
                    self._drain_checkpoint.is_set()
                    and not drain_checkpointed
                    and session is not None
                    and session.checkpointable
                ):
                    # Drain-to-checkpoint: push this session's state to
                    # the client before the worker winds down, so the
                    # client can RESUME it on a sibling (DESIGN.md §16).
                    drain_checkpointed = True
                    try:
                        pump = await self._checkpoint_session(
                            writer, session, pump, loop, send_lock
                        )
                    except QUERY_ERRORS as exc:
                        session, pump, discarding = await self._fail_query(
                            writer, session, pump, exc, send_lock
                        )
                if not self._drain_checkpoint.is_set():
                    # Race the read against the drain signal so a parked
                    # reader still checkpoints when SIGTERM arrives.
                    drain_wait = asyncio.ensure_future(
                        self._drain_checkpoint.wait()
                    )
                    await asyncio.wait(
                        {read_task, drain_wait},
                        return_when=asyncio.FIRST_COMPLETED,
                    )
                    drain_wait.cancel()
                    if not read_task.done():
                        continue  # drain fired: checkpoint at the loop top
                try:
                    frame = await read_task
                except ProtocolError as exc:
                    read_task = None
                    with contextlib.suppress(ConnectionError):
                        await self._send(
                            writer, FrameType.ERROR, _one_line(exc), lock=send_lock
                        )
                    return
                read_task = None
                if frame is None:
                    return

                if frame.type is FrameType.STATS:
                    snapshot = None
                    if self.stats_provider is not None:
                        # Fleet aggregation does blocking control-
                        # channel I/O: keep it off the event loop, and
                        # fall back to the local snapshot if the
                        # supervisor is unreachable.
                        try:
                            snapshot = await loop.run_in_executor(
                                self._executor, self.stats_provider
                            )
                        except Exception:  # noqa: BLE001 - degraded STATS
                            snapshot = None
                    if snapshot is None:
                        snapshot = self.scheduler.snapshot()
                    payload = json.dumps(snapshot, sort_keys=True)
                    await self._send(
                        writer, FrameType.STATS, payload, lock=send_lock
                    )

                elif frame.type is FrameType.OPEN:
                    if session is not None or publishing is not None:
                        await self._send(
                            writer,
                            FrameType.ERROR,
                            "OPEN while a session is active",
                            lock=send_lock,
                        )
                        return
                    # An OPEN always starts a fresh query — it ends any
                    # drain from a previous refusal, so a client that got
                    # ERROR/BUSY can retry on the same connection.
                    discarding = False
                    try:
                        query_text = frame.text
                    except UnicodeDecodeError as exc:
                        await self._send(
                            writer, FrameType.ERROR, _one_line(exc), lock=send_lock
                        )
                        discarding = True
                        continue
                    # Compilation (parse + static analysis on a cache
                    # miss) is CPU work: keep it off the event loop.
                    checkpointable = arm_checkpoint or bool(
                        self.checkpoint_interval
                    )
                    arm_checkpoint = False
                    admit = loop.run_in_executor(
                        self._executor,
                        self.scheduler.try_admit,
                        query_text,
                        checkpointable,
                    )
                    try:
                        session = await asyncio.shield(admit)
                    except asyncio.CancelledError:
                        # Shutdown cancelled this handler while admission
                        # was still running on its executor thread; the
                        # slot it may yet win must not leak.
                        admit.add_done_callback(_abort_orphaned_admission)
                        raise
                    except Exception as exc:  # noqa: BLE001
                        # QUERY_ERRORS and anything else compiling the
                        # query can raise: a query the engine cannot
                        # take is refused with ERROR, never by dropping
                        # the connection
                        await self._send(
                            writer, FrameType.ERROR, _one_line(exc), lock=send_lock
                        )
                        discarding = True  # drop this query's pipelined frames
                        continue
                    if session is None:
                        await self._send(
                            writer,
                            FrameType.BUSY,
                            f"server is at its {self.scheduler.max_sessions}-session limit",
                            lock=send_lock,
                        )
                        discarding = True  # drop this query's pipelined frames
                        continue
                    await self._send(
                        writer, FrameType.OPENED, str(session.id), lock=send_lock
                    )
                    # Stream results out while input is still arriving.
                    pump = asyncio.create_task(
                        self._pump_results(writer, session, loop, send_lock)
                    )

                elif frame.type is FrameType.CHECKPOINT:
                    if discarding:
                        continue
                    if publishing is not None or (
                        sub_pump is not None and not sub_pump.done()
                    ):
                        await self._send(
                            writer,
                            FrameType.ERROR,
                            "CHECKPOINT on a shared-stream conversation",
                            lock=send_lock,
                        )
                        return
                    if session is None:
                        # Arm: the next OPEN admits a checkpointable
                        # session.
                        arm_checkpoint = True
                        continue
                    try:
                        pump = await self._checkpoint_session(
                            writer, session, pump, loop, send_lock
                        )
                    except QUERY_ERRORS as exc:
                        # e.g. CHECKPOINT on a session that was not
                        # opened checkpointable: the session cannot be
                        # trusted to continue a conversation the client
                        # thinks is checkpointed — fail it like a query
                        # error and drain.
                        session, pump, discarding = await self._fail_query(
                            writer, session, pump, exc, send_lock
                        )

                elif frame.type is FrameType.RESUME:
                    if session is not None or publishing is not None:
                        await self._send(
                            writer,
                            FrameType.ERROR,
                            "RESUME while a session is active",
                            lock=send_lock,
                        )
                        return
                    # Like OPEN: a RESUME starts a fresh conversation
                    # and ends any drain from a previous refusal.
                    discarding = False
                    arm_checkpoint = False
                    admit = loop.run_in_executor(
                        self._executor, self.scheduler.try_resume, frame.payload
                    )
                    try:
                        session = await asyncio.shield(admit)
                    except asyncio.CancelledError:
                        admit.add_done_callback(_abort_orphaned_admission)
                        raise
                    except QUERY_ERRORS as exc:
                        # Snapshot refusals land here: a stale format
                        # version, a plan the blob was not taken
                        # against, or a truncated blob — refused, never
                        # misread (DESIGN.md §16).
                        await self._send(
                            writer, FrameType.ERROR, _one_line(exc), lock=send_lock
                        )
                        discarding = True
                        continue
                    if session is None:
                        await self._send(
                            writer,
                            FrameType.BUSY,
                            f"server is at its {self.scheduler.max_sessions}-session limit",
                            lock=send_lock,
                        )
                        discarding = True
                        continue
                    await self._send(
                        writer, FrameType.OPENED, str(session.id), lock=send_lock
                    )
                    pump = asyncio.create_task(
                        self._pump_results(writer, session, loop, send_lock)
                    )

                elif frame.type is FrameType.SUBSCRIBE:
                    if session is not None or publishing is not None:
                        await self._send(
                            writer,
                            FrameType.ERROR,
                            "SUBSCRIBE while a session is active",
                            lock=send_lock,
                        )
                        return
                    if sub_pump is not None and not sub_pump.done():
                        await self._send(
                            writer,
                            FrameType.ERROR,
                            "SUBSCRIBE while a subscription is active",
                            lock=send_lock,
                        )
                        return
                    # Like OPEN: a SUBSCRIBE starts a fresh conversation
                    # and ends any drain from a previous refusal.
                    discarding = False
                    try:
                        stream_name, sep, query_text = frame.text.partition("\n")
                    except UnicodeDecodeError as exc:
                        await self._send(
                            writer, FrameType.ERROR, _one_line(exc), lock=send_lock
                        )
                        discarding = True
                        continue
                    if not sep:
                        await self._send(
                            writer,
                            FrameType.ERROR,
                            "SUBSCRIBE payload must be 'stream\\nquery'",
                            lock=send_lock,
                        )
                        discarding = True
                        continue
                    admit = loop.run_in_executor(
                        self._executor,
                        self.scheduler.try_subscribe,
                        stream_name,
                        query_text,
                    )
                    try:
                        subscription = await asyncio.shield(admit)
                    except asyncio.CancelledError:
                        admit.add_done_callback(_abort_orphaned_admission)
                        raise
                    except QUERY_ERRORS as exc:
                        # Compile failure or a stream that already
                        # started streaming: same drain mode as a
                        # failed OPEN, so pipelined CHUNK/FINISH
                        # frames never kill the connection.
                        await self._send(
                            writer, FrameType.ERROR, _one_line(exc), lock=send_lock
                        )
                        discarding = True
                        continue
                    if subscription is None:
                        await self._send(
                            writer,
                            FrameType.BUSY,
                            "server is at its session or stream limit",
                            lock=send_lock,
                        )
                        discarding = True
                        continue
                    await self._send(
                        writer, FrameType.OPENED, str(subscription.id),
                        lock=send_lock,
                    )
                    # The rest of this subscription is server-driven:
                    # the pump streams RESULT frames while the
                    # publisher feeds, then delivers the FINISH
                    # summary (or ERROR) once the stream ends.
                    sub_pump = asyncio.create_task(
                        self._pump_subscriber(
                            writer, subscription, loop, send_lock
                        )
                    )

                elif frame.type is FrameType.PUBLISH:
                    if session is not None or publishing is not None:
                        await self._send(
                            writer,
                            FrameType.ERROR,
                            "PUBLISH while a session is active",
                            lock=send_lock,
                        )
                        return
                    discarding = False
                    try:
                        stream_name = frame.text
                    except UnicodeDecodeError as exc:
                        await self._send(
                            writer, FrameType.ERROR, _one_line(exc), lock=send_lock
                        )
                        discarding = True
                        continue
                    try:
                        # Cheap (no compile): builds at most an empty
                        # shared session; fine on the event loop.
                        publishing = self.scheduler.try_publish(stream_name)
                    except QUERY_ERRORS as exc:
                        # e.g. a second publisher for a live stream —
                        # drain mode, exactly like a failed OPEN.
                        await self._send(
                            writer, FrameType.ERROR, _one_line(exc), lock=send_lock
                        )
                        discarding = True
                        continue
                    if publishing is None:
                        await self._send(
                            writer,
                            FrameType.BUSY,
                            f"server is at its "
                            f"{self.scheduler.max_streams}-stream limit",
                            lock=send_lock,
                        )
                        discarding = True
                        continue
                    await self._send(
                        writer, FrameType.OPENED, stream_name, lock=send_lock
                    )

                elif frame.type is FrameType.CHUNK:
                    if discarding:
                        continue
                    if publishing is not None:
                        self.metrics.add_bytes_in(len(frame.payload))
                        try:
                            # The shared stream's driver backpressures
                            # through feed() just like a session: a
                            # slow subscriber pauses this read loop.
                            await loop.run_in_executor(
                                self._executor, publishing.feed, frame.payload
                            )
                        except QUERY_ERRORS as exc:
                            publishing, discarding = await self._fail_stream(
                                writer, publishing, exc, send_lock
                            )
                        continue
                    if session is None:
                        await self._send(
                            writer,
                            FrameType.ERROR,
                            "CHUNK before OPEN",
                            lock=send_lock,
                        )
                        return
                    self.metrics.add_bytes_in(len(frame.payload))
                    if self.fault_plan is not None:
                        # The harness may SIGKILL this very process
                        # (kill_at) — exactly the crash the checkpoint
                        # path exists for — or raise InjectedFault
                        # (fail_feed_at), which maps to ERROR below.
                        try:
                            self.fault_plan.on_feed(len(frame.payload))
                        except InjectedFault as exc:
                            session, pump, discarding = await self._fail_query(
                                writer, session, pump, exc, send_lock
                            )
                            continue
                    try:
                        # Raw payload bytes, no decode pass: the
                        # session's lexer scans the wire bytes
                        # directly (invalid UTF-8 surfaces as an
                        # XmlSyntaxError with a byte position, mapped
                        # to an ERROR frame like any query failure).
                        await loop.run_in_executor(
                            self._executor, session.feed, frame.payload
                        )
                    except QUERY_ERRORS as exc:
                        session, pump, discarding = await self._fail_query(
                            writer, session, pump, exc, send_lock
                        )
                        continue
                    if (
                        self.checkpoint_interval
                        and session.checkpointable
                        and session.bytes_fed - session.last_checkpoint_bytes
                        >= self.checkpoint_interval
                    ):
                        # Server-driven cadence: unsolicited SNAPSHOT
                        # every checkpoint_interval input bytes.
                        try:
                            pump = await self._checkpoint_session(
                                writer, session, pump, loop, send_lock
                            )
                        except QUERY_ERRORS as exc:
                            session, pump, discarding = await self._fail_query(
                                writer, session, pump, exc, send_lock
                            )

                elif frame.type is FrameType.FINISH:
                    if discarding:
                        # End of the query whose ERROR was already sent.
                        discarding = False
                        continue
                    if publishing is not None:
                        try:
                            summary = await loop.run_in_executor(
                                self._executor, publishing.finish
                            )
                        except QUERY_ERRORS as exc:
                            publishing, _ = await self._fail_stream(
                                writer, publishing, exc, send_lock
                            )
                            discarding = False
                            continue
                        publishing = None
                        # Subscribers get their RESULT/FINISH frames
                        # from their own pumps; the publisher gets the
                        # stream-level summary.
                        await self._send(
                            writer,
                            FrameType.FINISH,
                            json.dumps(summary, sort_keys=True),
                            lock=send_lock,
                        )
                        continue
                    if session is None:
                        await self._send(
                            writer,
                            FrameType.ERROR,
                            "FINISH before OPEN",
                            lock=send_lock,
                        )
                        return
                    try:
                        result = await loop.run_in_executor(
                            self._executor, session.finish
                        )
                    except QUERY_ERRORS as exc:
                        # Nothing of this query follows FINISH: no drain.
                        session, pump, _ = await self._fail_query(
                            writer, session, pump, exc, send_lock
                        )
                        discarding = False
                        continue
                    session = None
                    # The pump ends once the closed output channel is
                    # empty; wait so RESULT frames never trail FINISH.
                    if pump is not None:
                        await pump
                        pump = None
                    await self._send_result(writer, result, send_lock)

                else:
                    await self._send(
                        writer,
                        FrameType.ERROR,
                        f"unexpected {frame.type.name} frame",
                        lock=send_lock,
                    )
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; the finally block reclaims the slot
        finally:
            if read_task is not None:
                read_task.cancel()
            if pump is not None:
                pump.cancel()
            if sub_pump is not None:
                sub_pump.cancel()
            if session is not None:
                # Never block the event loop on the worker join.  The
                # abort also closes the output channel, releasing the
                # pump's executor thread.
                self._executor.submit(session.abort)
            if subscription is not None:
                # Idempotent after a delivered FINISH (the slot is
                # released exactly once); otherwise drops this
                # subscriber out of the shared stream — the driver
                # keeps serving the others.
                self._executor.submit(subscription.abort)
            if publishing is not None:
                # Publisher gone mid-stream: the whole stream fails
                # (subscribers see the input break off, their pumps
                # report ERROR) and the name is freed.
                self._executor.submit(publishing.abort)

    async def _checkpoint_session(
        self, writer, session, pump, loop, lock
    ) -> asyncio.Task:
        """Freeze *session*, drain its output, send one SNAPSHOT frame,
        thaw — the checkpoint sequence of DESIGN.md §16.

        The pump is awaited *between* freeze and encode: freezing marks
        the output channel, the pump forwards the produced tail and
        exits, so by the time the blob is cut every produced result
        byte is on the wire **before** the SNAPSHOT frame — frame order
        is what makes the reported output offset the exact replay
        point.  Returns the fresh pump of the thawed session; raises
        ``SessionStateError`` (→ ERROR) for non-checkpointable
        sessions, leaving the session untouched.
        """
        await loop.run_in_executor(self._executor, session.freeze)
        if pump is not None:
            await pump  # drains the frozen channel's tail, then ends
        blob = await loop.run_in_executor(self._executor, session.snapshot)
        self.metrics.checkpoint_taken(len(blob))
        session.last_checkpoint_bytes = session.bytes_fed
        payload = (
            SNAPSHOT_OFFSETS.pack(session.bytes_fed, session.delivered_bytes)
            + blob
        )
        await self._send(writer, FrameType.SNAPSHOT, payload, lock=lock)
        await loop.run_in_executor(self._executor, session.thaw)
        return asyncio.create_task(
            self._pump_results(writer, session, loop, lock)
        )

    async def _pump_results(self, writer, session, loop, lock) -> None:
        """Forward output fragments as RESULT frames while they are
        produced — the session's output channel blocks the executor
        thread until a fragment exists, and ends the loop (``None``)
        once evaluation finished and everything was taken (or the
        session froze for a checkpoint and the tail was drained)."""
        while True:
            part = await loop.run_in_executor(
                self._executor, session.next_output, self.result_frame_size
            )
            if part is None:
                return
            if not part:
                continue
            # The output channel is bytes-native (UTF-8-encoded once as
            # produced, cut at character boundaries): the fragment IS
            # the frame payload — no re-encode pass, and bytes_out
            # counts the actual wire bytes by construction.
            self.metrics.add_bytes_out(len(part))
            if self.fault_plan is not None and await self._faulty_result(
                writer, part, lock
            ):
                return
            try:
                await self._send(writer, FrameType.RESULT, part, lock=lock)
            except ConnectionError:
                return  # client gone; the handler cleans up
            session.delivered_bytes += len(part)

    async def _faulty_result(self, writer, part, lock) -> bool:
        """Apply the fault plan to one outbound RESULT fragment.

        Returns ``True`` when the pump must stop (the harness severed
        the connection).  Delay and duplicate happen around the normal
        send in :meth:`_pump_results`; truncation writes a deliberately
        short frame and kills the transport, simulating a worker dying
        mid-frame.
        """
        action = self.fault_plan.on_result(len(part))
        if action.delay_s:
            await asyncio.sleep(action.delay_s)
        if action.truncate_to is not None:
            async with lock:
                writer.write(
                    HEADER.pack(int(FrameType.RESULT), len(part))
                    + part[: action.truncate_to]
                )
                with contextlib.suppress(ConnectionError):
                    await writer.drain()
            writer.close()
            return True
        if action.duplicate:
            with contextlib.suppress(ConnectionError):
                await self._send(writer, FrameType.RESULT, part, lock=lock)
        return False

    async def _pump_subscriber(self, writer, subscription, loop, lock) -> None:
        """Serve one shared-stream subscription end to end: forward
        RESULT frames while the publisher's stream runs, then — once
        the output channel drains — collect the subscriber's result
        and send its FINISH summary (or the ERROR that felled the
        stream or this plan's evaluation)."""
        while True:
            part = await loop.run_in_executor(
                self._executor, subscription.next_output, self.result_frame_size
            )
            if part is None:
                break
            if not part:
                continue
            self.metrics.add_bytes_out(len(part))
            try:
                await self._send(writer, FrameType.RESULT, part, lock=lock)
            except ConnectionError:
                return  # client gone; the handler cleans up
        try:
            result = await loop.run_in_executor(
                self._executor, subscription.finish
            )
        except QUERY_ERRORS as exc:
            self._executor.submit(subscription.abort)
            with contextlib.suppress(ConnectionError):
                await self._send(writer, FrameType.ERROR, _one_line(exc), lock=lock)
            return
        with contextlib.suppress(ConnectionError):
            await self._send_result(writer, result, lock)

    async def _fail_stream(self, writer, stream, exc, lock) -> tuple[None, bool]:
        """Send ERROR for a failed shared stream and enter drain mode.

        The abort tears the stream down; each subscriber's pump
        reports the failure on its own connection (their pipelines
        saw the same broadcast error)."""
        self._executor.submit(stream.abort)
        await self._send(writer, FrameType.ERROR, _one_line(exc), lock=lock)
        return None, True

    async def _fail_query(
        self, writer, session, pump, exc, lock
    ) -> tuple[None, None, bool]:
        """Send ERROR, reclaim the slot, and switch to draining mode.

        The abort closes the session's output channel, which ends the
        pump; awaiting it *before* the ERROR frame guarantees no stale
        RESULT frame can trail the error on the wire.  The abort
        itself is awaited too, so by the time the client reads the
        ERROR the slot is reclaimed and the failed-session counter is
        settled — a STATS request right after the ERROR sees them.
        """
        aborted = asyncio.get_running_loop().run_in_executor(
            self._executor, session.abort
        )
        if pump is not None:
            await pump
        await aborted
        await self._send(writer, FrameType.ERROR, _one_line(exc), lock=lock)
        return None, None, True

    async def _send_result(self, writer, result, lock) -> None:
        # The RESULT pump already streamed everything it saw; what is
        # left is the tail finish() drained after the pump stopped.
        output = result.output
        # Slice by characters so every RESULT frame stays valid UTF-8 on
        # its own (the byte size is bounded by 4x the character count);
        # the bytes_out metric counts actual wire bytes.
        step = self.result_frame_size
        for start in range(0, len(output), step):
            part = output[start : start + step].encode("utf-8")
            self.metrics.add_bytes_out(len(part))
            await self._send(writer, FrameType.RESULT, part, lock=lock)
        summary = json.dumps(
            {
                "elapsed_s": round(result.stats.elapsed, 6),
                "watermark": result.stats.watermark,
                "tokens": result.stats.tokens,
                "output_chars": result.stats.output_chars,
            },
            sort_keys=True,
        )
        await self._send(writer, FrameType.FINISH, summary, lock=lock)


class ServerThread:
    """A :class:`GCXServer` running on a background daemon thread.

    Blocking code — tests, ``benchmarks/bench_server.py``, the CI smoke
    job — uses this as a context manager::

        with ServerThread(max_sessions=8) as handle:
            client = GCXClient(handle.host, handle.port)
            ...
    """

    def __init__(self, **server_kwargs):
        self._server_kwargs = server_kwargs
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self.server: GCXServer | None = None
        self.host: str | None = None
        self.port: int | None = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="gcx-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread did not start within 30s")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            with contextlib.suppress(RuntimeError):  # loop already closed
                self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001 - reported to starter
            self._startup_error = exc
        finally:
            self._ready.set()

    async def _amain(self) -> None:
        server = GCXServer(**self._server_kwargs)
        await server.start()
        self.server = server
        self.host = server.host
        self.port = server.port
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await server.shutdown()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
