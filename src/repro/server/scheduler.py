"""Session multiplexing: admission control over a shared plan cache.

The scheduler is the server's policy layer.  It owns one
:class:`~repro.core.engine.GCXEngine` (and therefore one shared
:class:`~repro.core.plan.PlanCache`: every connection compiling the
same query gets the same immutable plan, analysis running once), and
it enforces the only queueing discipline the service has: at most
``max_sessions`` concurrent :class:`~repro.core.session.StreamSession`
instances; everything beyond that is *refused* (the caller sends BUSY),
never queued, so overload degrades into fast rejections instead of
unbounded memory growth.

Per-session flow control is not here — it falls out of the session's
own bounded chunk channel: ``ManagedSession.feed`` blocks while the
channel is full, and the connection handler awaits that call before
reading the next frame, so a fast producer is paused at the socket.
"""

from __future__ import annotations

import itertools
import threading
import time

from repro.core.engine import GCXEngine, RunResult
from repro.core.session import SessionStateError
from repro.server.metrics import ServerMetrics

#: default admission bound of a service
DEFAULT_MAX_SESSIONS = 64

#: default bound on concurrently live shared streams (DESIGN.md §13);
#: subscribers are bounded separately — each holds a session slot
DEFAULT_MAX_STREAMS = 16


def split_admission(max_sessions: int, workers: int) -> list[int]:
    """Split a global admission cap across a worker pool.

    Every worker gets ``max_sessions // workers`` slots and the
    remainder is spread over the first ``max_sessions % workers``
    workers, so the per-worker caps always sum to the global cap
    (DESIGN.md §14) — the fleet as a whole admits exactly as many
    sessions as one process with the same ``--max-sessions`` would.
    Every worker keeps at least one slot, so oversized pools degrade
    into extra capacity rather than dead workers.
    """
    workers = max(1, workers)
    base, remainder = divmod(max(1, max_sessions), workers)
    return [max(1, base + (1 if index < remainder else 0)) for index in range(workers)]


class ManagedSession:
    """One admitted session plus its accounting.

    Wraps a :class:`~repro.core.session.StreamSession` so that exactly
    one release — on :meth:`finish` or :meth:`abort`, whichever comes
    first — returns the admission slot and records the outcome.
    """

    def __init__(self, scheduler: "SessionScheduler", session, session_id: int):
        self._scheduler = scheduler
        self._session = session
        self.id = session_id
        self._opened = time.perf_counter()
        self._released = False
        #: result bytes delivered to the client so far, cumulative
        #: across resumes (:meth:`SessionScheduler.try_resume` seeds it
        #: from the snapshot) — the session-absolute output offset a
        #: SNAPSHOT frame reports (DESIGN.md §16)
        self.delivered_bytes = 0
        #: input offset of the last checkpoint, for the server-driven
        #: ``--checkpoint-interval`` cadence
        self.last_checkpoint_bytes = 0

    def feed(self, chunk: bytes) -> None:
        """Forward one raw input chunk (blocks under backpressure).

        The service hands the CHUNK frame payload over verbatim —
        sessions are bytes-native, so the wire bytes reach the lexer
        without a decode pass.  Byte accounting is the caller's job
        (the service counts the frame payload length).
        """
        self._session.feed(chunk)

    def next_output(
        self, max_bytes: int | None = None, timeout: float | None = None
    ) -> bytes | None:
        """Block for the next serialized output fragment (the RESULT
        pump's feed) — UTF-8 ``bytes``, cut at character boundaries,
        ready to be a RESULT frame payload; ``None`` once evaluation
        ended and all output was taken (see
        :meth:`StreamSession.next_output`)."""
        return self._session.next_output(max_bytes, timeout)

    def finish(self) -> RunResult:
        """Close the input side and collect the result.

        ``result.output`` holds only what no concurrent consumer
        already drained — for the service that is whatever the RESULT
        pump had not yet picked up.
        """
        result = self._session.finish()
        self._scheduler._release(
            self, result, self._session.time_to_first_output
        )
        return result

    def abort(self) -> None:
        """Tear the session down (errors, client gone, shutdown)."""
        self._session.abort()
        self._scheduler._release(self, None)

    # -- checkpointing (DESIGN.md §16) ---------------------------------

    @property
    def checkpointable(self) -> bool:
        return self._session.checkpointable

    @property
    def bytes_fed(self) -> int:
        """Document bytes consumed — the SNAPSHOT input offset."""
        return self._session.bytes_fed

    def freeze(self) -> None:
        self._session.freeze()

    def thaw(self) -> None:
        self._session.thaw()

    def snapshot(self) -> bytes:
        """Encode the frozen session (see
        :meth:`StreamSession.snapshot`)."""
        return self._session.snapshot()


class ManagedSubscriber:
    """One admitted shared-stream subscriber plus its accounting.

    A subscriber holds a regular admission slot — N queries riding one
    stream cost the same admission as N independent sessions; what
    they share is the lex+project work, not the cap — and is released
    exactly once, on :meth:`finish` or :meth:`abort`.
    """

    def __init__(
        self,
        scheduler: "SessionScheduler",
        stream: "ManagedStream",
        subscriber,
        subscriber_id: int,
    ):
        self._scheduler = scheduler
        self.stream = stream
        self._subscriber = subscriber
        self.id = subscriber_id
        self._opened = time.perf_counter()
        self._released = False

    def next_output(
        self, max_bytes: int | None = None, timeout: float | None = None
    ) -> bytes | None:
        """The subscriber's RESULT-pump feed (see
        :meth:`ManagedSession.next_output`)."""
        return self._subscriber.next_output(max_bytes, timeout)

    def finish(self) -> RunResult:
        """Collect this subscriber's result once the stream ended."""
        result = self._subscriber.finish()
        self._scheduler._release_subscriber(
            self, result, self._subscriber.time_to_first_output
        )
        return result

    def abort(self) -> None:
        """Drop the subscription (errors, client gone, shutdown)."""
        self._subscriber.abort()
        self._scheduler._release_subscriber(self, None)


class ManagedStream:
    """One named shared stream plus its accounting.

    Created on first SUBSCRIBE (or PUBLISH) of a name; removed from
    the registry when the publisher finishes or the stream is aborted.
    Wraps a :class:`~repro.multiplex.session.SharedStreamSession`; the
    subscriber set grows through :meth:`SessionScheduler.try_subscribe`
    and freezes at the publisher's first chunk.
    """

    def __init__(self, scheduler: "SessionScheduler", name: str, shared):
        self._scheduler = scheduler
        self.name = name
        self._shared = shared
        self._publisher_bound = False
        self._released = False

    @property
    def fanout(self) -> int:
        return len(self._shared.subscribers)

    @property
    def sealed(self) -> bool:
        return self._shared.sealed

    @property
    def bytes_in(self) -> int:
        return self._shared.bytes_fed

    def feed(self, chunk: bytes) -> None:
        """Forward one raw publisher chunk (blocks under backpressure
        from the slowest subscriber; the first chunk seals the
        subscriber set)."""
        self._shared.feed(chunk)

    def finish(self) -> dict:
        """End of the published input; returns the stream summary."""
        summary = self._shared.finish()
        self._scheduler._release_stream(self, failed=False)
        return summary

    def abort(self) -> None:
        """Tear the stream down, subscribers included."""
        self._shared.abort()
        self._scheduler._release_stream(self, failed=True)

    def occupancy(self) -> dict:
        """One live stream's line in the STATS multiplex section."""
        return {
            "name": self.name,
            "subscribers": self.fanout,
            "sealed": self.sealed,
            "bytes_in": self.bytes_in,
        }


class SessionScheduler:
    """Admit sessions while capacity lasts; refuse cleanly beyond it."""

    def __init__(
        self,
        engine: GCXEngine | None = None,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        metrics: ServerMetrics | None = None,
        max_pending_output: int | None = None,
        max_streams: int = DEFAULT_MAX_STREAMS,
    ):
        #: all sessions share this engine's plan cache; record_series is
        #: off because a server never plots per-token series and the
        #: series would grow with the document
        self.engine = engine if engine is not None else GCXEngine(record_series=False)
        self.max_sessions = max(1, max_sessions)
        self.metrics = metrics if metrics is not None else ServerMetrics()
        #: output-side backpressure bound handed to every admitted
        #: session: beyond this many undrained serialized characters the
        #: evaluator pauses until the consumer (the service's RESULT
        #: pump) catches up.  ``None`` = unbounded — the right default
        #: for direct callers that only read output at ``finish()``.
        self.max_pending_output = max_pending_output
        self.max_streams = max(1, max_streams)
        self._lock = threading.Lock()
        self._active = 0
        self._ids = itertools.count(1)
        #: live shared streams by name (DESIGN.md §13)
        self._streams: dict[str, ManagedStream] = {}

    @property
    def active(self) -> int:
        """Sessions currently holding an admission slot."""
        with self._lock:
            return self._active

    def try_admit(
        self, query_text: str, checkpointable: bool = False
    ) -> ManagedSession | None:
        """Admit a session for *query_text*, or ``None`` when full.

        Compilation goes through the shared plan cache; compile errors
        (unparsable query, unsupported fragment) propagate to the
        caller after the provisional slot is returned.  *checkpointable*
        opens the session on the freeze-safe tiers (fused projector and
        operator-program VM) so a later CHECKPOINT can freeze and
        encode it (DESIGN.md §16).
        """
        with self._lock:
            if self._active >= self.max_sessions:
                self.metrics.session_rejected()
                return None
            self._active += 1
        try:
            plan = self.engine.compile(query_text)
            session = self.engine.session(
                plan,
                max_pending_output=self.max_pending_output,
                # bytes in (raw CHUNK payloads), bytes out (RESULT
                # payloads): no decode/encode pass on the wire path.
                binary_output=True,
                checkpointable=checkpointable,
            )
        except BaseException:
            with self._lock:
                self._active -= 1
            raise
        self.metrics.session_opened()
        return ManagedSession(self, session, next(self._ids))

    def try_resume(self, blob: bytes) -> ManagedSession | None:
        """Rebuild a checkpointed session from *blob*, or ``None`` when
        full.

        The blob carries its own plan text, so resumption works on any
        worker — including one that never saw the original OPEN; the
        plan compiles through this scheduler's shared cache.  Snapshot
        errors (stale format version, plan mismatch, truncation)
        propagate after the provisional slot is returned, exactly like
        compile errors in :meth:`try_admit`.
        """
        with self._lock:
            if self._active >= self.max_sessions:
                self.metrics.session_rejected()
                return None
            self._active += 1
        try:
            session = self.engine.restore_session(
                blob, max_pending_output=self.max_pending_output
            )
        except BaseException:
            with self._lock:
                self._active -= 1
            raise
        self.metrics.session_opened()
        self.metrics.session_resumed()
        managed = ManagedSession(self, session, next(self._ids))
        managed.last_checkpoint_bytes = session.bytes_fed
        # Output offsets are session-absolute across resumes: a later
        # SNAPSHOT must report the cumulative delivered position, not
        # bytes sent over this connection, because the client rolls its
        # assembled output back to exactly that offset.
        managed.delivered_bytes = session.delivered_output
        return managed

    def _release(
        self,
        managed: ManagedSession,
        result: RunResult | None,
        time_to_first_output: float | None = None,
    ) -> None:
        with self._lock:
            if managed._released:
                return
            managed._released = True
            self._active -= 1
        if result is not None:
            self.metrics.session_finished(
                time.perf_counter() - managed._opened,
                result.stats.watermark,
                time_to_first_result=time_to_first_output,
            )
        else:
            self.metrics.session_failed()

    # ------------------------------------------------------------------
    # shared streams (DESIGN.md §13)
    # ------------------------------------------------------------------

    def _stream_for(self, name: str) -> ManagedStream | None:
        """Get or create the live stream *name* (``None`` when the
        registry is at ``max_streams``).  Caller holds ``_lock``."""
        stream = self._streams.get(name)
        if stream is None:
            if len(self._streams) >= self.max_streams:
                return None
            stream = ManagedStream(self, name, self.engine.shared_session())
            self._streams[name] = stream
            self.metrics.stream_opened()
        return stream

    def try_subscribe(
        self, stream_name: str, query_text: str
    ) -> ManagedSubscriber | None:
        """Attach a query to the named shared stream, or ``None`` when
        full (session cap — every subscriber holds a session slot — or
        stream cap for a first subscriber).

        Compile errors propagate after the provisional slot is
        returned; subscribing to a stream that already started
        streaming raises ``SessionStateError`` (the caller answers
        ERROR, exactly like a failed OPEN).
        """
        with self._lock:
            if self._active >= self.max_sessions:
                self.metrics.session_rejected()
                return None
            stream = self._stream_for(stream_name)
            if stream is None:
                self.metrics.session_rejected()
                return None
            self._active += 1
        try:
            plan = self.engine.compile(query_text)
            subscriber = stream._shared.subscribe(
                plan,
                max_pending_output=self.max_pending_output,
                binary_output=True,
            )
        except BaseException:
            with self._lock:
                self._active -= 1
            raise
        self.metrics.session_opened()
        self.metrics.subscriber_opened(stream.fanout)
        return ManagedSubscriber(self, stream, subscriber, next(self._ids))

    def try_publish(self, stream_name: str) -> ManagedStream | None:
        """Bind a publisher to the named shared stream, or ``None``
        when the registry is at ``max_streams``.

        Publishing an (as yet) subscriber-less name is allowed — the
        stream then projects everything away in one skip.  A second
        publisher for a live name raises ``SessionStateError``.
        """
        with self._lock:
            stream = self._stream_for(stream_name)
            if stream is None:
                return None
            if stream._publisher_bound:
                raise SessionStateError(
                    f"stream {stream_name!r} already has a publisher"
                )
            stream._publisher_bound = True
        return stream

    def _release_subscriber(
        self,
        managed: ManagedSubscriber,
        result: RunResult | None,
        time_to_first_output: float | None = None,
    ) -> None:
        with self._lock:
            if managed._released:
                return
            managed._released = True
            self._active -= 1
        if result is not None:
            self.metrics.session_finished(
                time.perf_counter() - managed._opened,
                result.stats.watermark,
                time_to_first_result=time_to_first_output,
            )
            self.metrics.subscriber_finished()
        else:
            self.metrics.session_failed()
            self.metrics.subscriber_failed()

    def _release_stream(self, managed: ManagedStream, failed: bool) -> None:
        with self._lock:
            if managed._released:
                return
            managed._released = True
            if self._streams.get(managed.name) is managed:
                del self._streams[managed.name]
        if failed:
            self.metrics.stream_failed()
        else:
            self.metrics.stream_finished(managed.fanout)

    def _multiplex_snapshot(self) -> dict:
        """Live shared-stream occupancy for the STATS frame."""
        with self._lock:
            streams = list(self._streams.values())
        live = [stream.occupancy() for stream in streams]
        product = {"states": 0, "element_transitions": 0, "text_transitions": 0}
        for stream in streams:
            plan = stream._shared.multiplex_plan
            if plan is not None:
                stats = plan.stats()
                for key in product:
                    product[key] += stats[key]
        return {"live": live, "product_dfa": product}

    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Service metrics plus the shared plan cache's counters, the
        compiled kernels' transition-memo occupancy, the operator
        programs' footprint and the shared-stream occupancy."""
        return self.metrics.snapshot(
            plan_cache=self.engine.plan_cache.stats,
            dfa=self.engine.plan_cache.dfa_stats(),
            programs=self.engine.plan_cache.program_stats(),
            multiplex=self._multiplex_snapshot(),
        )
