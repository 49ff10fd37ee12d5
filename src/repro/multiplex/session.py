"""Shared-stream sessions: one lex+project pass serving N query plans.

The paper's projection argument — one streaming pass discards
everything a query does not need — stops amortizing at one query when
N sessions over the same document each lex and project N times.
:class:`SharedStreamSession` takes it to the limit (DESIGN.md §13):

* a single **driver** thread runs the bytes-domain lexer over the
  pushed document exactly once, walking the subscriber set's
  :class:`~repro.core.matcher.ProductDFA`.  Subtrees dead in *every*
  subscribed plan are fast-forwarded by
  :meth:`~repro.xmlio.lexer_bytes.ByteXmlLexer.skip_subtree` — scanned
  as raw bytes, never event-ified — and enter the fan-out as one
  ``(skip, count)`` record;
* every other event is appended to a shared **batch** (one immutable
  list published to all subscribers — the fan-out cost is one queue
  hand-off per batch per subscriber, not per event);
* each subscriber owns a bounded batch queue, a replay "lexer"
  (:class:`_EventReplay`) that serves the broadcast events through the
  ``next_event()`` / ``skip_subtree()`` surface the compiled
  projectors already consume, and an unmodified per-plan pipeline —
  DFA-table projector, VM evaluator, buffer, stats, output
  channel — running on its own worker thread.

Because a subscriber's projector sees the same significant-event
sequence its own lexer would have produced — driver-level skips
replay as the same bulk counts, per-plan skips count the broadcast
events one by one — every subscriber's output, watermark series and
role statistics are **byte-identical** to an independent single-plan
:class:`~repro.core.session.StreamSession` over the same document, at
every chunking (the differential suite in ``tests/test_multiplex.py``
enforces this).

Backpressure composes end to end: a slow subscriber's bounded batch
queue blocks the driver, the driver stops pulling from the lexer, the
input chunk channel fills, and ``feed()`` blocks the producer — one
slow consumer throttles the shared stream rather than growing
unbounded buffers (the server caps the damage with its bounded
per-subscriber output channels, which pause only the slow plan's
evaluator, not the driver, until that subscriber's RESULT pump
catches up).

Typical use::

    engine = GCXEngine()
    shared = engine.shared_session()
    subs = [shared.subscribe(engine.compile(q)) for q in queries]
    for chunk in chunks:                    # one ingest stream
        shared.feed(chunk)
    shared.finish()                         # end of input
    results = [sub.finish() for sub in subs]  # N independent RunResults
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from repro.core.buffer import Buffer
from repro.core.plan import QueryPlan
from repro.core.session import (
    DEFAULT_MAX_PENDING_CHUNKS,
    SessionStateError,
    _ChunkChannel,
    _OutputChannel,
    build_pipeline,
)
from repro.core.stats import BufferStats
from repro.multiplex.plan import MultiplexPlan
from repro.xmlio.lexer_bytes import ByteXmlLexer
from repro.xmlio.writer import XmlWriter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import RunResult

#: Events per broadcast batch: large enough that the per-batch queue
#: hand-off (one lock round per subscriber) is noise, small enough
#: that subscribers start work while the driver is still scanning.
DEFAULT_BATCH_EVENTS = 256

#: Upper bound on batches queued per subscriber ahead of its worker.
#: A small bound gives backpressure: the driver cannot race megabytes
#: of events ahead of the slowest subscriber.
DEFAULT_MAX_PENDING_BATCHES = 8

#: Broadcast record kinds beyond the lexer's EVENT_START/END/TEXT
#: (0/1/2): a subtree skipped for every plan, and a driver failure.
_REC_SKIP = 3
_REC_ERROR = 4


class _EventReplay:
    """Lexer facade over the driver's broadcast batches.

    Exposes exactly the surface the compiled projectors bind —
    ``next_event()`` and ``skip_subtree()`` — so the per-subscriber
    pipeline is the stock single-plan machinery, fed from the fan-out
    queue instead of a private lexer.

    ``skip_subtree`` replays a subtree this plan is dead for: events
    other plans needed are counted one by one (exactly what the
    interpreting oracle records token-wise), and nested driver-level
    skip records contribute their bulk counts — the sum equals what
    this subscriber's own lexer would have returned, so the stats
    series stays byte-identical.
    """

    __slots__ = ("_get", "_batch", "_index")

    def __init__(self, get):
        self._get = get
        self._batch: list = []
        self._index = 0

    def _refill(self) -> bool:
        """Pull the next batch; False at end of stream."""
        batch = self._get()
        if batch is None:
            return False
        self._batch = batch
        self._index = 0
        return True

    def next_event(self):
        index = self._index
        batch = self._batch
        if index >= len(batch):
            if not self._refill():
                return None
            batch = self._batch
            index = 0
        item = batch[index]
        self._index = index + 1
        if item[0] >= _REC_SKIP:
            if item[0] == _REC_ERROR:
                raise item[1]
            raise AssertionError(  # pragma: no cover - protocol invariant
                "skip record outside skip_subtree (driver dead implies "
                "every subscriber dead)"
            )
        return item

    def skip_subtree(self) -> int:
        depth = 1
        count = 0
        while True:
            batch = self._batch
            size = len(batch)
            index = self._index
            if index >= size:
                if not self._refill():
                    raise RuntimeError(  # pragma: no cover - driver errors first
                        "event stream ended inside a skipped subtree"
                    )
                continue
            while index < size:
                item = batch[index]
                index += 1
                kind = item[0]
                if kind == 0:
                    depth += 1
                    count += 1
                elif kind == 1:
                    depth -= 1
                    count += 1
                    if not depth:
                        self._index = index
                        return count
                elif kind == 2:
                    count += 1
                elif kind == _REC_SKIP:
                    # The subtree of the START just counted was consumed
                    # at lexer speed for everyone, end tag included.
                    depth -= 1
                    count += item[1]
                    if not depth:
                        self._index = index
                        return count
                else:
                    self._index = index
                    raise item[1]
            self._index = index


class StreamSubscriber:
    """One plan riding a shared stream: the consumer-side half of a
    :class:`~repro.core.session.StreamSession` (everything but
    ``feed()``, which belongs to the shared ingest).

    Construct via :meth:`SharedStreamSession.subscribe`.  Results
    stream through the same bounded output-channel contract as a
    single-plan session — ``drain_output()`` / ``next_output()`` /
    ``on_output`` / ``output_stream`` / ``binary_output`` — and
    ``finish()`` (call it once the publisher finished the input)
    returns the familiar :class:`~repro.core.engine.RunResult`,
    byte-identical to an independent run of the same plan.
    """

    def __init__(
        self,
        plan: QueryPlan,
        *,
        gc_enabled: bool = True,
        record_series: bool = True,
        drain: bool = True,
        compiled_eval: bool = True,
        output_stream=None,
        on_output=None,
        max_pending_output: int | None = None,
        max_pending_batches: int = DEFAULT_MAX_PENDING_BATCHES,
        binary_output: bool = False,
    ):
        if plan.dfa is None:
            raise SessionStateError(
                "shared streams need compiled plans (plan has no DFA)"
            )
        self.plan = plan
        self._drain = drain
        self._binary_output = binary_output
        self._queue = _ChunkChannel(max_pending_batches)
        self._replay = _EventReplay(self._queue.get)
        self._output = _OutputChannel(
            limit=max_pending_output,
            callback=on_output,
            passthrough=output_stream,
            binary=binary_output,
        )
        self._stats = BufferStats(record_series=record_series)
        self._buffer = Buffer(self._stats)
        # The per-plan pipeline is the stock single-plan machinery —
        # only the lexer seat is taken by the replay facade (which has
        # no batch projection surface, so the fused tier never engages).
        self._writer = XmlWriter(stream=self._output)
        self._projector, self._evaluator = build_pipeline(
            plan, self._replay, self._buffer, self._stats, self._writer,
            gc_enabled, compiled_eval=compiled_eval,
        )
        self._error: BaseException | None = None
        self._result = None
        self._started = time.perf_counter()
        self._worker = threading.Thread(
            target=self._run, name="gcx-mux-subscriber", daemon=True
        )
        self._worker.start()

    # -- worker side ---------------------------------------------------

    def _run(self) -> None:
        try:
            self._evaluator.run()
            if self._drain:
                self._projector.run_to_end()
        except BaseException as exc:  # noqa: BLE001 - reraised at finish()
            self._error = exc
        finally:
            # Release the driver (late broadcasts are irrelevant now)
            # and wake any consumer blocked on the output channel.
            self._queue.abandon()
            self._output.close()

    # -- consumer side -------------------------------------------------

    def drain_output(self):
        """Serialized output produced since the last drain (see
        :meth:`StreamSession.drain_output`)."""
        return self._output.drain()

    def next_output(
        self, max_chars: int | None = None, timeout: float | None = None
    ):
        """Block for the next output fragment (see
        :meth:`StreamSession.next_output`)."""
        return self._output.next(max_chars, timeout)

    def finish(self) -> "RunResult":
        """Collect this subscriber's :class:`RunResult` (idempotent).

        Call after the shared input ended (``SharedStreamSession.
        finish``): joins the worker, re-raises any pipeline failure —
        malformed XML broadcast by the driver, or this plan's own
        evaluation error — and returns the result with exactly the
        stats an independent session would report.
        """
        if self._result is not None:
            return self._result
        self._worker.join()
        if self._error is not None:
            raise self._error
        from repro.core.engine import RunResult  # circular at import time

        stats = self._stats
        stats.elapsed = time.perf_counter() - self._started
        stats.final_buffered = self._buffer.live_count
        self._buffer.clear()
        output = self._output.drain()
        if self._binary_output:
            output = output.decode("utf-8")
        stats.output_chars = self._writer.chars_written
        self._result = RunResult(output, stats, self.plan)
        return self._result

    def abort(self) -> None:
        """Drop out of the shared stream without collecting a result."""
        self._queue.abandon()
        self._output.abandon()
        self._worker.join()
        self._output.close()

    def fail(self, exc: BaseException) -> None:
        """Abort and make :meth:`finish` re-raise *exc* — the stream
        broke off before end of input (publisher gone, stream torn
        down), so a silently truncated "result" must not look like a
        completed run."""
        if self._result is None and self._error is None:
            self._error = exc
        self.abort()

    @property
    def finished(self) -> bool:
        return self._result is not None

    @property
    def failed(self) -> bool:
        """True when the pipeline failed; :meth:`finish` will re-raise."""
        return self._error is not None

    @property
    def time_to_first_output(self) -> float | None:
        """Seconds from subscription to the first output fragment."""
        first = self._output.first_output_at
        return None if first is None else first - self._started


class SharedStreamSession:
    """One pushed document multiplexed to N subscribed plans.

    Lifecycle: construct, :meth:`subscribe` each plan, then
    :meth:`feed` chunks — the first chunk (or :meth:`finish`) *seals*
    the subscriber set, builds the :class:`MultiplexPlan` product and
    starts the driver; subscribing after that raises.  ``finish()``
    closes the input and joins the driver; each subscriber's result is
    then collected independently via ``StreamSubscriber.finish()``.

    Input failures (malformed XML, truncation) raise from
    ``feed()``/``finish()`` *and* are broadcast, so every subscriber's
    ``finish()`` re-raises the same failure — exactly what independent
    sessions over the same bytes would do.
    """

    def __init__(
        self,
        *,
        gc_enabled: bool = True,
        record_series: bool = True,
        drain: bool = True,
        compiled_eval: bool = True,
        max_pending_chunks: int = DEFAULT_MAX_PENDING_CHUNKS,
        max_pending_batches: int = DEFAULT_MAX_PENDING_BATCHES,
        batch_events: int = DEFAULT_BATCH_EVENTS,
    ):
        self._subscriber_defaults = {
            "gc_enabled": gc_enabled,
            "record_series": record_series,
            "drain": drain,
            "compiled_eval": compiled_eval,
            "max_pending_batches": max_pending_batches,
        }
        self._batch_events = max(1, batch_events)
        self._channel = _ChunkChannel(max_pending_chunks)
        self._lexer = ByteXmlLexer(refill=self._channel.get)
        # subscribe() and the sealing feed() may race from different
        # threads (the server admits subscribers while a publisher
        # connection starts feeding); the lock makes sealing atomic.
        self._seal_lock = threading.Lock()
        self._subscribers: list[StreamSubscriber] = []
        self._plan: MultiplexPlan | None = None
        self._driver: threading.Thread | None = None
        self._error: BaseException | None = None
        self._summary: dict | None = None
        self._bytes_fed = 0
        self._started = time.perf_counter()

    # ------------------------------------------------------------------
    # assembling the subscriber set
    # ------------------------------------------------------------------

    def subscribe(
        self,
        plan: QueryPlan,
        output_stream=None,
        on_output=None,
        max_pending_output: int | None = None,
        binary_output: bool = False,
    ) -> StreamSubscriber:
        """Add *plan* to the stream; allowed until the first ``feed``.

        The same plan may be subscribed several times (each rider gets
        its own buffer, stats and output channel).
        """
        with self._seal_lock:
            if self._plan is not None:
                raise SessionStateError(
                    "stream already sealed: subscribe before the first feed()"
                )
            subscriber = StreamSubscriber(
                plan,
                output_stream=output_stream,
                on_output=on_output,
                max_pending_output=max_pending_output,
                binary_output=binary_output,
                **self._subscriber_defaults,
            )
            self._subscribers.append(subscriber)
        return subscriber

    @property
    def subscribers(self) -> tuple[StreamSubscriber, ...]:
        return tuple(self._subscribers)

    @property
    def sealed(self) -> bool:
        """True once the subscriber set is frozen and the driver runs."""
        return self._plan is not None

    @property
    def multiplex_plan(self) -> MultiplexPlan | None:
        """The merged plan (``None`` until the stream is sealed)."""
        return self._plan

    @property
    def bytes_fed(self) -> int:
        """Total input bytes accepted so far — counted **once**, no
        matter how many plans ride the stream."""
        return self._bytes_fed

    def _seal(self) -> None:
        self._plan = MultiplexPlan.for_plans(
            subscriber.plan for subscriber in self._subscribers
        )
        self._driver = threading.Thread(
            target=self._drive, name="gcx-mux-driver", daemon=True
        )
        self._driver.start()

    # ------------------------------------------------------------------
    # the driver (one lex+project pass for everyone)
    # ------------------------------------------------------------------

    def _drive(self) -> None:
        lexer = self._lexer
        product = self._plan.product
        element_memo = product._element_memo
        text_memo = product._text_memo
        compute_element = product.compute_element
        compute_text = product.text
        next_event = lexer.next_event
        skip_subtree = lexer.skip_subtree
        queues = [subscriber._queue for subscriber in self._subscribers]
        stack = [product.start]
        push = stack.append
        pop = stack.pop
        limit = self._batch_events
        batch: list = []
        append = batch.append
        try:
            while True:
                event = next_event()
                if event is None:
                    break
                kind = event[0]
                if kind == 0:  # EVENT_START
                    state = stack[-1]
                    entry = element_memo[state].get(event[1])
                    if entry is None:
                        entry = compute_element(state, event[1])
                    child, parent, dead = entry
                    if parent != state:
                        stack[-1] = parent
                    append(event)
                    if dead:
                        # Dead in every subscribed plan: consume the
                        # subtree as raw bytes, broadcast only the count.
                        append((_REC_SKIP, skip_subtree()))
                    else:
                        push(child)
                elif kind == 1:  # EVENT_END
                    pop()
                    append(event)
                else:  # EVENT_TEXT
                    state = stack[-1]
                    parent = text_memo[state]
                    if parent is None:
                        parent = compute_text(state)
                    if parent != state:
                        stack[-1] = parent
                    append(event)
                if len(batch) >= limit:
                    for queue in queues:
                        queue.put(batch)
                    batch = []
                    append = batch.append
        except BaseException as exc:  # noqa: BLE001 - broadcast + reraised
            self._error = exc
            append((_REC_ERROR, exc))
        finally:
            if batch:
                for queue in queues:
                    queue.put(batch)
            for queue in queues:
                queue.close()
            # Unblock any producer; late input is irrelevant now.
            self._channel.abandon()

    # ------------------------------------------------------------------
    # caller side (the shared push interface)
    # ------------------------------------------------------------------

    def feed(self, chunk: bytes | str) -> "SharedStreamSession":
        """Hand the next input chunk to the shared stream.

        The first call seals the subscriber set and starts the driver.
        ``bytes`` are the native path; ``str`` is UTF-8-encoded once.
        Blocks when the slowest subscriber is more than a few batches
        behind (backpressure).
        """
        if self._summary is not None:
            raise SessionStateError("stream already finished")
        if self._plan is None:
            with self._seal_lock:
                if self._plan is None:
                    self._seal()
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

    def finish(self) -> dict:
        """Signal end of input; returns an ingest summary (idempotent).

        Joins the driver — every event has been broadcast when this
        returns — and re-raises any input-side failure (which each
        subscriber's ``finish()`` will also re-raise, matching the
        independent-session contract).  Per-plan results are collected
        from the subscribers, not here.
        """
        if self._summary is not None:
            return self._summary
        if self._plan is None:
            with self._seal_lock:
                if self._plan is None:
                    self._seal()
        self._channel.close()
        self._driver.join()
        self._raise_pending()
        self._summary = {
            "subscribers": len(self._subscribers),
            "bytes_in": self._bytes_fed,
            "elapsed_s": round(time.perf_counter() - self._started, 6),
            "product_dfa": self._plan.stats(),
        }
        return self._summary

    def abort(self) -> None:
        """Tear the stream down: driver, then every subscriber.

        Aborting a stream that did not finish cleanly is a *failure*
        for everyone still riding it: their ``finish()`` raises
        instead of presenting a truncated document as a completed run.
        """
        if self._summary is None and self._error is None:
            self._error = SessionStateError(
                "shared stream aborted before end of input"
            )
        exc = self._error
        # Poison every unfinished subscriber BEFORE waking its worker:
        # an abandoned queue reads as end-of-stream, and a worker that
        # runs off the end of truncated input must find the error
        # already in place — not complete first and hand a consumer an
        # empty "result" in the window before fail() lands.
        if exc is not None:
            for subscriber in self._subscribers:
                if subscriber._result is None and subscriber._error is None:
                    subscriber._error = exc
        self._channel.abandon()
        self._channel.close()
        # Release the driver first — it may be blocked broadcasting
        # into a full subscriber queue.
        for subscriber in self._subscribers:
            subscriber._queue.abandon()
        if self._driver is not None:
            self._driver.join()
        for subscriber in self._subscribers:
            subscriber.abort()

    def _raise_pending(self) -> None:
        if self._error is not None:
            # Sticky, like StreamSession: every later feed()/finish()
            # re-raises the same failure with the driver gone.
            self._channel.close()
            if self._driver is not None:
                self._driver.join()
            raise self._error
