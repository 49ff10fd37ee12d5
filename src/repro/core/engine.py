"""GCXEngine: the user-facing facade of the reproduction.

Ties the pipeline together exactly as the paper's Figure 2 sketches:
query → static analysis (projection paths, roles, signOff insertion) →
runtime (stream pre-projector → buffer manager → pull evaluator) — but
split into a **compile-once / stream-many** architecture (DESIGN.md §1):

* :meth:`GCXEngine.compile` produces an immutable
  :class:`~repro.core.plan.QueryPlan`, cached in a per-engine LRU
  (:class:`~repro.core.plan.PlanCache`) keyed by the normalized query
  text — static analysis runs once per distinct query, no matter how
  many documents follow;
* :meth:`GCXEngine.run` evaluates a plan over one document, accepting a
  complete string or UTF-8 ``bytes``, a file-like object (read in
  bounded chunks; open binary files for the zero-copy bytes path,
  DESIGN.md §11), or any iterable of chunks;
* :meth:`GCXEngine.session` opens a push-based
  :class:`~repro.core.session.StreamSession` that accepts XML in
  arbitrary chunks via ``feed()`` / ``finish()`` while evaluation and
  active garbage collection progress concurrently.

Typical use::

    from repro import GCXEngine

    engine = GCXEngine()

    # one-shot (compiles, cached for next time):
    result = engine.query(query_text, xml_text)
    print(result.output)
    print(result.stats.summary())

    # compile once, stream many (binary reads: the lexer scans the
    # raw bytes and decodes text lazily):
    plan = engine.compile(query_text)
    for path in documents:
        with open(path, "rb") as handle:
            print(engine.run(plan, handle).stats.summary())

    # push chunks as they arrive (e.g. from a socket):
    session = engine.session(plan)
    for chunk in chunks:
        session.feed(chunk)
    result = session.finish()

Ablation switches:

* ``gc_enabled=False`` — signOff statements are not executed: the
  buffer degenerates to a statically projected document (what a
  projection-only system buffers).
* ``first_witness=False`` — existence tests buffer every witness
  instead of only the first (drops the ``[1]`` predicates).
* ``compiled=False`` — run the interpreting NFA projector instead of
  the compiled lazy-DFA kernel (DESIGN.md §9).  Observable behaviour
  is byte-identical either way; the switch exists for differential
  testing and for benchmarking the kernel against its oracle.
* ``compiled_eval=False`` — run the interpreting
  :class:`~repro.core.evaluator.PullEvaluator` instead of the compiled
  operator-program VM (DESIGN.md §10).  Again byte-identical; again an
  oracle switch.  ``gcx run --interpreted`` sets both to ``False``.

With both left on, pull runs, push sessions and restored durable
sessions run one pipeline: the fused lexer front-end (DESIGN.md §15)
where the plan has a lexer kernel and the source is bytes, the DFA
tables otherwise, then the operator-program VM.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.analysis import analyze_query
from repro.core.buffer import Buffer
from repro.core.matcher import PathDFA, PathMatcher
from repro.core.plan import CompiledQuery, PlanCache, QueryPlan
from repro.core.program import ProgramCompileError, compile_program
from repro.core.projector import generate_lexer_kernel
from repro.core.session import StreamSession, build_pipeline
from repro.core.signoff import insert_signoffs
from repro.core.stats import BufferStats
from repro.xmlio.lexer import make_lexer
from repro.xmlio.writer import XmlWriter
from repro.xquery.normalize import normalize_query
from repro.xquery.parser import parse_query
from repro.xquery.pretty import pretty_print

__all__ = [
    "CompiledQuery",
    "DEFAULT_CHUNK_SIZE",
    "GCXEngine",
    "QueryPlan",
    "RunResult",
]

#: Default read size when streaming from a file-like object.
DEFAULT_CHUNK_SIZE = 64 * 1024


def _file_chunks(handle, chunk_size: int):
    """Yield *handle* in ``chunk_size`` reads until exhausted."""
    while True:
        chunk = handle.read(chunk_size)
        if not chunk:
            return
        yield chunk


def _try_compile_program(rewritten):
    """Lower the rewritten query into an operator program, or ``None``
    when the query is outside the compiled fragment (runs then use the
    interpreting evaluator — a fallback, never a failure)."""
    try:
        return compile_program(rewritten)
    except ProgramCompileError:
        return None


@dataclass
class RunResult:
    """Outcome of evaluating one compiled query over one document."""

    output: str
    stats: BufferStats
    compiled: QueryPlan


class GCXEngine:
    """Streaming XQuery engine with active garbage collection."""

    name = "gcx"

    #: namespace under which this engine's plans are cached; subclasses
    #: with a different compile pipeline must override it.
    plan_namespace = "gcx"

    def __init__(
        self,
        gc_enabled: bool = True,
        first_witness: bool = True,
        record_series: bool = True,
        drain: bool = True,
        plan_cache: PlanCache | None = None,
        compiled: bool = True,
        compiled_eval: bool = True,
    ):
        self.gc_enabled = gc_enabled
        self.first_witness = first_witness
        self.record_series = record_series
        self.drain = drain
        #: drive streams through the compiled lazy-DFA kernel; False
        #: falls back to the interpreting NFA projector (the oracle).
        self.compiled = compiled
        #: evaluate through the compiled operator-program VM; False
        #: falls back to the interpreting PullEvaluator (the oracle).
        self.compiled_eval = compiled_eval
        #: LRU of compiled plans; pass a shared :class:`PlanCache` to
        #: let several engines reuse each other's compilations.
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()

    # ------------------------------------------------------------------
    # compilation (the plan layer)
    # ------------------------------------------------------------------

    def compile(self, query_text: str) -> QueryPlan:
        """Parse, normalize and statically analyze *query_text*.

        Cached: recompiling the same (or a whitespace-variant) query
        returns the shared immutable plan without re-running analysis.

        Raises:
            XQueryParseError / NormalizationError / AnalysisError /
            MatcherError: when the query is outside the supported
            fragment.
        """
        return self.plan_cache.get_or_compile(
            query_text,
            self._compile,
            namespace=self._cache_namespace(),
            canonicalize_fn=self._canonicalize,
        )

    def _cache_namespace(self) -> str:
        # first_witness changes the derived roles, so plans must not
        # leak between engines that disagree on it.
        return f"{self.plan_namespace}:fw={int(self.first_witness)}"

    def _canonicalize(self, query_text: str):
        """Parse + normalize only — enough for the cache to decide
        whether an equivalent plan already exists, without paying for
        static analysis."""
        parsed = parse_query(query_text)
        normalized = normalize_query(parsed)
        return pretty_print(normalized), (parsed, normalized)

    def _compile(self, query_text: str, context=None) -> QueryPlan:
        """The uncached compile pipeline (one full static analysis)."""
        if context is None:
            parsed = parse_query(query_text)
            normalized = normalize_query(parsed)
        else:
            parsed, normalized = context
        analysis = analyze_query(normalized, first_witness=self.first_witness)
        rewritten = insert_signoffs(normalized, analysis)
        matcher_spec = [(role.name, role.path) for role in analysis.roles]
        matcher = PathMatcher(matcher_spec)
        dfa = PathDFA(matcher)
        program = _try_compile_program(rewritten)
        return QueryPlan(
            query_text,
            parsed,
            normalized,
            analysis,
            rewritten,
            matcher,
            dfa=dfa,
            program=program,
            # Certified inside the plan cache's single-flight, so N
            # racing sessions of one query trigger exactly one walk.
            lexer_kernel=generate_lexer_kernel(dfa, analysis),
        )

    # ------------------------------------------------------------------
    # execution (the stream layer)
    # ------------------------------------------------------------------

    def run(
        self,
        compiled: QueryPlan,
        xml_source,
        output_stream=None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> RunResult:
        """Evaluate a compiled plan over one document (pull mode).

        Args:
            compiled: result of :meth:`compile`.
            xml_source: the document — a complete ``str`` or UTF-8
                ``bytes``, a file-like object with ``read()`` (read
                incrementally in *chunk_size* pieces; binary handles
                take the bytes-domain lexer), or an iterable of chunks
                (consumed lazily; the raw input is never joined).
            output_stream: optional sink with ``write()``.  When given,
                results are emitted incrementally as evaluation
                progresses and ``RunResult.output`` is empty.
            chunk_size: read size for file-like sources.
        """
        if hasattr(xml_source, "read"):
            xml_source = _file_chunks(xml_source, chunk_size)
        stats = BufferStats(record_series=self.record_series)
        buffer = Buffer(stats)
        lexer = make_lexer(xml_source)
        # The plan's matcher/dfa are immutable resp. logically immutable
        # (per-stream match state lives on the projector's stack), so
        # concurrent runs share them.
        writer = XmlWriter(stream=output_stream)
        projector, evaluator = build_pipeline(
            compiled, lexer, buffer, stats, writer, self.gc_enabled,
            compiled=self.compiled, compiled_eval=self.compiled_eval,
        )
        started = time.perf_counter()
        evaluator.run()
        if self.drain:
            projector.run_to_end()
        stats.elapsed = time.perf_counter() - started
        stats.final_buffered = buffer.live_count
        buffer.clear()
        output = writer.getvalue()
        stats.output_chars = writer.chars_written
        return RunResult(output, stats, compiled)

    def session(
        self,
        query: QueryPlan | str,
        output_stream=None,
        max_pending_chunks: int | None = None,
        on_output=None,
        max_pending_output: int | None = None,
        binary_output: bool = False,
        checkpointable: bool = False,
    ) -> StreamSession:
        """Open a push-based streaming session (see
        :class:`~repro.core.session.StreamSession`).

        Args:
            query: a compiled :class:`QueryPlan`, or query text (which
                is compiled through the plan cache).
            output_stream: optional incremental result sink.
            max_pending_chunks: bound on chunks queued ahead of
                evaluation (backpressure); defaults to the session
                module's :data:`DEFAULT_MAX_PENDING_CHUNKS`.
            on_output: optional callback invoked (on the session
                worker) with each serialized output fragment as it is
                produced.
            max_pending_output: bound in characters (bytes under
                *binary_output*) on produced-but-undrained output;
                evaluation pauses beyond it until the consumer drains
                (``None`` = unbounded).
            binary_output: accumulate serialized output as UTF-8
                ``bytes`` (encoded once as produced);
                ``drain_output()`` / ``next_output()`` then return
                ``bytes`` ready for the wire.
            checkpointable: allow ``snapshot()``/``freeze()`` on this
                session (DESIGN.md §16).  It runs the same pipeline as
                any other session of *query*.
        """
        plan = query if isinstance(query, QueryPlan) else self.compile(query)
        kwargs = {}
        if max_pending_chunks is not None:
            kwargs["max_pending_chunks"] = max_pending_chunks
        return StreamSession(
            plan,
            gc_enabled=self.gc_enabled,
            record_series=self.record_series,
            drain=self.drain,
            output_stream=output_stream,
            on_output=on_output,
            max_pending_output=max_pending_output,
            compiled=self.compiled,
            compiled_eval=self.compiled_eval,
            binary_output=binary_output,
            checkpointable=checkpointable,
            **kwargs,
        )

    def restore_session(
        self,
        blob: bytes,
        output_stream=None,
        max_pending_chunks: int | None = None,
        on_output=None,
        max_pending_output: int | None = None,
    ) -> StreamSession:
        """Rebuild a checkpointed session from a ``snapshot()`` blob.

        The plan is recompiled (through the plan cache) from the
        canonical query text carried in the snapshot header, then the
        blob is verified against it — a snapshot from a different
        format version or a different plan/role analysis is refused.
        Feeding resumes at byte offset ``bytes_fed``.
        """
        from repro.core.snapshot import peek_plan_text

        plan = self.compile(peek_plan_text(blob))
        kwargs = {}
        if max_pending_chunks is not None:
            kwargs["max_pending_chunks"] = max_pending_chunks
        return StreamSession.restore(
            plan,
            blob,
            output_stream=output_stream,
            on_output=on_output,
            max_pending_output=max_pending_output,
            **kwargs,
        )

    def shared_session(
        self,
        max_pending_chunks: int | None = None,
        max_pending_batches: int | None = None,
    ):
        """Open a shared-stream session (DESIGN.md §13): subscribe any
        number of compiled plans, then feed one document once — a
        single lexer+projector pass serves every subscriber, and each
        subscriber's result is byte-identical to an independent
        :meth:`session` run of its plan.

        Args:
            max_pending_chunks: bound on input chunks queued ahead of
                the shared driver (backpressure, as in
                :meth:`session`).
            max_pending_batches: bound on event batches queued ahead of
                the slowest subscriber; the driver pauses beyond it.
        """
        from repro.multiplex.session import SharedStreamSession

        kwargs = {}
        if max_pending_chunks is not None:
            kwargs["max_pending_chunks"] = max_pending_chunks
        if max_pending_batches is not None:
            kwargs["max_pending_batches"] = max_pending_batches
        return SharedStreamSession(
            gc_enabled=self.gc_enabled,
            record_series=self.record_series,
            drain=self.drain,
            compiled_eval=self.compiled_eval,
            **kwargs,
        )

    def multiplex(
        self,
        queries,
        xml_source,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> list[RunResult]:
        """Evaluate several queries over one document in **one** pass.

        Compiles each query (plans are accepted as-is), subscribes all
        of them to a shared stream, feeds *xml_source* once, and
        returns one :class:`RunResult` per query, in order.  Accepts
        the same source shapes as :meth:`run`.
        """
        plans = [
            query if isinstance(query, QueryPlan) else self.compile(query)
            for query in queries
        ]
        if hasattr(xml_source, "read"):
            xml_source = _file_chunks(xml_source, chunk_size)
        elif isinstance(xml_source, (str, bytes)):
            xml_source = (xml_source,)
        shared = self.shared_session()
        subscribers = [shared.subscribe(plan) for plan in plans]
        try:
            for chunk in xml_source:
                shared.feed(chunk)
            shared.finish()
        except BaseException:
            shared.abort()
            raise
        return [subscriber.finish() for subscriber in subscribers]

    def query(self, query_text: str, xml_source) -> RunResult:
        """Compile (through the plan cache) and run in one call."""
        return self.run(self.compile(query_text), xml_source)

    def evaluate(self, query_text: str, xml_source) -> str:
        """Convenience: return just the serialized output."""
        return self.query(query_text, xml_source).output
