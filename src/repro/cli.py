"""Command-line interface: run queries, explain static analysis,
profile buffer behaviour, generate workloads.

Subcommands::

    gcx run QUERY.xq INPUT.xml [--engine gcx] [--stats] [--chunk-size N]
            [--interpreted]
    gcx multiplex INPUT.xml -q Q1.xq -q Q2.xq ... [--stats]
    gcx explain QUERY.xq
    gcx profile QUERY.xq INPUT.xml [--width 72] [--height 16]
    gcx xmark --scale 1.0 [--seed 42]
    gcx serve [--host H] [--port P] [--max-sessions N] [--max-streams N]
              [--workers N] [--pool-mode auto|reuseport|fdpass]
              [--checkpoint-interval N] [--fault-plan SPEC]
    gcx stats [--host H] [--port P] [--json]

``multiplex`` evaluates several queries over one document in a single
shared lex+project pass (DESIGN.md §13): every query subscribes to one
:class:`~repro.multiplex.session.SharedStreamSession`, subtrees no
query needs are skipped once at lexer speed for all of them, and each
query's output is byte-identical to running it alone.

(``gcx`` is the console script; ``python -m repro.cli`` works too.)

Documents are never slurped — and never decoded up front: the input
file is read **in binary** in ``--chunk-size`` pieces and pushed
through a :class:`~repro.core.session.StreamSession` (GCX-family
engines) or the engine's chunked pull path (the DOM baseline), so the
CLI exercises exactly the compile-once / stream-many, bytes-domain
architecture the library exposes (DESIGN.md §11); the lexer scans the
raw bytes and decodes text lazily.  ``serve`` exposes the
same session layer over TCP (DESIGN.md §8); ``stats`` asks a running
server for its live metrics.

Failures — unparsable queries, malformed or truncated XML
(:class:`~repro.xmlio.errors.XmlSyntaxError`), a starved incremental
lexer (:class:`~repro.xmlio.errors.XmlStarvedError`), evaluation
errors — exit non-zero with a one-line ``error:`` message, never a
traceback.

``serve --workers N`` (N > 1) runs the multi-process worker pool
(DESIGN.md §14): N shared-nothing server processes on one listen port
— SO_REUSEPORT where the platform has it, the supervisor's fd-passing
acceptor otherwise — scaling throughput past the GIL.  ``gcx stats``
against a pool reports fleet-wide totals plus the per-worker
breakdown, whichever worker answers.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.baselines import (
    FluxLikeEngine,
    FullDomEngine,
    ProjectionOnlyEngine,
)
from repro.bench.reporting import ascii_plot
from repro.core.engine import DEFAULT_CHUNK_SIZE, GCXEngine, _file_chunks
from repro.core.evaluator import EvaluationError
from repro.core.session import SessionStateError
from repro.xmark.generator import XMARK_DTD, generate_document
from repro.server.protocol import DEFAULT_PORT
from repro.xmlio.dtd import parse_dtd
from repro.xmlio.errors import XmlStarvedError

#: everything a command may fail with that deserves a one-line
#: ``error:`` message and exit code 1 instead of a traceback (the
#: ValueError family covers XmlSyntaxError, XQueryParseError,
#: AnalysisError, ...; OSError covers missing files and refused
#: connections)
_CLI_ERRORS = (
    ValueError,
    OSError,
    XmlStarvedError,
    EvaluationError,
    SessionStateError,
)


def _make_engine(name: str, interpreted: bool = False):
    """Build the chosen engine; *interpreted* selects the oracle pair
    ``compiled=False, compiled_eval=False`` (interpreting NFA projector
    + interpreting pull evaluator) on the GCX-family engines for A/B
    runs against the compiled pipeline (fused front-end or DFA tables,
    then the VM).  The DOM baseline has none of these tiers, so the
    flag is a no-op there."""
    toggles = (
        {"compiled": False, "compiled_eval": False} if interpreted else {}
    )
    if name == "gcx":
        return GCXEngine(**toggles)
    if name == "dom":
        return FullDomEngine()
    if name == "projection":
        return ProjectionOnlyEngine(**toggles)
    if name == "flux":
        return FluxLikeEngine(dtd=parse_dtd(XMARK_DTD), **toggles)
    raise ValueError(f"unknown engine {name!r}")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _evaluate(engine, query_text, input_path, chunk_size, output_stream=None):
    """Compile once, then stream the document file through the engine.

    The file is opened in binary: chunks are raw UTF-8 bytes all the
    way to the lexer (invalid UTF-8 in decoded content surfaces as an
    ``XmlSyntaxError`` with a byte position, not a decode crash)."""
    chunk_size = max(1, chunk_size)
    with open(input_path, "rb") as handle:
        if isinstance(engine, GCXEngine):
            session = engine.session(
                engine.compile(query_text), output_stream=output_stream
            )
            for chunk in _file_chunks(handle, chunk_size):
                session.feed(chunk)
            return session.finish()
        return engine.run(
            engine.compile(query_text), handle, chunk_size=chunk_size
        )


def _cmd_run(args) -> int:
    engine = _make_engine(args.engine, interpreted=args.interpreted)
    # GCX-family sessions emit results incrementally to stdout; the
    # DOM baseline has no streaming output, so its result is printed
    # after the fact.
    stream = sys.stdout if isinstance(engine, GCXEngine) else None
    result = _evaluate(
        engine, _read(args.query), args.input, args.chunk_size, stream
    )
    print(result.output)
    if args.stats:
        print(result.stats.summary(), file=sys.stderr)
    return 0


def _cmd_multiplex(args) -> int:
    """N queries, one document, one shared lex+project pass."""
    engine = _make_engine("gcx")
    shared = engine.shared_session()
    subscribers = [
        (path, shared.subscribe(engine.compile(_read(path))))
        for path in args.query
    ]
    chunk_size = max(1, args.chunk_size)
    with open(args.input, "rb") as handle:
        for chunk in _file_chunks(handle, chunk_size):
            shared.feed(chunk)
    summary = shared.finish()
    for path, subscriber in subscribers:
        result = subscriber.finish()
        if len(subscribers) > 1:
            print(f"=== {path}")
        print(result.output)
        if args.stats:
            print(f"{path}: {result.stats.summary()}", file=sys.stderr)
    if args.stats:
        print(
            f"stream: {json.dumps(summary, sort_keys=True)}", file=sys.stderr
        )
    return 0


def _cmd_explain(args) -> int:
    compiled = GCXEngine().compile(_read(args.query))
    print(compiled.describe())
    return 0


def _cmd_profile(args) -> int:
    engine = _make_engine(args.engine)
    result = _evaluate(engine, _read(args.query), args.input, args.chunk_size)
    print(
        ascii_plot(
            result.stats.series,
            width=args.width,
            height=args.height,
            title=f"buffer profile ({engine.name})",
        )
    )
    print(result.stats.summary())
    return 0


def _cmd_xmark(args) -> int:
    sys.stdout.write(generate_document(args.scale, args.seed))
    return 0


def _cmd_serve(args) -> int:
    if args.workers > 1:
        return _serve_pool(args)
    import asyncio

    from repro.server.service import GCXServer

    fault_plan = None
    if args.fault_plan:
        from repro.testing.faults import FaultPlan

        fault_plan = FaultPlan.parse(args.fault_plan)

    async def _main() -> None:
        server = GCXServer(
            host=args.host,
            port=args.port,
            max_sessions=args.max_sessions,
            max_streams=args.max_streams,
            checkpoint_interval=args.checkpoint_interval,
            fault_plan=fault_plan,
        )
        await server.start()
        print(
            f"gcx server listening on {server.host}:{server.port} "
            f"(max {server.scheduler.max_sessions} concurrent sessions, "
            f"{server.scheduler.max_streams} shared streams; "
            "Ctrl-C to stop)",
            file=sys.stderr,
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.shutdown()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("gcx server stopped", file=sys.stderr)
    return 0


def _serve_pool(args) -> int:
    """``serve --workers N``: supervise the worker pool until a
    signal arrives, then drain gracefully (DESIGN.md §14)."""
    import signal
    import threading

    from repro.server.workers import WorkerSupervisor

    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_args: stop.set())
    supervisor = WorkerSupervisor(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_sessions=args.max_sessions,
        max_streams=args.max_streams,
        mode=args.pool_mode,
        checkpoint_interval=args.checkpoint_interval,
        fault_plan=args.fault_plan,
    )
    supervisor.start()
    try:
        print(
            f"gcx worker pool listening on {supervisor.host}:{supervisor.port} "
            f"({supervisor.workers} workers, mode {supervisor.mode}, "
            f"max {supervisor.max_sessions} concurrent sessions fleet-wide; "
            "Ctrl-C to drain and stop)",
            file=sys.stderr,
            flush=True,
        )
        stop.wait()
        print("gcx worker pool draining", file=sys.stderr, flush=True)
    finally:
        supervisor.stop(graceful=True)
    print("gcx worker pool stopped", file=sys.stderr)
    return 0


def _flatten(mapping: dict, prefix: str = ""):
    """``{'a': {'b': 1}} -> [('a.b', 1)]``; list items get ``[i]``."""
    for key, value in sorted(mapping.items()):
        if isinstance(value, dict):
            yield from _flatten(value, f"{prefix}{key}.")
        elif isinstance(value, list):
            for index, item in enumerate(value):
                if isinstance(item, dict):
                    yield from _flatten(item, f"{prefix}{key}[{index}].")
                else:
                    yield f"{prefix}{key}[{index}]", item
        else:
            yield f"{prefix}{key}", value


def _stats_tables(snapshot: dict) -> str:
    """Render a metrics snapshot as aligned per-section tables.

    Top-level scalars (``uptime_s``, ``peak_buffer_watermark``) form
    the first table; every nested section — ``sessions``, ``bytes``,
    ``dfa``, ``programs``, ``multiplex``, ... — becomes its own block
    with the keys flattened relative to the section and the values
    right-aligned, so ``gcx stats`` reads as a report rather than a
    JSON dump.  A fleet snapshot (``gcx stats`` against
    ``serve --workers N``) renders the same way: ``fleet`` and
    ``totals`` as sections, the ``per_worker`` list as one section
    with ``[i].``-prefixed rows.
    """
    blocks: list[tuple[str, list[tuple[str, str]]]] = []
    scalars = [
        (key, str(value))
        for key, value in sorted(snapshot.items())
        if not isinstance(value, (dict, list))
    ]
    if scalars:
        blocks.append(("server", scalars))
    for key, value in sorted(snapshot.items()):
        if isinstance(value, (dict, list)):
            section = value if isinstance(value, dict) else {key: value}
            rows = [(name, str(cell)) for name, cell in _flatten(section)]
            blocks.append((key, rows))
    lines: list[str] = []
    for title, rows in blocks:
        if lines:
            lines.append("")
        lines.append(title)
        if not rows:
            lines.append("  (empty)")
            continue
        name_width = max(len(name) for name, _ in rows)
        value_width = max(len(cell) for _, cell in rows)
        for name, cell in rows:
            lines.append(f"  {name:<{name_width}}  {cell:>{value_width}}")
    return "\n".join(lines)


def _cmd_stats(args) -> int:
    from repro.server.client import GCXClient

    with GCXClient(args.host, args.port, timeout=args.timeout) as client:
        snapshot = client.stats()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(_stats_tables(snapshot))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcx",
        description="GCX reproduction: streaming XQuery with active GC",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a query over a document")
    run.add_argument("query", help="path to the query file")
    run.add_argument("input", help="path to the XML input")
    run.add_argument(
        "--engine",
        default="gcx",
        choices=("gcx", "dom", "projection", "flux"),
        help="engine to use",
    )
    run.add_argument("--stats", action="store_true", help="print run statistics")
    run.add_argument(
        "--interpreted",
        action="store_true",
        help="run the interpreting oracles (NFA projector + pull "
        "evaluator) instead of the compiled pipeline, for A/B runs; "
        "output is byte-identical",
    )
    run.add_argument(
        "--chunk-size",
        type=int,
        default=DEFAULT_CHUNK_SIZE,
        help="input read size in bytes (default %(default)s)",
    )
    run.set_defaults(func=_cmd_run)

    multiplex = sub.add_parser(
        "multiplex",
        help="evaluate several queries over one document in one shared pass",
    )
    multiplex.add_argument("input", help="path to the XML input")
    multiplex.add_argument(
        "-q",
        "--query",
        action="append",
        required=True,
        help="path to a query file (repeat for each subscribed query)",
    )
    multiplex.add_argument(
        "--stats",
        action="store_true",
        help="print per-query and stream statistics to stderr",
    )
    multiplex.add_argument(
        "--chunk-size",
        type=int,
        default=DEFAULT_CHUNK_SIZE,
        help="input read size in bytes (default %(default)s)",
    )
    multiplex.set_defaults(func=_cmd_multiplex)

    explain = sub.add_parser(
        "explain",
        help="show roles, the projector tier and the rewritten query "
        "(static analysis)",
    )
    explain.add_argument("query", help="path to the query file")
    explain.set_defaults(func=_cmd_explain)

    profile = sub.add_parser(
        "profile", help="plot buffered nodes per input token"
    )
    profile.add_argument("query", help="path to the query file")
    profile.add_argument("input", help="path to the XML input")
    profile.add_argument(
        "--engine",
        default="gcx",
        choices=("gcx", "dom", "projection", "flux"),
    )
    profile.add_argument("--width", type=int, default=72)
    profile.add_argument("--height", type=int, default=16)
    profile.add_argument(
        "--chunk-size",
        type=int,
        default=DEFAULT_CHUNK_SIZE,
        help="input read size in bytes (default %(default)s)",
    )
    profile.set_defaults(func=_cmd_profile)

    xmark = sub.add_parser("xmark", help="generate an XMark-style document")
    xmark.add_argument("--scale", type=float, default=1.0)
    xmark.add_argument("--seed", type=int, default=42)
    xmark.set_defaults(func=_cmd_xmark)

    serve = sub.add_parser(
        "serve", help="serve concurrent streaming sessions over TCP"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT)
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        help="admission bound: concurrent sessions beyond this get BUSY "
        "(default %(default)s)",
    )
    serve.add_argument(
        "--max-streams",
        type=int,
        default=16,
        help="bound on concurrently live shared (SUBSCRIBE/PUBLISH) "
        "streams; subscribers count against --max-sessions "
        "(default %(default)s)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes sharing the listen port; >1 runs the "
        "shared-nothing pool (SO_REUSEPORT or fd-passing) and splits "
        "--max-sessions across workers (default %(default)s)",
    )
    serve.add_argument(
        "--pool-mode",
        default="auto",
        choices=("auto", "reuseport", "fdpass"),
        help="how pool workers share the port: kernel SO_REUSEPORT "
        "load balancing or the supervisor's fd-passing acceptor "
        "(default: reuseport where available)",
    )
    serve.add_argument(
        "--checkpoint-interval",
        type=int,
        default=0,
        help="push an unsolicited SNAPSHOT frame to the client every "
        "N input bytes per session (0 = only on client CHECKPOINT "
        "frames); sessions are then opened checkpointable, on the "
        "fused projector and the VM evaluator (default %(default)s)",
    )
    serve.add_argument(
        "--fault-plan",
        default=None,
        help="deterministic fault injection, e.g. "
        "'seed=42,kill_at=100000' — SIGKILL the worker when its fed "
        "input crosses the offset; see repro.testing.faults for the "
        "full key set (testing only)",
    )
    serve.set_defaults(func=_cmd_serve)

    stats = sub.add_parser(
        "stats", help="print a running server's live metrics"
    )
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--port", type=int, default=DEFAULT_PORT)
    stats.add_argument("--timeout", type=float, default=10.0)
    stats.add_argument(
        "--json", action="store_true", help="raw JSON instead of one line per metric"
    )
    stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CLI_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
