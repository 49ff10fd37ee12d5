"""Per-stage profiling harness: where does a streamed byte go?

Times (and optionally cProfiles) each pipeline stage in isolation over
one XMark document, so a perf regression can be attributed to a layer
— lexer, projector, evaluator — instead of showing up only as a slower
end-to-end number.  Stages build on each other, so the deltas between
consecutive rows approximate each layer's own cost:

* ``lexer_str``      — str event fast path (the oracle scanner)
* ``lexer_bytes``    — bytes-domain event fast path (DESIGN.md §11)
* ``projector``      — compiled DFA projector over the bytes lexer
  (XMark Q1's path set: mostly ``skip_subtree``)
* ``engine``         — full compiled run (projector + VM + writer),
  bytes input
* ``engine_str``     — the same over str input (what the engine paid
  before the bytes path, minus the wire decode it also needed)

``--kernel`` selects which projector tier the projector/engine stages
run, both with the VM: the DFA tables (``tables``), the fused
batch-scan lexer front-end of DESIGN.md §15 (``fused``), or — the
default — ``both``, which emits one row per variant
(``projector:tables`` next to ``projector:fused``) so the fused
front-end's margin is itself a per-stage attribution.

A second table attributes the lexer's *own* cost per routine —
markup dispatch, text scanning, entity resolution, and chunked-input
refill — by draining same-size synthesized documents each dominated
by exactly one routine, and reports which scanner backend ran
(``repro.xmlio.cscan.status``: the compiled C batch scanner or the
pure-Python fallback).

Usage::

    PYTHONPATH=src python benchmarks/profile_stages.py
    PYTHONPATH=src python benchmarks/profile_stages.py --scale 16 \
        --kernel fused --cprofile engine:fused --top 15
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import pstats
import time

from repro.bench.reporting import format_table
from repro.core.buffer import Buffer
from repro.core.engine import GCXEngine
from repro.core.projector import CompiledStreamProjector, FusedStreamProjector
from repro.xmark.generator import generate_document
from repro.xmark.queries import ADAPTED_QUERIES
from repro.xmlio import cscan
from repro.xmlio.lexer import make_lexer


def _drain_events(source):
    lexer = make_lexer(source)
    sink: list = []
    count = 0
    while True:
        got = lexer.tokens_into(sink)
        if not got:
            return count + len(sink)
        count += len(sink)
        sink.clear()


def _attribution_documents(size: int) -> list:
    """Synthesized ~*size*-byte documents, each dominated by exactly
    one lexer routine, so the routine's cost shows up as that row's
    throughput (markup-heavy XMark sits between the extremes)."""

    def fill(unit: bytes) -> bytes:
        return b"<r>" + unit * max(1, (size - 7) // len(unit)) + b"</r>"

    return [
        # attr-less two-level elements with one-char text: nearly every
        # scanned byte is a tag — times the markup dispatch
        ("markup dispatch", fill(b"<a><b>x</b><c>y</c></a>")),
        # long entity-free character runs: times the bulk text scan
        (
            "text scan",
            fill(
                b"<p>"
                + b"streaming xml projection pays for text scans " * 23
                + b"</p>"
            ),
        ),
        # text dense with references: every run needs entity resolution
        (
            "entity resolution",
            fill(b"<p>" + b"&amp;&lt;fish&gt;&#64;chips " * 37 + b"</p>"),
        ),
    ]


def build_lexer_stages(size: int) -> list:
    """Per-routine lexer rows: ``(name, document_bytes, callable)``.

    The refill row drains the markup document through the chunked
    (pull-mode) lexer; its delta against the whole-buffer markup row
    is the per-refill bookkeeping the batch scanner must amortize.
    """
    stages = [
        (name, doc, lambda doc=doc: _drain_events(doc))
        for name, doc in _attribution_documents(size)
    ]
    markup = stages[0][1]
    chunks = [markup[i : i + 4096] for i in range(0, len(markup), 4096)]
    stages.append(
        (
            "refill (4 KiB chunks)",
            markup,
            lambda chunks=chunks: _drain_events(iter(chunks)),
        )
    )
    return stages


def build_stages(scale: float, query_key: str, kernel: str = "both"):
    """Return ``(document_bytes, [(stage, callable), ...])``.

    *kernel* is ``tables``, ``fused`` or ``both``; the projector and
    engine stages appear once per selected kernel tier, suffixed with
    the tier name when more than one is selected.
    """
    document = generate_document(scale=scale, seed=42)
    data = document.encode("utf-8")
    variants = ("tables", "fused") if kernel == "both" else (kernel,)

    def projector_only(plan, variant):
        def run():
            buffer = Buffer()
            buffer.stats.record_series = False
            lexer = make_lexer(data)
            if variant == "fused":
                FusedStreamProjector(
                    plan.lexer_kernel, lexer, buffer
                ).run_to_end()
            else:
                CompiledStreamProjector(lexer, plan.dfa, buffer).run_to_end()
            return buffer.stats.tokens

        return run

    stages = [
        ("lexer_str", lambda: _drain_events(document)),
        ("lexer_bytes", lambda: _drain_events(data)),
    ]
    suffix = (lambda name, v: f"{name}:{v}") if len(variants) > 1 else (
        lambda name, _v: name
    )
    engine = GCXEngine(record_series=False)
    for variant in variants:
        plan = engine.compile(ADAPTED_QUERIES[query_key].text)
        if variant == "tables":
            # the DFA tables: drop the fused front-end's data
            plan = dataclasses.replace(plan, lexer_kernel=None)
        elif plan.lexer_kernel is None:
            if kernel == "fused":
                raise SystemExit(
                    f"query {query_key} has no fused lexer kernel"
                )
            continue  # plan declined fusion; skip the tier's rows
        stages.append(
            (suffix("projector", variant), projector_only(plan, variant))
        )
        stages.append(
            (
                suffix("engine", variant),
                lambda engine=engine, plan=plan: engine.run(plan, data),
            )
        )
    # the str-input engine row attributes the wire-decode cost, one
    # tier is enough: use the last configured engine
    stages.append(
        ("engine_str", lambda engine=engine, plan=plan: engine.run(plan, document))
    )
    return data, stages


def time_stage(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeat)):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=8.0, help="XMark scale")
    parser.add_argument("--query", default="q1", choices=sorted(ADAPTED_QUERIES))
    parser.add_argument("--repeat", type=int, default=3, help="runs per stage")
    parser.add_argument(
        "--kernel",
        default="both",
        choices=("tables", "fused", "both"),
        help="projector tier for the projector/engine stages: the "
        "DFA tables, the fused batch-scan lexer front-end, or one row "
        "per tier (default)",
    )
    parser.add_argument(
        "--cprofile",
        metavar="STAGE",
        help="additionally cProfile one stage and print its hottest functions",
    )
    parser.add_argument("--top", type=int, default=12, help="cProfile rows")
    args = parser.parse_args(argv)

    data, stages = build_stages(args.scale, args.query, args.kernel)
    mb = len(data) / 1e6

    rows = []
    previous = None
    for stage, fn in stages:
        seconds = time_stage(fn, args.repeat)
        delta = "" if previous is None else f"{(seconds - previous) * 1000:+.1f}"
        rows.append(
            [stage, f"{seconds * 1000:.1f}", f"{mb / seconds:.2f}", delta]
        )
        previous = seconds
    print(f"document: {mb:.3f} MB (scale {args.scale}), query {args.query}")
    print(
        format_table(
            ["stage", "ms (best)", "MB/s", "delta ms vs previous"], rows
        )
    )

    lexer_rows = []
    for name, doc, fn in build_lexer_stages(len(data)):
        seconds = time_stage(fn, args.repeat)
        lexer_rows.append(
            [
                name,
                f"{len(doc) / 1e6:.3f}",
                f"{seconds * 1000:.1f}",
                f"{len(doc) / 1e6 / seconds:.2f}",
            ]
        )
    # cscan.status reflects what actually ran above: "active" for the
    # compiled batch scanner, otherwise the reason the pure-Python
    # fallback was used (no compiler, GCX_NO_CSCAN, self-test, ...)
    print(f"\nlexer attribution (bytes scanner: {cscan.status}):")
    print(format_table(["routine", "MB", "ms (best)", "MB/s"], lexer_rows))

    if args.cprofile:
        wanted = dict(stages)
        if args.cprofile not in wanted:
            parser.error(
                f"unknown stage {args.cprofile!r}; "
                f"pick one of {', '.join(name for name, _ in stages)}"
            )
        print(f"\ncProfile of stage {args.cprofile!r}:")
        profiler = cProfile.Profile()
        profiler.enable()
        wanted[args.cprofile]()
        profiler.disable()
        pstats.Stats(profiler).sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
