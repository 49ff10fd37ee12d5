"""Per-plan kernels (DESIGN.md §12, §15): the generated evaluator
(Kernel B) and the fused lexer front-end (Kernel C).

The kernels are an *optimisation tier*, never a semantic one: the
table-driven tiers (lazy-DFA projector, operator-program VM) stay in
the tree as byte-identical oracles, and everything here is
differential against them — same output, same per-token series, same
watermark, same role/GC counters, at every byte chunking, in both
pull-run and push-session modes.  The fallback ladder
kernels → tables → interpreter is exercised explicitly: plans without
kernels, engines with ``codegen=False``, and op streams the
decompiler rejects must all run (and agree) through the lower tiers.
"""

import dataclasses
import pathlib
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.buffer import Buffer
from repro.core.codegen import (
    CodegenError,
    CodegenEvaluator,
    _certify_live_alphabet,
    generate_evaluator_kernel,
    generate_lexer_kernel,
    generate_plan_kernels,
)
from repro.core.engine import GCXEngine
from repro.core.matcher import PathDFA, PathMatcher
from repro.core.program import OP_FOR_INIT, OP_JUMP
from repro.core.projector import CompiledStreamProjector
from repro.core.session import build_pipeline
from repro.core.stats import BufferStats
from repro.xmark import ADAPTED_QUERIES
from repro.xmlio.lexer import make_lexer
from repro.xmlio.writer import XmlWriter
from repro.xpath.parser import parse_path

from test_differential import QUERIES, random_document

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _fingerprint(result):
    """Everything observable about one run, for byte-identity checks."""
    s = result.stats
    return {
        "output": result.output,
        "tokens": s.tokens,
        "watermark": s.watermark,
        "series": tuple(s.series),
        "subtrees_skipped": s.subtrees_skipped,
        "roles_assigned": s.roles_assigned,
        "roles_removed": s.roles_removed,
        "nodes_buffered": s.nodes_buffered,
        "nodes_purged": s.nodes_purged,
        "final_buffered": s.final_buffered,
    }


def _chunk(data: bytes, offsets) -> list[bytes]:
    """Split *data* at the given sorted offsets."""
    cuts = [0, *offsets, len(data)]
    return [data[a:b] for a, b in zip(cuts, cuts[1:])]


def _run_session(engine, plan, chunks):
    session = engine.session(plan)
    for chunk in chunks:
        session.feed(chunk)
    return session.finish()


# ---------------------------------------------------------------------------
# kernel generation
# ---------------------------------------------------------------------------


class TestKernelGeneration:
    def test_xmark_plans_get_both_kernels(self):
        engine = GCXEngine()
        for adapted in ADAPTED_QUERIES.values():
            plan = engine.compile(adapted.text)
            assert plan.kernels is not None, adapted.key
            assert plan.kernels.evaluator is not None, adapted.key
            # every adapted XMark plan also admits the fused lexer
            # front-end (Kernel C): a named tag alphabet with a
            # fusible root state
            assert plan.kernels.lexer is not None, adapted.key
            assert plan.kernels.kernel_count == 2
            # Kernel C is plain code: it adds no generated source
            assert plan.kernels.source_chars == len(
                plan.kernels.evaluator.source
            )

    def test_differential_query_pool_generates(self):
        engine = GCXEngine()
        generated = 0
        for query in QUERIES:
            plan = engine.compile(query)
            if plan.kernels is not None:
                generated += plan.kernels.kernel_count
        # the pool is the compiled fragment; codegen must cover it
        assert generated >= 2 * len(QUERIES) - 2

    def test_evaluator_kernel_requires_program(self):
        with pytest.raises(CodegenError):
            generate_evaluator_kernel(None)

    def test_unstructured_op_stream_falls_back(self):
        plan = GCXEngine().compile(QUERIES[0])
        # a bare jump outside any for/if shape is unparseable
        broken = dataclasses.replace(plan.program, ops=((OP_JUMP, 0),))
        with pytest.raises(CodegenError):
            generate_evaluator_kernel(broken)
        assert generate_plan_kernels(None, None, broken) is None

    def test_dangling_for_init_falls_back(self):
        plan = GCXEngine().compile(QUERIES[0])
        broken = dataclasses.replace(plan.program, ops=((OP_FOR_INIT, None),))
        with pytest.raises(CodegenError):
            generate_evaluator_kernel(broken)

    def test_generated_source_is_python(self):
        plan = GCXEngine().compile(ADAPTED_QUERIES["q1"].text)
        compile(plan.kernels.evaluator.source, "<eval>", "exec")

    def test_kernel_rejects_foreign_program(self):
        engine = GCXEngine()
        p1 = engine.compile(ADAPTED_QUERIES["q1"].text)
        p2 = engine.compile(ADAPTED_QUERIES["q6"].text)
        with pytest.raises(CodegenError):
            CodegenEvaluator(
                p1.kernels.evaluator, p2.program, None, None, None
            )


class TestLexerKernel:
    """Kernel C (DESIGN.md §15): the fused batch-scan lexer front-end."""

    def test_q1_is_certified_with_a_closed_alphabet(self):
        plan = GCXEngine().compile(ADAPTED_QUERIES["q1"].text)
        kernel = plan.kernels.lexer
        assert kernel is not None
        # fully named child-axis plan: the probe proves every reachable
        # state treats unknown tags as dead
        assert kernel.certified
        assert kernel.live_tags == ("name", "people", "person", "site")
        assert kernel.probed_states >= 2
        assert kernel.dfa is plan.dfa

    @staticmethod
    def _tail_names_seen_by_dfa(key):
        """Run *key* through the fused projector over a document with
        an out-of-alphabet subtree under ``<site>``; return whether the
        DFA ever saw the dead name (a fresh engine, so a fresh memo)."""
        engine = GCXEngine()
        plan = engine.compile(ADAPTED_QUERIES[key].text)
        engine.run(plan, b"<site><junk><deeper>x</deeper></junk></site>")
        return any("junk" in memo for memo in plan.dfa._element_memo)

    def test_certified_tail_skips_without_a_dfa_transition(self):
        """The flagged batch tail of a certified plan is bulk-skipped
        on the certificate alone: the dead name never reaches the
        DFA."""
        assert not self._tail_names_seen_by_dfa("q1")

    def test_subtree_copy_plans_fuse_uncertified(self):
        """A trailing ``descendant-or-self::node()`` copy role keeps
        unknown tags live *inside* the copied subtree, so the fast-tail
        skip is unsound there.  The plan still fuses — every
        out-of-alphabet start simply dispatches through the shared DFA,
        which decides dead vs live per state.
        """
        for key in ("q8", "q13", "q20"):
            plan = GCXEngine().compile(ADAPTED_QUERIES[key].text)
            kernel = plan.kernels.lexer
            assert kernel is not None, key
            assert not kernel.certified, key
            assert self._tail_names_seen_by_dfa(key), key

    def test_descendant_at_root_declines(self):
        """When unknown tags stay live in the start state the fused
        scan could never skip anything — generation declines and the
        plan keeps the per-event DFA tables."""
        dfa = PathDFA(
            PathMatcher([("r1", parse_path("/descendant-or-self::node()/b"))])
        )
        with pytest.raises(CodegenError, match="root"):
            _certify_live_alphabet(dfa, ["b"])

    def test_lexer_kernel_requires_dfa(self):
        with pytest.raises(CodegenError):
            generate_lexer_kernel(None, None)

    def test_fused_tier_falls_back_without_lexer_kernel(self):
        """Stripping only the lexer kernel drops the plan to the
        per-event DFA tables with identical results."""
        engine = GCXEngine()
        plan = engine.compile(ADAPTED_QUERIES["q1"].text)
        no_lexer = dataclasses.replace(
            plan, kernels=dataclasses.replace(plan.kernels, lexer=None)
        )
        data = (
            b"<site><people><person id='p0'><name>n0</name></person>"
            b"<dead><deep><deeper/></deep></dead></people></site>"
        )
        assert _fingerprint(engine.run(no_lexer, data)) == _fingerprint(
            engine.run(plan, data)
        )

    def test_unfused_sources_run_the_tables(self):
        """Where the fused tier declines — str input, a multiplex
        subscriber (its event replay has no ``project_into``) and a
        plan whose root keeps unknown tags live — the projector is
        the DFA tables, byte-identical to ``codegen=False``."""
        engine = GCXEngine()
        oracle = GCXEngine(codegen=False)
        q1 = ADAPTED_QUERIES["q1"].text
        data = (
            b"<site><people><person id='person0'><name>n0</name></person>"
            b"</people><junk>skipped</junk></site>"
        )

        def projector_type(plan, source):
            stats = BufferStats()
            projector, _ = build_pipeline(
                plan, make_lexer(source), Buffer(stats), stats, XmlWriter()
            )
            return type(projector)

        # str input: the str lexer has no batch projection surface
        plan = engine.compile(q1)
        assert plan.kernels.lexer is not None
        assert projector_type(plan, data.decode()) is CompiledStreamProjector
        assert _fingerprint(engine.run(plan, data.decode())) == _fingerprint(
            oracle.run(oracle.compile(q1), data.decode())
        )
        # a root-descendant plan on bytes: no lexer kernel at all
        query = "<r>{ for $i in //item return $i/name }</r>"
        doc = b"<a><item><name>x</name></item><b><item/></b></a>"
        plan = engine.compile(query)
        assert plan.kernels.lexer is None
        assert projector_type(plan, doc) is CompiledStreamProjector
        assert _fingerprint(engine.run(plan, doc)) == _fingerprint(
            oracle.run(oracle.compile(query), doc)
        )
        # multiplex subscribers replay broadcast events
        shared = engine.shared_session()
        subscribers = [shared.subscribe(engine.compile(q1)) for _ in range(2)]
        assert all(
            type(sub._projector) is CompiledStreamProjector
            for sub in subscribers
        )
        shared.feed(data)
        shared.finish()
        got = [_fingerprint(sub.finish()) for sub in subscribers]
        want = _fingerprint(oracle.run(oracle.compile(q1), data))
        assert got == [want, want]

    @pytest.mark.parametrize(
        "query, certified, probed",
        [
            (ADAPTED_QUERIES["q1"].text, True, 5),
            (ADAPTED_QUERIES["q6"].text, False, 2),
            (ADAPTED_QUERIES["q8"].text, False, 6),
            (ADAPTED_QUERIES["q13"].text, False, 5),
            (ADAPTED_QUERIES["q20"].text, False, 4),
            # the shape of the spine's dblp_attrs query
            (
                "<r>{ for $a in /dblp/article return "
                'if ($a/@mdate = "2002-01-03") '
                "then <t>{ $a/title/text() }</t> else () }</r>",
                True,
                4,
            ),
        ],
        ids=["q1", "q6", "q8", "q13", "q20", "dblp"],
    )
    def test_spine_plan_certificates(self, query, certified, probed):
        """The certificate of every spine plan: only fully named
        child-axis plans are certified; a descendant self-loop (q6) or
        a subtree-copy role (q8, q13, q20) fails the probe, and the
        walk stops at the first state that fails."""
        kernel = GCXEngine().compile(query).kernels.lexer
        assert (kernel.certified, kernel.probed_states) == (certified, probed)

    @pytest.mark.parametrize("steps", [3, 4])
    def test_descendant_chain_compiles_fast(self, steps):
        """The certification walk stops at the first uncertifiable
        state, so a chain of ``//`` steps never enumerates its
        derivation-blown DFA closure at compile time."""
        query = "count(/r" + "//a" * steps + ")"
        started = time.perf_counter()
        plan = GCXEngine().compile(query)
        assert time.perf_counter() - started < 0.5
        assert not plan.kernels.lexer.certified

# ---------------------------------------------------------------------------
# differential: codegen vs the table oracles
# ---------------------------------------------------------------------------


class TestDifferentialPull:
    @pytest.mark.parametrize("seed", range(6))
    def test_query_pool_byte_identical(self, seed):
        xml = random_document(random.Random(seed * 31 + 5))
        fast = GCXEngine(codegen=True)
        oracle = GCXEngine(codegen=False)
        for query in QUERIES:
            a = _fingerprint(fast.query(query, xml))
            b = _fingerprint(oracle.query(query, xml))
            assert a == b, f"query={query!r}\nxml={xml}"

    def test_xmark_queries_byte_identical(self, xmark_small):
        data = xmark_small.encode()
        fast = GCXEngine(codegen=True)
        oracle = GCXEngine(codegen=False)
        for adapted in ADAPTED_QUERIES.values():
            a = _fingerprint(fast.query(adapted.text, data))
            b = _fingerprint(oracle.query(adapted.text, data))
            assert a == b, adapted.key

    def test_surprise_tags_discovered_at_runtime(self):
        """Tags absent from the plan's alphabet reach the fused tier's
        per-tag DFA dispatch, which must grow the shared memo exactly
        like the table kernel."""
        query = "for $x in /r/descendant::b return $x"
        xml = (
            "<r><z1><z2><b>hit</b></z2></z1><q7/>"
            "<b><deep><b>nested</b></deep></b></r>"
        )
        a = _fingerprint(GCXEngine(codegen=True).query(query, xml))
        b = _fingerprint(GCXEngine(codegen=False).query(query, xml))
        assert a == b

    def test_memo_growth_keeps_generated_code_valid(self):
        """One plan, two documents with disjoint tag alphabets: the
        second run sees a memo grown by the first, and both agree with
        the oracle throughout."""
        engine = GCXEngine(codegen=True)
        oracle = GCXEngine(codegen=False)
        plan = engine.compile("for $x in /r/a return $x/b")
        oplan = oracle.compile("for $x in /r/a return $x/b")
        for xml in (
            "<r><a><b>1</b></a></r>",
            "<r><u><v/></u><a><w/><b>2</b></a></r>",
            "<r><p><q><s/></q></p><a><b>3</b><t/></a></r>",
        ):
            a = _fingerprint(engine.run(plan, xml))
            b = _fingerprint(oracle.run(oplan, xml))
            assert a == b

    def test_interpreted_engine_bypasses_codegen(self):
        engine = GCXEngine(compiled=False, compiled_eval=False, codegen=True)
        xml = "<r><a><b>x</b></a></r>"
        result = engine.query("for $x in /r/a return $x/b", xml)
        assert result.output == "<b>x</b>"

    def test_plan_without_kernels_falls_back(self):
        engine = GCXEngine(codegen=True)
        plan = engine.compile("for $x in /r/a return $x")
        stripped = dataclasses.replace(plan, kernels=None)
        xml = "<r><a>1</a><b/></r>"
        assert _fingerprint(engine.run(stripped, xml)) == _fingerprint(
            engine.run(plan, xml)
        )

    def test_partial_kernels_mix_tiers(self):
        """A plan with only one generated kernel runs that side
        generated and the other through the table kernel."""
        engine = GCXEngine(codegen=True)
        plan = engine.compile("for $x in /r/a return $x")
        only_proj = dataclasses.replace(
            plan,
            kernels=dataclasses.replace(plan.kernels, evaluator=None),
        )
        only_eval = dataclasses.replace(
            plan,
            kernels=dataclasses.replace(plan.kernels, lexer=None),
        )
        xml = "<r><a>1</a><c/><a>2</a></r>"
        want = _fingerprint(engine.run(plan, xml))
        assert _fingerprint(engine.run(only_proj, xml)) == want
        assert _fingerprint(engine.run(only_eval, xml)) == want


class TestDifferentialSession:
    @pytest.mark.parametrize("seed", range(4))
    def test_session_chunked_byte_identical(self, seed):
        rng = random.Random(seed * 77 + 3)
        xml = random_document(rng)
        data = xml.encode()
        offsets = sorted(
            rng.randrange(1, max(2, len(data)))
            for _ in range(rng.randint(0, 6))
        )
        chunks = _chunk(data, offsets)
        fast = GCXEngine(codegen=True)
        oracle = GCXEngine(codegen=False)
        for query in QUERIES[::3]:
            a = _fingerprint(_run_session(fast, fast.compile(query), chunks))
            b = _fingerprint(_run_session(oracle, oracle.compile(query), chunks))
            assert a == b, f"query={query!r}\nxml={xml}\nchunks={offsets}"


# ---------------------------------------------------------------------------
# hypothesis: random queries × random chunkings × both modes
# ---------------------------------------------------------------------------


@given(
    seed=st.integers(0, 10_000),
    query=st.sampled_from(QUERIES),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_codegen_byte_identical_at_every_chunking(seed, query, data):
    xml = random_document(random.Random(seed))
    raw = xml.encode()
    n_cuts = data.draw(st.integers(0, 5), label="n_cuts")
    offsets = sorted(
        data.draw(st.integers(1, max(1, len(raw) - 1)), label=f"cut{i}")
        for i in range(n_cuts)
    )
    chunks = _chunk(raw, offsets)
    pull_mode = data.draw(st.booleans(), label="pull_mode")
    fast = GCXEngine(codegen=True)
    oracle = GCXEngine(codegen=False)
    if pull_mode:
        a = _fingerprint(fast.run(fast.compile(query), iter(chunks)))
        b = _fingerprint(oracle.run(oracle.compile(query), iter(chunks)))
    else:
        a = _fingerprint(_run_session(fast, fast.compile(query), chunks))
        b = _fingerprint(_run_session(oracle, oracle.compile(query), chunks))
    assert a == b


# ---------------------------------------------------------------------------
# observability: cache stats and the server STATS frame
# ---------------------------------------------------------------------------


class TestCodegenStats:
    def test_codegen_stats_counts_kernels_and_source(self):
        engine = GCXEngine()
        engine.compile(ADAPTED_QUERIES["q1"].text)
        engine.compile(ADAPTED_QUERIES["q6"].text)
        snap = engine.plan_cache.codegen_stats()
        assert snap["plans"] == 2
        assert "projector_kernels" not in snap
        assert snap["evaluator_kernels"] == 2
        assert snap["lexer_kernels"] == 2
        assert snap["source_chars"] > 0
        assert snap["fallbacks"] == 0

    def test_codegen_stats_counts_fallbacks(self):
        engine = GCXEngine()
        plan = engine.compile("for $x in /r/a return $x")
        plan.kernels = None  # simulate a plan whose generation declined
        snap = engine.plan_cache.codegen_stats()
        assert snap["fallbacks"] == 1
        assert snap["plans"] == 0

    def test_metrics_snapshot_reports_codegen(self):
        from repro.server.metrics import ServerMetrics

        engine = GCXEngine()
        engine.compile(ADAPTED_QUERIES["q1"].text)
        snap = ServerMetrics().snapshot(
            codegen=engine.plan_cache.codegen_stats()
        )
        assert snap["codegen"]["evaluator_kernels"] == 1
        assert snap["codegen"]["lexer_kernels"] == 1
        assert snap["codegen"]["source_chars"] > 0


# ---------------------------------------------------------------------------
# confinement: exec/compile stay in core/codegen.py
# ---------------------------------------------------------------------------


def test_exec_compile_confined_to_codegen_module():
    """The lint rule (ruff S102) runs in CI; this is its in-tree twin
    so the confinement also holds where ruff is unavailable."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    # bare builtin calls only: `engine.compile(...)`, `re.compile(...)`
    # and `compile_program(...)` are fine, `exec(`/`compile(` are not
    builtin_call = re.compile(r"(?<!def )(?<![\w.])(?:exec|compile)\(")
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if path.name == "codegen.py" and path.parent.name == "core":
            continue
        text = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            if builtin_call.search(line.split("#", 1)[0]):
                offenders.append(f"{path.relative_to(src)}:{lineno}")
    assert not offenders, (
        "exec()/compile() must only appear in repro/core/codegen.py: "
        + ", ".join(offenders)
    )
