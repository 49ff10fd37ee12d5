"""Unit tests for the stream pre-projector, and the fused lexer
front-end (DESIGN.md §15) held byte-identical to the NFA oracle."""

import dataclasses
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.buffer import Buffer
from repro.core.engine import GCXEngine
from repro.core.matcher import PathDFA, PathMatcher
from repro.core.projector import (
    CompiledStreamProjector,
    StreamProjector,
    _certify_live_alphabet,
    generate_lexer_kernel,
)
from repro.core.session import build_pipeline
from repro.core.stats import BufferStats
from repro.xmark import ADAPTED_QUERIES
from repro.xmlio.lexer import make_lexer
from repro.xmlio.writer import XmlWriter
from repro.xpath.parser import parse_path

from test_differential import QUERIES, random_document


def project(paths, xml):
    """Run the projector to the end; returns the buffer."""
    buffer = Buffer()
    matcher = PathMatcher([(name, parse_path(p)) for name, p in paths])
    projector = StreamProjector(make_lexer(xml), matcher, buffer)
    projector.run_to_end()
    return buffer


def tags_live(buffer):
    return [n.tag for n in buffer.iter_live() if n.is_element]


class TestProjection:
    def test_only_matching_nodes_buffered(self):
        buffer = project(
            [("r1", "/"), ("r2", "/a"), ("r3", "/a/b")],
            "<a><b></b><c></c></a>",
        )
        assert tags_live(buffer) == ["a", "b"]

    def test_unmatched_document_empty_buffer(self):
        buffer = project([("r", "/x/y")], "<a><b></b></a>")
        assert buffer.live_count == 0
        assert buffer.stats.subtrees_skipped == 1

    def test_irrelevant_subtree_skipped(self):
        buffer = project(
            [("r1", "/a"), ("r2", "/a/keep")],
            "<a><skip><deep><deeper></deeper></deep></skip><keep></keep></a>",
        )
        assert tags_live(buffer) == ["a", "keep"]
        assert buffer.stats.subtrees_skipped == 1

    def test_skipped_tokens_counted(self):
        buffer = project(
            [("r1", "/a"), ("r2", "/a/keep")],
            "<a><skip><x></x></skip><keep></keep></a>",
        )
        assert buffer.stats.tokens == 8

    def test_spine_materialized_for_deep_match(self):
        # only the descendant item carries a role: its role-less
        # ancestors must still be materialized to hold the tree shape
        buffer = project(
            [("r1", "/"), ("r2", "/site/descendant::item"), ("keep", "/site")],
            "<site><regions><europe><item></item></europe></regions></site>",
        )
        assert tags_live(buffer) == ["site", "regions", "europe", "item"]
        regions = buffer.root.children[0].children[0]
        assert regions.tag == "regions"
        assert regions.role_count() == 0

    def test_roleless_spine_purged_when_closed_empty(self):
        # a spine is materialized for the first item, but once the item
        # and the spine close without roles they are collected
        buffer = project(
            [("r", "/a/b/c[1]")],
            "<a><b><c></c><c></c></b></a>",
        )
        # c[1] got the role; second c unmatched; when everything closes
        # only role-bearing chain remains (role never removed: no GC here)
        assert tags_live(buffer) == ["a", "b", "c"]

    def test_text_nodes_projected_by_node_test(self):
        buffer = project(
            [("r1", "/a"), ("r2", "/a/descendant-or-self::node()")],
            "<a>hello<b>world</b></a>",
        )
        texts = [n.text for n in buffer.iter_live() if n.is_text]
        assert texts == ["hello", "world"]

    def test_text_not_buffered_without_role(self):
        buffer = project([("r1", "/a"), ("r2", "/a/b")], "<a>hello<b>x</b></a>")
        assert [n.text for n in buffer.iter_live() if n.is_text] == []

    def test_attributes_copied_on_materialization(self):
        buffer = project([("r", "/a/b")], '<a><b id="7" k="v"></b></a>')
        b = [n for n in buffer.iter_live() if n.tag == "b"][0]
        assert b.attributes == {"id": "7", "k": "v"}

    def test_attributes_on_spine_nodes(self):
        buffer = project(
            [("r", "/a/descendant::c")], '<a x="1"><b y="2"><c></c></b></a>'
        )
        a = buffer.root.children[0]
        assert a.attributes == {"x": "1"}
        assert a.children[0].attributes == {"y": "2"}


class TestTokenAccounting:
    def test_every_token_recorded(self):
        buffer = project([("r1", "/"), ("r2", "/a/descendant-or-self::node()")],
                         "<a><b>t</b></a>")
        assert buffer.stats.tokens == 5
        assert len(buffer.stats.series) == 5

    def test_series_monotone_without_gc(self):
        buffer = project(
            [("r1", "/"), ("r2", "/a/descendant-or-self::node()")],
            "<a><b></b><c></c></a>",
        )
        series = buffer.stats.series
        assert series == sorted(series)

    def test_advance_returns_false_at_eof(self):
        buffer = Buffer()
        matcher = PathMatcher(
            [("r", parse_path("/a/descendant-or-self::node()"))]
        )
        projector = StreamProjector(make_lexer("<a></a>"), matcher, buffer)
        assert projector.advance() is True
        assert projector.advance() is True
        assert projector.advance() is False
        assert projector.advance() is False
        assert buffer.root.closed

    def test_skip_consumes_whole_subtree_in_one_advance(self):
        # an element with roles but no onward states fast-forwards to
        # its end tag within a single advance() call
        buffer = Buffer()
        matcher = PathMatcher([("r", parse_path("/a"))])
        projector = StreamProjector(make_lexer("<a><b></b></a>"), matcher, buffer)
        assert projector.advance() is True
        assert buffer.stats.tokens == 4  # <a><b></b></a> all consumed
        assert projector.advance() is False


class TestRoleAssignmentCounts:
    def test_multiplicity_assigned(self):
        buffer = project(
            [("r", "//a//b")],
            "<a><a><b></b></a></a>",
        )
        b = [n for n in buffer.iter_live() if n.tag == "b"][0]
        assert b.roles["r"] == 2

    def test_document_root_role(self):
        buffer = project([("r1", "/")], "<a></a>")
        assert buffer.root.roles["r1"] == 1
        # the root is not part of the live count
        assert buffer.live_count == 0


# ---------------------------------------------------------------------------
# the fused lexer front-end: plan data
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


class TestLexerKernel:
    def test_xmark_plans_get_a_lexer_kernel(self):
        # every adapted XMark plan admits the fused front-end: a named
        # tag alphabet with a fusible root state
        engine = GCXEngine()
        for adapted in ADAPTED_QUERIES.values():
            assert engine.compile(adapted.text).lexer_kernel is not None, (
                adapted.key
            )

    def test_q1_is_certified_with_a_closed_alphabet(self):
        plan = GCXEngine().compile(ADAPTED_QUERIES["q1"].text)
        kernel = plan.lexer_kernel
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
            kernel = GCXEngine().compile(ADAPTED_QUERIES[key].text).lexer_kernel
            assert kernel is not None, key
            assert not kernel.certified, key
            assert self._tail_names_seen_by_dfa(key), key

    def test_descendant_at_root_declines(self):
        """When unknown tags stay live in the start state the fused
        scan could never skip anything — certification declines and the
        plan keeps the per-event DFA tables."""
        dfa = PathDFA(
            PathMatcher([("r1", parse_path("/descendant-or-self::node()/b"))])
        )
        assert _certify_live_alphabet(dfa, ["b"]) is None

    def test_lexer_kernel_requires_dfa(self):
        assert generate_lexer_kernel(None, None) is None

    def test_fused_tier_falls_back_without_lexer_kernel(self):
        """Stripping the lexer kernel drops the plan to the per-event
        DFA tables with identical results."""
        engine = GCXEngine()
        plan = engine.compile(ADAPTED_QUERIES["q1"].text)
        no_lexer = dataclasses.replace(plan, lexer_kernel=None)
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
        the DFA tables, byte-identical to the NFA oracle."""
        engine = GCXEngine()
        oracle = GCXEngine(compiled=False)
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
        assert plan.lexer_kernel is not None
        assert projector_type(plan, data.decode()) is CompiledStreamProjector
        assert _fingerprint(engine.run(plan, data.decode())) == _fingerprint(
            oracle.run(oracle.compile(q1), data.decode())
        )
        # a root-descendant plan on bytes: no lexer kernel at all
        query = "<r>{ for $i in //item return $i/name }</r>"
        doc = b"<a><item><name>x</name></item><b><item/></b></a>"
        plan = engine.compile(query)
        assert plan.lexer_kernel is None
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
        kernel = GCXEngine().compile(query).lexer_kernel
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
        assert not plan.lexer_kernel.certified

    @pytest.mark.parametrize(
        "query, line",
        [
            (
                ADAPTED_QUERIES["q1"].text,
                "projector: fused (certified, 5 states probed)",
            ),
            (
                ADAPTED_QUERIES["q6"].text,
                "projector: fused (uncertified, 2 states probed)",
            ),
            (
                "<r>{ for $i in //item return $i/name }</r>",
                "projector: DFA tables (unknown tags stay live at the root)",
            ),
        ],
        ids=["q1", "q6", "root-descendant"],
    )
    def test_explain_names_the_projector_tier(self, query, line):
        lines = GCXEngine().compile(query).describe().splitlines()
        assert [x for x in lines if x.startswith("projector:")] == [line]


# ---------------------------------------------------------------------------
# differential: the fused front-end vs the NFA oracle
# ---------------------------------------------------------------------------


class TestFusedDifferentialPull:
    @pytest.mark.parametrize("seed", range(6))
    def test_query_pool_byte_identical(self, seed):
        xml = random_document(random.Random(seed * 31 + 5)).encode()
        fast = GCXEngine()
        oracle = GCXEngine(compiled=False)
        for query in QUERIES:
            a = _fingerprint(fast.query(query, xml))
            b = _fingerprint(oracle.query(query, xml))
            assert a == b, f"query={query!r}\nxml={xml}"

    def test_xmark_queries_byte_identical(self, xmark_small):
        data = xmark_small.encode()
        fast = GCXEngine()
        oracle = GCXEngine(compiled=False)
        for adapted in ADAPTED_QUERIES.values():
            a = _fingerprint(fast.query(adapted.text, data))
            b = _fingerprint(oracle.query(adapted.text, data))
            assert a == b, adapted.key

    def test_surprise_tags_discovered_at_runtime(self):
        """Tags absent from the plan's alphabet reach the fused tier's
        per-tag DFA dispatch, which must grow the shared memo without
        changing what the NFA oracle sees."""
        query = "for $x in /r/descendant::b return $x"
        xml = (
            b"<r><z1><z2><b>hit</b></z2></z1><q7/>"
            b"<b><deep><b>nested</b></deep></b></r>"
        )
        a = _fingerprint(GCXEngine().query(query, xml))
        b = _fingerprint(GCXEngine(compiled=False).query(query, xml))
        assert a == b

    def test_memo_growth_keeps_fused_runs_identical(self):
        """One plan, three documents with disjoint tag alphabets: each
        run sees a memo grown by the ones before, and all agree with
        the oracle throughout."""
        engine = GCXEngine()
        oracle = GCXEngine(compiled=False)
        plan = engine.compile("for $x in /r/a return $x/b")
        oplan = oracle.compile("for $x in /r/a return $x/b")
        for xml in (
            b"<r><a><b>1</b></a></r>",
            b"<r><u><v/></u><a><w/><b>2</b></a></r>",
            b"<r><p><q><s/></q></p><a><b>3</b><t/></a></r>",
        ):
            a = _fingerprint(engine.run(plan, xml))
            b = _fingerprint(oracle.run(oplan, xml))
            assert a == b


class TestFusedDifferentialSession:
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
        fast = GCXEngine()
        oracle = GCXEngine(compiled=False)
        for query in QUERIES[::3]:
            a = _fingerprint(_run_session(fast, fast.compile(query), chunks))
            b = _fingerprint(_run_session(oracle, oracle.compile(query), chunks))
            assert a == b, f"query={query!r}\nxml={xml}\nchunks={offsets}"


@given(
    seed=st.integers(0, 10_000),
    query=st.sampled_from(QUERIES),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_fused_byte_identical_at_every_chunking(seed, query, data):
    xml = random_document(random.Random(seed))
    raw = xml.encode()
    n_cuts = data.draw(st.integers(0, 5), label="n_cuts")
    offsets = sorted(
        data.draw(st.integers(1, max(1, len(raw) - 1)), label=f"cut{i}")
        for i in range(n_cuts)
    )
    chunks = _chunk(raw, offsets)
    pull_mode = data.draw(st.booleans(), label="pull_mode")
    fast = GCXEngine()
    oracle = GCXEngine(compiled=False)
    if pull_mode:
        a = _fingerprint(fast.run(fast.compile(query), iter(chunks)))
        b = _fingerprint(oracle.run(oracle.compile(query), iter(chunks)))
    else:
        a = _fingerprint(_run_session(fast, fast.compile(query), chunks))
        b = _fingerprint(_run_session(oracle, oracle.compile(query), chunks))
    assert a == b
