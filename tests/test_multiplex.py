"""The shared-stream multiplexer (DESIGN.md §13).

Acceptance bar: every subscriber of a :class:`SharedStreamSession` is
**byte-identical** to an independent single-plan run of its query —
output, watermark, per-token series, role statistics — at every input
chunking, for every subscriber mix, including mixed sets where some
plans skip subtrees other plans need (the driver may then never skip,
yet each subscriber's replayed skip counts must still equal what its
own lexer would have reported).  The per-plan pipeline under each
subscriber is the stock compiled machinery, so the independent runs
(themselves held byte-identical to the interpreting oracles by the
differential suites of earlier layers) anchor the whole ladder.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import GCXEngine
from repro.core.matcher import PathDFA, ProductDFA
from repro.core.session import SessionStateError
from repro.multiplex import MultiplexError, MultiplexPlan, SharedStreamSession
from repro.xmark.generator import generate_document
from repro.xmlio.errors import XmlSyntaxError

# A deliberately mixed workload over one XMark document: the people
# queries are dead inside <regions>, the regions query needs exactly
# that subtree, and the count query buffers nothing but existence —
# so for any subscriber subset the product's skip decisions differ,
# while each individual subscriber must behave as if it ran alone.
QUERIES = [
    "for $p in /site/people/person return $p/name",
    "for $c in /site/closed_auctions/closed_auction return $c/price",
    "for $i in /site/regions//item return $i/name",
    "let $n := count(/site/people/person) return <total>{$n}</total>",
    "for $p in /site/people/person return <who>{$p/name, $p/emailaddress}</who>",
]


@pytest.fixture(scope="module")
def doc() -> str:
    return generate_document(scale=0.5, seed=5)


@pytest.fixture(scope="module")
def engine() -> GCXEngine:
    return GCXEngine()


@pytest.fixture(scope="module")
def solo(engine, doc):
    """Independent single-plan oracle runs, one per query."""
    return [engine.run(engine.compile(q), doc) for q in QUERIES]


def assert_identical(result, oracle):
    assert result.output == oracle.output
    assert result.stats.watermark == oracle.stats.watermark
    assert result.stats.series == oracle.stats.series
    assert result.stats.tokens == oracle.stats.tokens
    assert result.stats.roles_assigned == oracle.stats.roles_assigned
    assert result.stats.roles_removed == oracle.stats.roles_removed
    assert result.stats.subtrees_skipped == oracle.stats.subtrees_skipped
    assert result.stats.nodes_buffered == oracle.stats.nodes_buffered
    assert result.stats.nodes_purged == oracle.stats.nodes_purged


# ---------------------------------------------------------------------------
# the product DFA
# ---------------------------------------------------------------------------


class TestProductDFA:
    def test_dead_only_when_every_component_is_dead(self, engine):
        people = engine.compile(QUERIES[0]).dfa
        regions = engine.compile(QUERIES[2]).dfa
        product = ProductDFA([people, regions])
        state = product.start
        child, _, dead = product.element(state, "site")
        assert not dead
        # <regions> is dead for the people plan but alive for the
        # regions plan: the product must stay alive.
        inside, _, dead = product.element(child, "regions")
        assert not dead
        # A tag neither plan can use below the root is dead for both.
        _, _, dead = product.element(child, "unrelated")
        assert dead

    def test_single_component_product_mirrors_the_plan_dfa(self, engine):
        dfa = engine.compile(QUERIES[0]).dfa
        product = ProductDFA([dfa])
        p_state, d_state = product.start, dfa.start
        for tag in ("site", "people", "person", "name"):
            p_child, p_parent, p_dead = product.element(p_state, tag)
            d_child, d_parent, _ = dfa.element(d_state, tag)
            assert product._states[p_child] == (d_child,)
            assert product._states[p_parent] == (d_parent,)
            assert p_dead == (d_child == PathDFA.dead)
            p_state, d_state = p_child, d_child

    def test_product_shares_component_memos(self, engine):
        dfa = engine.compile("for $x in /never/seen/before return $x").dfa
        before = dfa.stats()["element_transitions"]
        product = ProductDFA([dfa])
        product.element(product.start, "zzz_unseen")
        assert dfa.stats()["element_transitions"] > before

    def test_empty_product_is_dead_at_the_root(self):
        product = ProductDFA([])
        assert product.is_dead(product.start)

    def test_stats_shape(self, engine):
        product = ProductDFA([engine.compile(q).dfa for q in QUERIES[:3]])
        product.element(product.start, "site")
        stats = product.stats()
        assert stats["components"] == 3
        assert stats["states"] >= 2
        assert stats["element_transitions"] >= 1


class TestMultiplexPlan:
    def test_requires_compiled_plans(self, engine):
        plan = engine.compile(QUERIES[0])
        stripped = plan.__class__(
            plan.source,
            plan.parsed,
            plan.normalized,
            plan.analysis,
            plan.rewritten,
            plan.matcher,
        )
        with pytest.raises(MultiplexError):
            MultiplexPlan.for_plans([stripped])

    def test_fanout_and_stats(self, engine):
        plans = [engine.compile(q) for q in QUERIES[:2]]
        mux = MultiplexPlan.for_plans(plans)
        assert mux.fanout == 2
        assert mux.stats()["components"] == 2


# ---------------------------------------------------------------------------
# byte-identity: every subscriber equals its independent run
# ---------------------------------------------------------------------------


class TestByteIdentity:
    def test_all_queries_one_pass(self, engine, doc, solo):
        for result, oracle in zip(engine.multiplex(QUERIES, doc), solo):
            assert_identical(result, oracle)

    def test_single_subscriber_stream(self, engine, doc, solo):
        [result] = engine.multiplex(QUERIES[:1], doc)
        assert_identical(result, solo[0])

    def test_same_plan_subscribed_twice(self, engine, doc, solo):
        results = engine.multiplex([QUERIES[0], QUERIES[0]], doc)
        for result in results:
            assert_identical(result, solo[0])

    def test_nfa_oracle_is_identical(self, engine, doc):
        oracle = GCXEngine(compiled=False)
        for query, result in zip(QUERIES, engine.multiplex(QUERIES, doc)):
            assert_identical(result, oracle.run(oracle.compile(query), doc))

    def test_mixed_skip_sets(self, engine, doc, solo):
        """Subscribers whose skip decisions conflict: the people-only
        pair would skip <regions>; adding the regions query forces the
        driver through it — nobody's stats may change either way."""
        for subset in ([0, 1], [0, 2], [2, 3], [0, 1, 3], [1, 2, 4]):
            results = engine.multiplex([QUERIES[i] for i in subset], doc)
            for index, result in zip(subset, results):
                assert_identical(result, solo[index])


@st.composite
def chunking_and_subset(draw):
    """A random byte-partition recipe plus a subscriber subset."""
    cuts = draw(st.lists(st.integers(0, 100_000), max_size=10))
    subset = draw(
        st.lists(
            st.integers(0, len(QUERIES) - 1), min_size=1, max_size=5
        )
    )
    return cuts, subset


@given(chunking_and_subset())
@settings(max_examples=20, deadline=None)
def test_random_chunkings_and_subscriber_mixes(engine, doc, solo, case):
    """The Hypothesis differential: any chunking, any subscriber mix."""
    cuts, subset = case
    data = doc.encode("utf-8")
    bounds = sorted({0, len(data), *[c % (len(data) + 1) for c in cuts]})
    chunks = [data[a:b] for a, b in zip(bounds, bounds[1:])]
    shared = engine.shared_session()
    subscribers = [
        shared.subscribe(engine.compile(QUERIES[i])) for i in subset
    ]
    for chunk in chunks:
        shared.feed(chunk)
    summary = shared.finish()
    assert summary["subscribers"] == len(subset)
    assert summary["bytes_in"] == len(data)
    for index, subscriber in zip(subset, subscribers):
        assert_identical(subscriber.finish(), solo[index])


# ---------------------------------------------------------------------------
# lifecycle, errors, backpressure
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_subscribe_after_seal_raises(self, engine, doc):
        shared = engine.shared_session()
        shared.subscribe(engine.compile(QUERIES[0]))
        shared.feed(doc[:100])
        with pytest.raises(SessionStateError):
            shared.subscribe(engine.compile(QUERIES[1]))
        shared.abort()

    def test_feed_after_finish_raises(self, engine, doc):
        shared = engine.shared_session()
        sub = shared.subscribe(engine.compile(QUERIES[0]))
        shared.feed(doc)
        shared.finish()
        with pytest.raises(SessionStateError):
            shared.feed("<more/>")
        sub.finish()

    def test_finish_is_idempotent(self, engine, doc):
        shared = engine.shared_session()
        sub = shared.subscribe(engine.compile(QUERIES[0]))
        shared.feed(doc)
        assert shared.finish() is shared.finish()
        assert sub.finish() is sub.finish()

    def test_empty_subscriber_set_skips_the_document(self, engine, doc):
        shared = engine.shared_session()
        shared.feed(doc)
        summary = shared.finish()
        assert summary["subscribers"] == 0

    def test_malformed_input_raises_everywhere(self, engine):
        shared = engine.shared_session()
        subs = [shared.subscribe(engine.compile(q)) for q in QUERIES[:3]]
        shared.feed("<site><people></wrong>")
        with pytest.raises(XmlSyntaxError):
            shared.finish()
        for sub in subs:
            with pytest.raises(XmlSyntaxError):
                sub.finish()
            assert sub.failed

    def test_truncated_input_raises_everywhere(self, engine, doc):
        shared = engine.shared_session()
        sub = shared.subscribe(engine.compile(QUERIES[0]))
        shared.feed(doc[: len(doc) // 2])
        with pytest.raises(XmlSyntaxError):
            shared.finish()
        with pytest.raises(XmlSyntaxError):
            sub.finish()

    def test_aborted_subscriber_does_not_stall_the_stream(
        self, engine, doc, solo
    ):
        shared = engine.shared_session(max_pending_batches=1)
        quitter = shared.subscribe(engine.compile(QUERIES[2]))
        stayer = shared.subscribe(engine.compile(QUERIES[0]))
        quitter.abort()
        for start in range(0, len(doc), 4096):
            shared.feed(doc[start : start + 4096])
        shared.finish()
        assert_identical(stayer.finish(), solo[0])

    def test_abort_tears_everything_down(self, engine, doc):
        shared = engine.shared_session()
        shared.subscribe(engine.compile(QUERIES[0]))
        shared.feed(doc[:1000])
        shared.abort()  # must not hang or raise

    def test_incremental_output_streams_while_feeding(self, engine, doc):
        # The regions query emits from the front of the document, so
        # fragments must be available before the input is half fed.
        shared = engine.shared_session()
        sub = shared.subscribe(engine.compile(QUERIES[2]))
        chunks = [doc[i : i + 2048] for i in range(0, len(doc), 2048)]
        half = len(chunks) // 2
        for chunk in chunks[:half]:
            shared.feed(chunk)
        # Block until the subscriber emits a fragment — the input is
        # only half fed, so output demonstrably streams incrementally.
        early = sub.next_output(timeout=10)
        assert early
        for chunk in chunks[half:]:
            shared.feed(chunk)
        shared.finish()
        result = sub.finish()
        whole = early + sub.drain_output() + result.output
        oracle = engine.run(engine.compile(QUERIES[2]), doc)
        assert whole == oracle.output


class TestBackpressure:
    def test_slow_subscriber_throttles_the_feed(self, engine, doc):
        """With a bounded output channel nobody drains, the pipeline
        must block the producer instead of buffering the document.
        Tiny batches so the driver flushes often enough for the
        output-side stall to propagate all the way to ``feed``."""
        shared = SharedStreamSession(
            max_pending_chunks=1, max_pending_batches=1, batch_events=16
        )
        sub = shared.subscribe(
            engine.compile(QUERIES[2]), max_pending_output=64
        )
        done = threading.Event()

        def producer():
            for start in range(0, len(doc), 512):
                shared.feed(doc[start : start + 512])
            shared.finish()
            done.set()

        feeder = threading.Thread(target=producer, daemon=True)
        feeder.start()
        assert not done.wait(0.5), "producer never blocked on backpressure"
        # Draining the subscriber releases the whole chain.
        parts = []
        while True:
            part = sub.next_output(timeout=10)
            if part is None:
                break
            parts.append(part)
        feeder.join(timeout=10)
        assert done.is_set()
        result = sub.finish()
        oracle = engine.run(engine.compile(QUERIES[2]), doc)
        assert "".join(parts) + result.output == oracle.output
