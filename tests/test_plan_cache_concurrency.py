"""Plan-cache thread safety: concurrent compilation is single-flight,
and the compiled kernel's transition memo is safely shared.

The server admits many connections that open the same query at the
same instant; the cache must run the static analysis once per
canonical plan no matter how the compilations interleave, and its
hit/miss counters must stay consistent (``misses`` == actual
compilations).  Since the plan carries a lazy
:class:`~repro.core.matcher.PathDFA` whose memo every session extends
in place, concurrency must also never corrupt that shared state: the
suite closes with 64 sessions racing over one plan and a structural
audit of the memo they populated.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

import pytest

from repro.core.engine import GCXEngine
from repro.core.matcher import PathDFA
from repro.core.plan import PlanCache

QUERY = "<r>{ for $x in /doc/item return $x }</r>"


@dataclass
class _FakePlan:
    """Stands in for a QueryPlan: only canonical_text() is consulted."""

    canonical: str
    payload: object = field(default_factory=object)

    def canonical_text(self) -> str:
        return self.canonical


class _SlowCompiler:
    """Counts invocations and dawdles so racing threads really overlap."""

    def __init__(self, canonical_of=lambda text: text.strip(), delay=0.02):
        self.calls: list[str] = []
        self._lock = threading.Lock()
        self._canonical_of = canonical_of
        self._delay = delay

    def __call__(self, query_text, context=None):
        with self._lock:
            self.calls.append(query_text)
        time.sleep(self._delay)
        return _FakePlan(self._canonical_of(query_text))


def _run_threads(count, target):
    barrier = threading.Barrier(count)
    results: list[object] = [None] * count
    errors: list[BaseException] = []

    def runner(index):
        try:
            barrier.wait(timeout=30)
            results[index] = target(index)
        except BaseException as exc:  # noqa: BLE001 - asserted by callers
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    return results, errors


class TestSingleFlight:
    def test_same_query_compiles_once_across_threads(self):
        cache = PlanCache()
        compiler = _SlowCompiler()
        results, errors = _run_threads(
            16, lambda _i: cache.get_or_compile(QUERY, compiler)
        )
        assert not errors
        assert len(compiler.calls) == 1
        assert all(plan is results[0] for plan in results)
        stats = cache.stats
        assert stats.misses == 1
        assert stats.hits == 15
        assert stats.size == 1

    def test_distinct_queries_compile_once_each(self):
        cache = PlanCache()
        compiler = _SlowCompiler()
        queries = [f"<r>{{ for $x in /doc/q{n} return $x }}</r>" for n in range(4)]
        results, errors = _run_threads(
            16, lambda i: cache.get_or_compile(queries[i % 4], compiler)
        )
        assert not errors
        assert sorted(compiler.calls) == sorted(queries)
        for index, plan in enumerate(results):
            assert plan is results[index % 4]
        stats = cache.stats
        assert stats.misses == 4
        assert stats.hits == 12
        assert stats.size == 4

    def test_whitespace_variants_share_one_flight(self):
        """Distinct sources with one canonical form analyse once."""
        cache = PlanCache()
        compiler = _SlowCompiler(canonical_of=lambda text: text.strip())

        def canonicalize(query_text):
            return query_text.strip(), None

        variants = [QUERY + " " * pad for pad in range(8)]
        results, errors = _run_threads(
            8,
            lambda i: cache.get_or_compile(
                variants[i], compiler, canonicalize_fn=canonicalize
            ),
        )
        assert not errors
        assert len(compiler.calls) == 1
        assert all(plan is results[0] for plan in results)
        stats = cache.stats
        assert stats.misses == 1
        assert stats.canonical_reuses == 7
        assert stats.hits == 0

    def test_failure_after_successful_compile_releases_flight(self):
        """A raise *after* compile_fn (canonical_text, storage) must
        retire the flight — otherwise the next lookup waits forever."""

        class _BadPlan:
            def canonical_text(self):
                raise RuntimeError("canonicalization exploded")

        cache = PlanCache()
        with pytest.raises(RuntimeError, match="canonicalization exploded"):
            cache.get_or_compile(QUERY, lambda text, context=None: _BadPlan())
        # The flight is gone: this would hang before the fix.
        good = _SlowCompiler(delay=0)
        cache.get_or_compile(QUERY, good)
        assert len(good.calls) == 1
        assert cache.stats.misses == 1

    def test_compile_failure_released_to_all_waiters(self):
        cache = PlanCache()
        attempts: list[str] = []
        lock = threading.Lock()

        def failing(query_text, context=None):
            with lock:
                attempts.append(query_text)
            time.sleep(0.01)
            raise ValueError("analysis rejected the query")

        results, errors = _run_threads(
            8, lambda _i: cache.get_or_compile(QUERY, failing)
        )
        assert len(errors) == 8
        assert all(isinstance(exc, ValueError) for exc in errors)
        assert all(result is None for result in results)
        assert cache.stats.misses == 0  # nothing was ever cached
        # The failed flight is gone: a later compile succeeds normally.
        good = _SlowCompiler(delay=0)
        plan = cache.get_or_compile(QUERY, good)
        assert len(good.calls) == 1
        assert cache.get_or_compile(QUERY, good) is plan
        assert cache.stats.misses == 1


class TestEngineLevel:
    def test_concurrent_engine_compiles_run_analysis_once(self, monkeypatch):
        import repro.core.engine as engine_module

        engine = GCXEngine()
        calls: list[int] = []
        lock = threading.Lock()
        real_analyze = engine_module.analyze_query

        def counting_analyze(*args, **kwargs):
            with lock:
                calls.append(1)
            time.sleep(0.02)
            return real_analyze(*args, **kwargs)

        monkeypatch.setattr(engine_module, "analyze_query", counting_analyze)
        results, errors = _run_threads(16, lambda _i: engine.compile(QUERY))
        assert not errors
        assert len(calls) == 1
        assert all(plan is results[0] for plan in results)
        stats = engine.plan_cache.stats
        assert stats.misses == 1
        assert stats.hits + stats.misses + stats.canonical_reuses == 16

    def test_concurrent_whitespace_variants_share_plan(self, monkeypatch):
        import repro.core.engine as engine_module

        engine = GCXEngine()
        calls: list[int] = []
        lock = threading.Lock()
        real_analyze = engine_module.analyze_query

        def counting_analyze(*args, **kwargs):
            with lock:
                calls.append(1)
            time.sleep(0.02)
            return real_analyze(*args, **kwargs)

        monkeypatch.setattr(engine_module, "analyze_query", counting_analyze)
        variants = [f"<r>{{ for $x in /doc/item{'  ' * pad} return $x }}</r>" for pad in range(8)]
        results, errors = _run_threads(8, lambda i: engine.compile(variants[i]))
        assert not errors
        assert len(calls) == 1
        assert all(plan is results[0] for plan in results)
        stats = engine.plan_cache.stats
        assert stats.misses == 1
        assert stats.canonical_reuses == 7


def _audit_dfa(dfa: PathDFA) -> None:
    """Structural audit of a shared memo after a concurrent run.

    1. the state table is a bijection (every canonical multiset has
       exactly one id, every id resolves back to its multiset);
    2. every memoized transition references interned states and its
       role counts are plain shareable dicts;
    3. the memo is *deterministic*: replaying every memoized transition
       on a fresh DFA over the same matcher yields an isomorphic
       machine — concurrent discovery changed nothing but the timing.
    """
    with dfa._lock:
        ids = dict(dfa._ids)
        states = list(dfa._states)
        element_memo = [dict(memo) for memo in dfa._element_memo]
    assert len(ids) == len(states)
    for key, state in ids.items():
        assert states[state] == key
    for memo in element_memo:
        for child, parent, counts in memo.values():
            assert 0 <= child < len(states)
            assert 0 <= parent < len(states)
            assert counts is None or isinstance(counts, dict)
    fresh = PathDFA(dfa.matcher)
    mapping = {dfa.start: fresh.start, PathDFA.dead: PathDFA.dead}
    queue = [dfa.start]
    while queue:
        state = queue.pop()
        for tag, (child, parent, counts) in element_memo[state].items():
            f_child, f_parent, f_counts = fresh.element(mapping[state], tag)
            assert f_counts == counts
            for shared, fresh_id in ((child, f_child), (parent, f_parent)):
                if shared not in mapping:
                    mapping[shared] = fresh_id
                    queue.append(shared)
                else:
                    assert mapping[shared] == fresh_id


class TestDfaSharingUnderConcurrency:
    """ISSUE 3: 64 server sessions over one plan must populate the
    lazy-DFA transition memo without races and with exactly one
    compile."""

    QUERY = (
        "<out>{ for $x in /doc/item return "
        "if (exists $x/name) then $x/name else () }</out>"
    )

    @staticmethod
    def _document(seed: int) -> str:
        """A document whose tag mix differs per session, so concurrent
        sessions genuinely race to discover new transitions."""
        rng = random.Random(seed)
        tags = [f"junk{n}" for n in range(6)] + ["extra", "noise"]
        parts = ["<doc>"]
        for _ in range(rng.randint(8, 16)):
            if rng.random() < 0.5:
                parts.append(f"<item><name>n{rng.randint(0, 9)}</name></item>")
            else:
                tag = rng.choice(tags)
                parts.append(f"<{tag}><inner>z</inner></{tag}>")
        parts.append("</doc>")
        return "".join(parts)

    def test_64_sessions_one_compile_consistent_memo(self):
        engine = GCXEngine()

        def run_session(index: int):
            plan = engine.compile(self.QUERY)
            session = engine.session(plan)
            document = self._document(index % 8)
            for start in range(0, len(document), 37):
                session.feed(document[start : start + 37])
            result = session.finish()
            return (plan, result.output, result.stats.watermark)

        results, errors = _run_threads(64, run_session)
        assert not errors
        plans = {id(plan) for plan, _out, _wm in results}
        assert len(plans) == 1  # one shared plan object
        stats = engine.plan_cache.stats
        assert stats.misses == 1  # exactly one compile
        plan = results[0][0]
        assert plan.dfa is not None

        # every session saw exactly what a fresh single-threaded engine
        # computes for the same document
        reference = GCXEngine()
        for index in range(8):
            expected = reference.query(self.QUERY, self._document(index))
            for thread_index in range(index, 64, 8):
                _plan, output, watermark = results[thread_index]
                assert output == expected.output
                assert watermark == expected.stats.watermark

        _audit_dfa(plan.dfa)
        # the memo saw every distinct tag of every document
        memo_stats = plan.dfa.stats()
        assert memo_stats["element_transitions"] >= 8
        assert engine.plan_cache.dfa_stats()["plans"] == 1

    def test_concurrent_raw_transitions_are_deterministic(self):
        """Hammer one DFA's memo from 32 threads walking random tag
        sequences; the resulting machine must be isomorphic to a
        sequentially-built one."""
        from repro.core.matcher import PathMatcher
        from repro.xpath.parser import parse_path

        dfa = PathDFA(
            PathMatcher(
                [
                    ("r1", parse_path("/doc/item/name")),
                    ("r2", parse_path("/doc/descendant::inner")),
                    ("r3", parse_path("/doc/item[1]")),
                ]
            )
        )
        tags = ["doc", "item", "name", "inner", "junk", "noise"]

        def walk(index: int):
            rng = random.Random(index)
            for _ in range(200):
                state = dfa.start
                for _depth in range(rng.randint(1, 5)):
                    state = dfa.element(state, rng.choice(tags))[0]
                    dfa.text(state)
                    if state == PathDFA.dead:
                        break
            return True

        results, errors = _run_threads(32, walk)
        assert not errors
        assert all(results)
        _audit_dfa(dfa)


class TestSequentialInvariantsStillHold:
    """The single-flight rework must not change sequential behaviour."""

    def test_exact_text_hit(self):
        cache = PlanCache()
        compiler = _SlowCompiler(delay=0)
        first = cache.get_or_compile(QUERY, compiler)
        second = cache.get_or_compile(QUERY, compiler)
        assert first is second
        assert len(compiler.calls) == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_eviction_then_recompile(self):
        cache = PlanCache(capacity=1)
        compiler = _SlowCompiler(delay=0)
        cache.get_or_compile("q-one", compiler)
        cache.get_or_compile("q-two", compiler)  # evicts q-one
        cache.get_or_compile("q-one", compiler)
        assert compiler.calls == ["q-one", "q-two", "q-one"]
        assert cache.stats.misses == 3


class TestLexerKernelLifecycle:
    """The fused front-end's lexer kernel rides the plan through the
    cache — certified exactly once inside the single-flight, dropped
    with the plan on eviction, re-certified exactly once on
    re-admission."""

    QUERY_A = "<r>{ for $x in /doc/item return $x/name }</r>"
    QUERY_B = "<r>{ for $x in /doc/thing return $x }</r>"

    @staticmethod
    def _counting_certification(monkeypatch):
        """Patch the engine's lexer-kernel generation with a counting
        proxy."""
        import repro.core.engine as engine_module

        calls: list[int] = []
        lock = threading.Lock()
        real = engine_module.generate_lexer_kernel

        def counting(dfa, analysis):
            with lock:
                calls.append(1)
            time.sleep(0.01)
            return real(dfa, analysis)

        monkeypatch.setattr(engine_module, "generate_lexer_kernel", counting)
        return calls

    def test_eviction_drops_lexer_kernel_and_readmission_recertifies_once(
        self, monkeypatch
    ):
        calls = self._counting_certification(monkeypatch)
        engine = GCXEngine(plan_cache=PlanCache(capacity=1))
        plan_a = engine.compile(self.QUERY_A)
        assert plan_a.lexer_kernel is not None
        assert len(calls) == 1

        engine.compile(self.QUERY_B)  # evicts plan A, kernel and all
        assert len(calls) == 2

        plan_a2 = engine.compile(self.QUERY_A)  # re-admission: recertify
        assert plan_a2 is not plan_a
        assert plan_a2.lexer_kernel is not plan_a.lexer_kernel
        kernel_a, kernel_a2 = plan_a.lexer_kernel, plan_a2.lexer_kernel
        assert kernel_a2.live_tags == kernel_a.live_tags
        assert kernel_a2.certified == kernel_a.certified
        assert len(calls) == 3  # exactly one re-certification, not N

    def test_racing_sessions_certify_exactly_once(self, monkeypatch):
        calls = self._counting_certification(monkeypatch)
        engine = GCXEngine()
        results, errors = _run_threads(
            32, lambda _i: engine.compile(self.QUERY_A)
        )
        assert not errors
        assert len(calls) == 1  # single-flight covers certification too
        assert all(plan is results[0] for plan in results)
        assert results[0].lexer_kernel is not None

    def test_32_sessions_install_audit_with_fused_front_end(self):
        """The shared-memo install audit, re-run with the fused
        front-end driving the shared DFA: 32 concurrent sessions
        over one plan, every output equal to the NFA oracle's, and the
        shared memo still a deterministic machine afterwards."""
        engine = GCXEngine()
        query = TestDfaSharingUnderConcurrency.QUERY
        document = TestDfaSharingUnderConcurrency._document

        def run_session(index: int):
            plan = engine.compile(query)
            assert plan.lexer_kernel is not None
            session = engine.session(plan)
            doc = document(index % 8)
            for start in range(0, len(doc), 41):
                session.feed(doc[start : start + 41])
            result = session.finish()
            return (plan, result.output, result.stats.watermark)

        results, errors = _run_threads(32, run_session)
        assert not errors
        assert len({id(plan) for plan, _o, _w in results}) == 1
        plan = results[0][0]

        reference = GCXEngine(compiled=False)  # NFA oracle
        for index in range(8):
            expected = reference.query(query, document(index))
            for thread_index in range(index, 32, 8):
                _plan, output, watermark = results[thread_index]
                assert output == expected.output
                assert watermark == expected.stats.watermark

        _audit_dfa(plan.dfa)
