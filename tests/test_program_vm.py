"""The compiled operator-program VM against its interpreting oracle.

The :class:`~repro.core.program.CompiledEvaluator` executes a lowered
operator program, so bugs would have to live in the lowering (scoping,
jump targets, pre-resolved paths, pre-escaped fragments) or in the VM's
explicit loop frames (blocking child scans, descendant stacks with
deferred pushes, positional exhaustion).  These tests attack exactly
those seams:

* unit tests over the program shape (op set, raw-fragment merging,
  jump-target fencing, fallback on unsupported constructs, error
  parity message for message);
* differential tests: the query pool of ``test_differential`` plus
  aggregate, value-join (hoisted signOffs) and ``[1]`` first-witness
  queries — over random documents and random chunkings — must produce
  byte-identical output, watermark, per-token series and role
  statistics through the VM as through the interpreting
  :class:`~repro.core.evaluator.PullEvaluator`.
"""

from __future__ import annotations

import pathlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import GCXEngine
from repro.core.evaluator import EvaluationError
from repro.core.program import (
    OP_NAMES,
    ProgramCompileError,
    compile_program,
)
from repro.xmark.queries import ADAPTED_QUERIES
from repro.xpath.ast import Axis, NodeTest, Path, Step
from repro.xquery import ast as q
from repro.xquery.parser import parse_query

from test_differential import QUERIES, random_document

# queries exercising the features the issue singles out: aggregates,
# value-join hoisted signOffs, and [1] first-witness exhaustion
EXTRA_QUERIES = [
    "for $x in /r/a return $x/b[1]",
    "for $x in /r/a/b[1] return $x/text()",
    "for $x in /r/a return if (exists $x/b[1]) then $x/b else ()",
    "for $x in /r/a return ($x/b[1], $x/c[1])",
    "let $n := count(/r/a) return <t c=\"{$n}\">{ $n }</t>",
    "for $x in /r/a return <s>{ sum($x/b) }</s>",
    "for $x in /r/a return (avg($x/b), min($x/b), max($x/b))",
    # value join: the comparison roles are hoisted out of the inner loop
    "for $b in /r/a/b return for $x in /r/a return "
    "if ($x/@k = $b/@k) then <m>{ $x/@k }</m> else ()",
    "for $x in /r/a return for $y in /r/a return "
    "if ($x/b = $y/c) then <j>{ $x/@k }</j> else ()",
]

ALL_QUERIES = QUERIES + EXTRA_QUERIES


def _run_pair(query, xml, chunks=None):
    """One plan compiled twice, run through VM and oracle."""
    vm_engine = GCXEngine()
    oracle_engine = GCXEngine(compiled_eval=False)
    vm_plan = vm_engine.compile(query)
    assert vm_plan.program is not None, f"no program for {query!r}"
    if chunks is None:
        vm = vm_engine.run(vm_plan, xml)
        oracle = oracle_engine.run(oracle_engine.compile(query), xml)
    else:
        vm = _run_session(vm_engine, vm_plan, chunks)
        oracle = _run_session(
            oracle_engine, oracle_engine.compile(query), chunks
        )
    return vm, oracle


def _run_session(engine, plan, chunks):
    session = engine.session(plan)
    for chunk in chunks:
        session.feed(chunk)
    return session.finish()


def _assert_identical(vm, oracle, label=""):
    assert vm.output == oracle.output, label
    a, b = vm.stats, oracle.stats
    assert a.watermark == b.watermark, label
    assert a.tokens == b.tokens, label
    assert a.series == b.series, label
    assert a.nodes_buffered == b.nodes_buffered, label
    assert a.nodes_purged == b.nodes_purged, label
    assert a.roles_assigned == b.roles_assigned, label
    assert a.roles_removed == b.roles_removed, label
    assert a.final_buffered == b.final_buffered, label


def _partition(text: str, cuts: list[int]) -> list[str]:
    offsets = sorted({c % (len(text) + 1) for c in cuts})
    bounds = [0] + offsets + [len(text)]
    return [
        text[bounds[i] : bounds[i + 1]]
        for i in range(len(bounds) - 1)
        if bounds[i] != bounds[i + 1]
    ]


# ---------------------------------------------------------------------------
# program shape
# ---------------------------------------------------------------------------


class TestProgramShape:
    def test_expected_op_set(self):
        plan = GCXEngine().compile(ADAPTED_QUERIES["q1"].text)
        listing = plan.program.describe()
        for name in ("ForScan", "ForNext", "IfBranch", "Emit", "PathPull",
                     "SignOff", "Jump"):
            assert name in listing, listing
        # every op name the VM dispatches on is printable
        assert all(isinstance(v, str) for v in OP_NAMES.values())

    def test_constant_fragments_are_merged(self):
        # constructor + literal text compile into single raw emissions
        program = compile_program(
            parse_query('<a x="1">{ "hi &" }</a>')
        ).ops
        assert len(program) == 1
        assert program[0][1] == '<a x="1">hi &amp;</a>'

    def test_merging_respects_jump_targets(self):
        # the else-branch raw must stay a separate op: a jump targets it
        plan = GCXEngine().compile(
            'for $x in /r/a return if (exists $x/b) then "t" else "e"'
        )
        listing = plan.program.describe()
        assert "'t'" in listing and "'e'" in listing

    def test_programs_are_shared_via_plan(self):
        engine = GCXEngine()
        one = engine.compile(ADAPTED_QUERIES["q1"].text)
        two = engine.compile(ADAPTED_QUERIES["q1"].text)
        assert one.program is two.program

    def test_plan_cache_program_stats(self):
        engine = GCXEngine()
        engine.compile(ADAPTED_QUERIES["q1"].text)
        engine.compile(ADAPTED_QUERIES["q8"].text)
        stats = engine.plan_cache.program_stats()
        assert stats["plans"] == 2
        assert stats["ops"] > 0
        assert stats["fallbacks"] == 0

    def test_unsupported_construct_falls_back(self):
        # a mid-path attribute step is outside the compiled fragment
        bad = q.Query(
            q.PathExpr(
                None,
                Path(
                    (
                        Step(Axis.ATTRIBUTE, NodeTest("name", "k")),
                        Step(Axis.CHILD, NodeTest("name", "b")),
                    ),
                    absolute=True,
                ),
            )
        )
        with pytest.raises(ProgramCompileError):
            compile_program(bad)


# ---------------------------------------------------------------------------
# error parity
# ---------------------------------------------------------------------------


def _run_evaluator(body: q.Expr, xml: str, compiled: bool) -> str:
    """Run a hand-built (unvalidated) query body through one
    evaluator — the normalizer rejects scope errors long before the
    engine's evaluators see them, so parity of the runtime error
    paths is only reachable at this level."""
    from repro.core.buffer import Buffer
    from repro.core.evaluator import PullEvaluator
    from repro.core.matcher import PathMatcher
    from repro.core.program import CompiledEvaluator
    from repro.core.projector import StreamProjector
    from repro.xmlio.lexer import make_lexer
    from repro.xmlio.writer import XmlWriter
    from repro.xpath.parser import parse_path

    query = q.Query(body)
    buffer = Buffer()
    matcher = PathMatcher([("r1", parse_path("/descendant-or-self::node()"))])
    projector = StreamProjector(make_lexer(xml), matcher, buffer)
    writer = XmlWriter()
    if compiled:
        CompiledEvaluator(
            compile_program(query), projector, buffer, writer
        ).run()
    else:
        PullEvaluator(query, projector, buffer, writer).run()
    return writer.getvalue()


def _rel(*steps: Step) -> Path:
    return Path(tuple(steps))


_A_STEP = Step(Axis.CHILD, NodeTest("name", "a"))


class TestErrorParity:
    """The compiler defers the oracle's runtime errors into RAISE ops
    carrying the identical message, at the identical program point."""

    CASES = [
        # unbound output variable
        q.PathExpr("nope", Path()),
        # unbound path context inside a loop body
        q.ForExpr(
            "x",
            q.PathOperand(None, Path((_A_STEP,), absolute=True)),
            q.PathExpr("nope", _rel(_A_STEP)),
        ),
        # a scalar let binding iterated as a node sequence
        q.LetExpr(
            "s",
            q.Literal(1),
            q.ForExpr(
                "x", q.PathOperand("s", _rel(_A_STEP)), q.Empty()
            ),
        ),
        # a scalar let binding under an aggregate
        q.LetExpr(
            "s",
            q.Literal(1),
            q.AggregateExpr(
                q.Aggregate("count", q.PathOperand("s", _rel(_A_STEP)))
            ),
        ),
        # a for binding referenced after its loop popped it
        q.Sequence(
            (
                q.ForExpr(
                    "x",
                    q.PathOperand(None, Path((_A_STEP,), absolute=True)),
                    q.Empty(),
                ),
                q.PathExpr("x", Path()),
            )
        ),
        # a for source that was never normalized to a single step
        q.ForExpr(
            "x",
            q.PathOperand(None, Path((_A_STEP, _A_STEP), absolute=True)),
            q.Empty(),
        ),
    ]

    @pytest.mark.parametrize("body", CASES, ids=lambda b: str(b)[:48])
    def test_same_evaluation_error(self, body):
        xml = "<a>1</a>"  # the root element matches the /a for sources
        with pytest.raises(EvaluationError) as vm_err:
            _run_evaluator(body, xml, compiled=True)
        with pytest.raises(EvaluationError) as oracle_err:
            _run_evaluator(body, xml, compiled=False)
        assert str(vm_err.value) == str(oracle_err.value)

    def test_scalar_shadowing_matches_oracle(self):
        """The oracle resolves scalars before node bindings even when a
        for-loop rebinds the same name; the compiler replays that."""
        body = q.LetExpr(
            "x",
            q.Literal(7),
            q.ForExpr(
                "x",
                q.PathOperand(None, Path((_A_STEP,), absolute=True)),
                q.PathExpr("x", Path()),
            ),
        )
        xml = "<a>1</a>"  # one binding of the inner loop
        vm = _run_evaluator(body, xml, compiled=True)
        oracle = _run_evaluator(body, xml, compiled=False)
        assert vm == oracle == "7"


# ---------------------------------------------------------------------------
# differential: curated pool x random documents
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("query", ALL_QUERIES)
def test_vm_matches_oracle_on_pool(query):
    for seed in range(4):
        xml = random_document(random.Random(seed * 7919 + 3))
        vm, oracle = _run_pair(query, xml)
        _assert_identical(vm, oracle, f"query={query!r} seed={seed}")


@pytest.mark.parametrize("key", ["q1", "q6", "q8", "q13", "q20"])
def test_vm_matches_oracle_on_xmark(key, xmark_small):
    vm, oracle = _run_pair(ADAPTED_QUERIES[key].text, xmark_small)
    _assert_identical(vm, oracle, key)


@pytest.mark.parametrize("key", ["q1", "q8"])
def test_vm_matches_oracle_on_xmark_chunked(key, xmark_small):
    chunks = [
        xmark_small[i : i + 1777] for i in range(0, len(xmark_small), 1777)
    ]
    vm, oracle = _run_pair(ADAPTED_QUERIES[key].text, xmark_small, chunks)
    _assert_identical(vm, oracle, key)


def test_gc_toggle_matches_oracle():
    xml = random_document(random.Random(42))
    for query in ALL_QUERIES[:8]:
        vm = GCXEngine(gc_enabled=False).query(query, xml)
        oracle = GCXEngine(gc_enabled=False, compiled_eval=False).query(
            query, xml
        )
        _assert_identical(vm, oracle, query)


# ---------------------------------------------------------------------------
# differential: Hypothesis — random queries x random chunkings
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    query=st.sampled_from(ALL_QUERIES),
    doc_seed=st.integers(min_value=0, max_value=2**20),
    cuts=st.lists(st.integers(min_value=0, max_value=2**16), max_size=8),
)
def test_vm_equals_oracle_at_random_chunkings(query, doc_seed, cuts):
    xml = random_document(random.Random(doc_seed))
    chunks = _partition(xml, cuts)
    vm, oracle = _run_pair(query, xml, chunks)
    _assert_identical(vm, oracle, f"query={query!r} xml={xml!r}")


@settings(max_examples=25, deadline=None)
@given(
    query=st.sampled_from(EXTRA_QUERIES),
    doc_seed=st.integers(min_value=0, max_value=2**20),
    cuts=st.lists(st.integers(min_value=0, max_value=2**16), max_size=5),
)
def test_vm_chunked_equals_oracle_whole_string(query, doc_seed, cuts):
    """Cross-mode: the VM fed at arbitrary boundaries against the
    oracle's one-shot pull run."""
    xml = random_document(random.Random(doc_seed))
    engine = GCXEngine()
    plan = engine.compile(query)
    vm = _run_session(engine, plan, _partition(xml, cuts))
    oracle_engine = GCXEngine(compiled_eval=False, compiled=False)
    oracle = oracle_engine.run(oracle_engine.compile(query), xml)
    _assert_identical(vm, oracle, f"query={query!r} xml={xml!r}")


# ---------------------------------------------------------------------------
# confinement: no generated code anywhere
# ---------------------------------------------------------------------------


def test_no_exec_or_compile_in_src():
    """The VM binds closures, it never generates source: no module
    under ``src/`` calls the ``exec``/``compile`` builtins.  The lint
    rule (ruff S102) runs in CI; this is its in-tree twin, which also
    covers bare ``compile(`` calls and environments without ruff."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    # bare builtin calls only: `engine.compile(...)`, `re.compile(...)`
    # and `compile_program(...)` are fine, `exec(`/`compile(` are not
    builtin_call = re.compile(r"(?<!def )(?<![\w.])(?:exec|compile)\(")
    offenders = []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            if builtin_call.search(line.split("#", 1)[0]):
                offenders.append(f"{path.relative_to(src)}:{lineno}")
    assert not offenders, "exec()/compile() in src/: " + ", ".join(offenders)
