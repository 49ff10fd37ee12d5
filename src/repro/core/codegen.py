"""Per-plan kernels: the generated evaluator and the fused front-end's
plan data.

The compiled tiers (DESIGN.md §9, §10) are *table-driven*
interpreters: the projector walks a memoized lazy-DFA table and the
evaluator dispatches a flat operator program.  The VM still pays, on every operator, for
work that is **constant for a given plan** — the opcode fetch/decode
loop.  This module removes that residue by *generating Python source*
specialized to one plan, ``compile()``/``exec()``-ing it exactly once
at plan-compile time, and caching the result on the
:class:`~repro.core.plan.QueryPlan` next to ``dfa``/``program`` (so
the plan cache's single-flight and eviction rules cover it for free).
The idea is the classic grammar→generated-parser move (cf. the
generated XPath parser in twisted's ``xpathparser.g``), applied to the
paper's compile-once/stream-many architecture.

**Kernel B — the evaluator** (:func:`generate_evaluator_kernel`): the
flat op tuple of :class:`~repro.core.program.OperatorProgram` came out
of a structured compiler, so its jump graph is reducible by
construction.  A small decompiler re-discovers the ``for``/``if``
structure and emits straight-line Python — loops as ``while``, loop
cursors and bound nodes as locals, pre-escaped constant fragments as
interned string constants — while delegating the blocking-pull
semantics (``_next_child``, ``_output_path``, ``_signoff``, …) to the
very same :class:`~repro.core.program.CompiledEvaluator` methods the
VM uses, bound once as locals.  Opcode dispatch, pc bookkeeping and
frame allocation disappear; semantics cannot drift because the
primitives are shared.

**Kernel C — the fused lexer front-end** (:func:`generate_lexer_kernel`)
is *not* generated code: its loop is the same for every plan, written
once as :class:`~repro.core.projector.FusedStreamProjector`.  This
module only computes its plan data — the closed tag alphabet fused
into the lexer's batch scan, certified against the oracle NFA — and
declines plans whose root keeps unknown tags live.

Both kernels are *optional tiers*: any generation failure (or a plan
shape outside the generator's reach) yields ``None`` and the engine
silently runs the table-driven tier instead — each tier is a
byte-identical oracle for the one above (enforced by the differential
suites).

This module is the **only** place in the repository allowed to call
``exec``/``compile`` (a lint rule and a test pin that down).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.evaluator import EvaluationError, format_number
from repro.core.matcher import PathDFA
from repro.core.program import (
    C_CMP,
    C_EXISTS,
    C_TRUE,
    CompiledEvaluator,
    ITER_CHILD,
    OP_CONSTRUCT,
    OP_EMIT_AGG,
    OP_EMIT_RAW,
    OP_EMIT_SCALAR,
    OP_FOR_INIT,
    OP_FOR_NEXT,
    OP_IF,
    OP_JUMP,
    OP_LET,
    OP_OUTPUT_PATH,
    OP_RAISE,
    OP_SIGNOFF,
    OperatorProgram,
)

__all__ = [
    "CodegenError",
    "CodegenEvaluator",
    "EvaluatorKernel",
    "LexerKernel",
    "PlanKernels",
    "generate_evaluator_kernel",
    "generate_lexer_kernel",
    "generate_plan_kernels",
]

#: The certification walk stops enumerating the DFA closure past this
#: many states: the plan still fuses, uncertified (per-tag dispatch).
MAX_CERTIFIED_STATES = 192


class CodegenError(Exception):
    """The plan contains a shape this generator cannot specialize; the
    caller falls back to the table-driven kernel (never an error)."""


# ---------------------------------------------------------------------------
# kernel containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvaluatorKernel:
    """One generated straight-line ``run`` function, plan-owned.

    ``run_fn(evaluator)`` executes the unrolled program over a
    :class:`CodegenEvaluator` (which supplies the shared blocking-pull
    primitives); ``source`` is the compiled text.
    """

    run_fn: object
    source: str
    program: OperatorProgram


@dataclass(frozen=True)
class LexerKernel:
    """Plan data of the fused lexer front-end (Kernel C), the input of
    :class:`~repro.core.projector.FusedStreamProjector`: ``live_tags``
    is the closed tag alphabet fused into the scan; ``certified`` means
    the oracle NFA proved every tag outside it dead in every reachable
    state (``probed_states`` states passed the probe before the walk
    stopped)."""

    dfa: PathDFA
    live_tags: tuple
    probed_states: int
    certified: bool = True


@dataclass(frozen=True)
class PlanKernels:
    """The kernels of one plan (either side may be ``None`` when
    generation declined; the engine then uses the table tier for that
    side)."""

    evaluator: EvaluatorKernel | None
    lexer: LexerKernel | None = None

    @property
    def kernel_count(self) -> int:
        return (self.evaluator is not None) + (self.lexer is not None)

    @property
    def source_chars(self) -> int:
        """Generated source footprint (Kernel C generates none)."""
        return 0 if self.evaluator is None else len(self.evaluator.source)


# ---------------------------------------------------------------------------
# shared emission plumbing
# ---------------------------------------------------------------------------


class _SourceWriter:
    """Indentation-safe line accumulator for generated source.

    The one prototype bug this generator ever had was a hand-managed
    indent placing a dispatch outside its guarding branch; all emission
    therefore goes through explicit ``depth`` arguments.
    """

    def __init__(self):
        self._lines: list[str] = []

    def line(self, depth: int, text: str) -> None:
        self._lines.append("    " * depth + text if text else "")

    def lines(self, depth: int, texts) -> None:
        for text in texts:
            self.line(depth, text)

    def source(self) -> str:
        return "\n".join(self._lines) + "\n"


class _Constants:
    """Registry of objects the generated source references by name.

    Constants land in the exec namespace, so the generated code shares
    the *same* tuple/predicate objects the VM uses.
    """

    def __init__(self, prefix: str):
        self._prefix = prefix
        self.namespace: dict = {}
        self._by_id: dict[int, str] = {}

    def name_for(self, value) -> str:
        key = id(value)
        name = self._by_id.get(key)
        if name is None:
            name = f"{self._prefix}{len(self._by_id)}"
            self._by_id[key] = name
            self.namespace[name] = value
        return name


def _compile_namespace(source: str, filename: str, namespace: dict) -> dict:
    """``compile`` + ``exec`` the generated module once; returns the
    populated namespace.  The only exec/compile site in the repo."""
    code = compile(source, filename, "exec")
    exec(code, namespace)  # noqa: S102 - the codegen module's one job
    return namespace


# ---------------------------------------------------------------------------
# Kernel C: the fused lexer front-end's plan data
# ---------------------------------------------------------------------------


def _projection_tags(analysis) -> list[str]:
    """All tag names the plan's projection paths can ever match by
    name — the closed tag alphabet fused into the lexer's scan."""
    tags: set[str] = set()
    for role in getattr(analysis, "roles", ()):
        path = getattr(role, "path", None)
        if path is None:
            continue
        for step in path.steps:
            test = step.test
            if getattr(test, "kind", None) == "name" and test.name:
                tags.add(test.name)
    return sorted(tags)


#: The certification probe tag: NUL can never start an XML name, so no
#: document tag collides with it, and pushing it through the oracle NFA
#: answers "what happens to a tag name outside the plan's alphabet?"
#: for one state in one call.
_SENTINEL_TAG = "\x00"


def _probe_fusible(dfa: PathDFA, state: int) -> bool:
    """Is a tag name outside the plan's alphabet fully inert in
    *state*?  The :data:`_SENTINEL_TAG` is pushed through the oracle
    NFA on freshly materialized instances (no shared memo is touched):
    inert means it binds no roles, enters the dead state, and leaves
    the parent state unchanged.  Wildcard and ``node()`` element tests
    match the sentinel and fail the probe; descendant self-loops keep
    it live and fail the probe — exactly the situations where a skip
    cannot be decided by name alone.
    """
    instances = dfa._instances(state)
    child_instances, counts = dfa.matcher.enter_element(
        instances, _SENTINEL_TAG
    )
    if counts:
        return False
    if dfa._canonical(child_instances):
        return False
    return dfa._canonical(instances) == dfa._states[state]


def _certify_live_alphabet(dfa: PathDFA, tags: list[str]) -> tuple:
    """Decide how much of the fused-skip decision can be baked;
    returns ``(certified, probed_states)``.

    The state closure is walked breadth-first over the alphabet
    *including* text-driven parent adjustments (a fused run can sit in
    a state only reachable through a text event exhausting a ``[1]``
    step), and each state is probed with :func:`_probe_fusible` as the
    walk dequeues it.  ``certified=True`` means the probe passed in
    *every* closure state — an out-of-alphabet tag is dead everywhere,
    so the fused loop may bulk-skip it without touching the DFA at all.
    The walk stops at the first state that fails (``probed_states``
    passed before it), or past :data:`MAX_CERTIFIED_STATES`:
    ``certified=False`` (some state keeps unknown tags live, e.g. a
    trailing ``descendant-or-self::node()`` subtree-copy role or a
    descendant self-loop) still permits fusion — the batch boundary at
    an unknown tag is harmless — but the skip decision must go through
    the shared DFA dispatch per tag.  Stopping early matters: the
    closure of a descendant chain grows with the number of NFA
    derivations, and it is never needed once one state has failed.

    Raises:
        CodegenError: even the start state keeps unknown tags live
            (wildcard or descendant steps at the root): fusion could
            never skip anything, so the plan declines to the tables.
    """
    seen: list[int] = [dfa.start]
    seen_set = {dfa.start, PathDFA.dead}
    probed = 0
    while probed < len(seen):
        state = seen[probed]
        if not _probe_fusible(dfa, state):
            if probed == 0:
                raise CodegenError(
                    "unknown tags stay live at the root (wildcard/descendant)"
                )
            return (False, probed)
        probed += 1
        nxt = [dfa.text(state)[1]]
        for tag in tags:
            child, parent, _counts = dfa.element(state, tag)
            nxt.append(child)
            nxt.append(parent)
        for candidate in nxt:
            if candidate not in seen_set:
                seen_set.add(candidate)
                seen.append(candidate)
        if len(seen) > MAX_CERTIFIED_STATES:
            return (False, probed)
    return (True, probed)


def generate_lexer_kernel(dfa: PathDFA, analysis) -> LexerKernel:
    """The plan data of Kernel C: the alphabet and its certificate
    (:func:`_certify_live_alphabet`), computed once per plan compile.

    Raises:
        CodegenError: the plan cannot profit from fusion at all — no
            named projection tags, or unknown tags stay live even at
            the root (wildcard steps, descendant axes from the root).
    """
    if dfa is None:
        raise CodegenError("plan has no DFA")
    tags = _projection_tags(analysis)
    if not tags:
        raise CodegenError("no named projection tags to fuse over")
    certified, probed = _certify_live_alphabet(dfa, tags)
    return LexerKernel(
        dfa=dfa,
        live_tags=tuple(tags),
        probed_states=probed,
        certified=certified,
    )


# ---------------------------------------------------------------------------
# Kernel B: the generated evaluator
# ---------------------------------------------------------------------------


def _expect_for(ops: tuple, pc: int, end: int) -> tuple:
    """Validate the compiler's canonical for-loop shape at *pc* and
    return ``(spec, slot, body_start, body_end, exit_pc)``."""
    init = ops[pc]
    if pc + 1 >= end:
        raise CodegenError("for-init at block end")
    nxt = ops[pc + 1]
    if nxt[0] != OP_FOR_NEXT:
        raise CodegenError("for-init not followed by for-next")
    exit_pc = nxt[2]
    if not (pc + 2 <= exit_pc - 1 <= end):
        raise CodegenError("for exit outside block")
    back = ops[exit_pc - 1]
    if back[0] != OP_JUMP or back[1] != pc + 1:
        raise CodegenError("for body does not jump back to its head")
    return init[1], nxt[1], pc + 2, exit_pc - 1, exit_pc


class _EvalEmitter:
    """Decompile the flat op tuple back into structure and emit it."""

    def __init__(self, program: OperatorProgram):
        self.program = program
        self.consts = _Constants("S")
        self.w = _SourceWriter()
        self._depth_counter = 0

    # -- expressions -------------------------------------------------------

    def _cond_expr(self, spec) -> str:
        kind = spec[0]
        if kind == C_CMP:
            return f"comparison({self.consts.name_for(spec)})"
        if kind == C_EXISTS:
            return f"exists({self.consts.name_for(spec)})"
        if kind == C_TRUE:
            return "True"
        return f"cond({self.consts.name_for(spec)})"

    def _ctx_expr(self, ctx) -> str:
        return "root" if ctx is None else f"slots[{ctx}]"

    # -- statements --------------------------------------------------------

    def _emit_simple(self, d: int, op: tuple) -> None:
        w = self.w
        code = op[0]
        if code == OP_EMIT_RAW:
            w.line(d, f"raw({self.consts.name_for(op[1])})")
        elif code == OP_OUTPUT_PATH:
            steps = self.consts.name_for(op[2])
            w.line(d, f"output_path({op[1]!r}, {steps}, {op[3]!r})")
        elif code == OP_SIGNOFF:
            steps = self.consts.name_for(op[2])
            w.line(d, f"signoff({op[1]!r}, {steps}, {op[3]!r})")
        elif code == OP_EMIT_SCALAR:
            w.line(d, f"_v = slots[{op[1]}]")
            w.line(d, "wtext(_v if isinstance(_v, str) else format_number(_v))")
        elif code == OP_EMIT_AGG:
            w.line(d, f"wtext(format_number(aggregate({self.consts.name_for(op[1])})))")
        elif code == OP_CONSTRUCT:
            specs = self.consts.name_for(op[2])
            w.line(d, f"start_element({op[1]!r}, resolve_attributes({specs}))")
        elif code == OP_LET:
            kind, payload = op[2]
            if kind == "agg":
                w.line(d, f"slots[{op[1]}] = aggregate({self.consts.name_for(payload)})")
            else:
                w.line(d, f"slots[{op[1]}] = {self.consts.name_for(payload)}")
        elif code == OP_RAISE:
            w.line(d, f"raise EvaluationError({op[1]!r})")
        else:
            raise CodegenError(f"unsupported opcode {code} in straight-line position")

    def _emit_for(self, d: int, spec, slot: int, body_start: int, body_end: int) -> None:
        w = self.w
        n = self._depth_counter
        self._depth_counter += 1
        if spec[0] == ITER_CHILD:
            pred = self.consts.name_for(spec[2])
            position = spec[3]
            w.line(d, f"_c{n} = {self._ctx_expr(spec[1])}")
            w.line(d, f"_s{n} = 0")
            if position is not None:
                w.line(d, f"_m{n} = 0")
            w.line(d, "while True:")
            w.line(d + 1, f"_n{n} = next_child(_c{n}, _s{n}, {pred})")
            w.line(d + 1, f"if _n{n} is None:")
            w.line(d + 2, "break")
            w.line(d + 1, f"_s{n} = _n{n}.seq")
            if position is not None:
                w.line(d + 1, f"_m{n} += 1")
                w.line(d + 1, f"if _m{n} != {position}:")
                w.line(d + 2, "continue")
            w.line(d + 1, f"slots[{slot}] = _n{n}")
            self._emit_block(d + 1, body_start, body_end)
            if position is not None:
                w.line(d + 1, "break")
        else:
            # Descendant / self iteration keeps the VM's frame helpers
            # (deferred-push GC semantics live there); the unrolling win
            # is the removed dispatch, not the frame.
            frame_spec = self.consts.name_for(spec)
            w.line(d, f"_f{n} = new_frame({frame_spec})")
            w.line(d, "while True:")
            w.line(d + 1, f"_n{n} = for_next(_f{n})")
            w.line(d + 1, f"if _n{n} is None:")
            w.line(d + 2, "break")
            w.line(d + 1, f"slots[{slot}] = _n{n}")
            self._emit_block(d + 1, body_start, body_end)

    def _emit_if(self, d: int, pc: int, end: int) -> int:
        ops = self.program.ops
        op = ops[pc]
        else_pc = op[2]
        if not (pc < else_pc <= end):
            raise CodegenError("if target outside block")
        w = self.w
        cond = self._cond_expr(op[1])
        tail = else_pc - 1
        has_else = (
            tail > pc
            and ops[tail][0] == OP_JUMP
            and ops[tail][1] > tail  # forward: the then-block's skip
        )
        if has_else:
            end_pc = ops[tail][1]
            if end_pc > end:
                raise CodegenError("else target outside block")
            w.line(d, f"if {cond}:")
            self._emit_block(d + 1, pc + 1, tail)
            w.line(d, "else:")
            self._emit_block(d + 1, else_pc, end_pc)
            return end_pc
        w.line(d, f"if {cond}:")
        self._emit_block(d + 1, pc + 1, else_pc)
        return else_pc

    def _emit_block(self, d: int, start: int, end: int) -> None:
        ops = self.program.ops
        if start >= end:
            self.w.line(d, "pass")
            return
        pc = start
        while pc < end:
            code = ops[pc][0]
            if code == OP_FOR_INIT:
                spec, slot, body_start, body_end, exit_pc = _expect_for(ops, pc, end)
                self._emit_for(d, spec, slot, body_start, body_end)
                pc = exit_pc
            elif code == OP_IF:
                pc = self._emit_if(d, pc, end)
            elif code in (OP_FOR_NEXT, OP_JUMP):
                raise CodegenError(f"unstructured opcode {code} at pc {pc}")
            else:
                self._emit_simple(d, ops[pc])
                pc += 1

    def emit(self) -> str:
        w = self.w
        w.lines(0, (
            "def run(self):",
            "    slots = self._slots",
            "    writer = self._writer",
            "    raw = writer.raw",
            "    wtext = writer.text",
            "    start_element = writer.start_element",
            "    root = self._buffer.root",
            "    next_child = self._next_child",
            "    new_frame = self._new_frame",
            "    for_next = self._for_next",
            "    cond = self._cond",
            "    comparison = self._comparison",
            "    exists = self._exists",
            "    output_path = self._output_path",
            "    signoff = self._signoff",
            "    aggregate = self._aggregate",
            "    resolve_attributes = self._resolve_attributes",
        ))
        self._emit_block(1, 0, len(self.program.ops))
        return w.source()


def generate_evaluator_kernel(program: OperatorProgram) -> EvaluatorKernel:
    """Generate, compile and return Kernel B for one operator program.

    Raises:
        CodegenError: the op stream is outside the structured shape the
            decompiler understands (callers fall back to the VM).
    """
    if program is None:
        raise CodegenError("plan has no operator program")
    emitter = _EvalEmitter(program)
    source = emitter.emit()
    namespace = dict(emitter.consts.namespace)
    namespace["EvaluationError"] = EvaluationError
    namespace["format_number"] = format_number
    try:
        module = _compile_namespace(source, "<gcx-evaluator-kernel>", namespace)
    except SyntaxError as exc:  # pragma: no cover - generator bug guard
        raise CodegenError(f"generated evaluator source invalid: {exc}") from exc
    return EvaluatorKernel(run_fn=module["run"], source=source, program=program)


class CodegenEvaluator(CompiledEvaluator):
    """Kernel B bound to one run: the generated straight-line ``run``
    over the VM's own blocking-pull primitives (inherited), so the
    observable behaviour is byte-identical to
    :class:`~repro.core.program.CompiledEvaluator` by construction."""

    def __init__(self, kernel: EvaluatorKernel, program, projector, buffer,
                 writer, gc_enabled: bool = True):
        if program is not kernel.program:
            raise CodegenError("kernel was generated for a different program")
        super().__init__(program, projector, buffer, writer, gc_enabled)
        self._kernel_run = kernel.run_fn

    def run(self) -> None:
        self._kernel_run(self)


# ---------------------------------------------------------------------------
# plan-level entry point
# ---------------------------------------------------------------------------


def generate_plan_kernels(dfa, analysis, program) -> PlanKernels | None:
    """Generate both kernels for one plan, tolerating partial coverage.

    Called once per plan compile (inside the cache's single-flight, so
    N racing sessions trigger exactly one generation).  Any failure is
    a silent fallback to the table tier — the kernels are a pure
    optimisation, never a correctness risk.
    """
    evaluator = None
    lexer = None
    if dfa is not None:
        try:
            lexer = generate_lexer_kernel(dfa, analysis)
        except CodegenError:
            lexer = None
    if program is not None:
        try:
            evaluator = generate_evaluator_kernel(program)
        except CodegenError:
            evaluator = None
    if evaluator is None and lexer is None:
        return None
    return PlanKernels(evaluator=evaluator, lexer=lexer)
