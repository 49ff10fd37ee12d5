"""The compiled evaluation kernel: query → operator program → VM.

PR 3 compiled the *input* half of the paper's pull chain (token→role
matching) into a lazy DFA; this module compiles the *evaluation* half.
The signOff-rewritten query AST is lowered once per plan into a flat
**operator program** — a tuple of slotted ops (for-scan, branch, emit,
path pull, aggregate, signOff, jumps) — and executed by
:class:`CompiledEvaluator`, a compact VM that keeps an explicit
binding/loop-frame stack instead of re-walking the AST with
``isinstance`` chains for every binding.

Everything that can be resolved statically is resolved at compile
time and cached on the ops:

* variable references become integer **slots** (the compiler replays
  the interpreter's exact dynamic scoping, including its quirk that a
  scalar ``let`` binding shadows a node binding of the same name, so
  even the error cases match the oracle message for message);
* relative paths are pre-split into ``(steps, trailing attribute)``
  with one compiled node-test predicate per step;
* constant constructor fragments and text literals are pre-escaped and
  merged into single raw-emission ops.

The VM drives the very same blocking-pull discipline as the
interpreting :class:`~repro.core.evaluator.PullEvaluator` (which stays
untouched as the semantics oracle, mirroring the DFA/NFA pattern of
DESIGN.md §9): whenever data is not yet buffered it advances the
projector one token at a time, and signOff contexts are pulled to
their end tags before any role is removed, preserving the §3 ordering
that makes active garbage collection sound.  Output bytes, watermark,
per-token series and role statistics are byte-identical to the oracle
at every input chunking (DESIGN.md §10).

Queries outside the compiler's reach (e.g. attribute steps in the
middle of a buffer path) raise :class:`ProgramCompileError`; the
engine then stores ``program=None`` on the plan and sessions fall back
to the interpreting evaluator, so compilation coverage is a pure
optimisation, never a correctness risk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.buffer import BufferNode
from repro.core.evaluator import (
    EvaluationError,
    _compare,
    _split_attribute,
    compute_aggregate,
    format_number,
)
from repro.core.snapshot import SnapshotFormatError
from repro.xmlio.writer import escape_attribute, escape_text
from repro.xpath.ast import Axis, NodeTest, Path
from repro.xquery import ast as q


class ProgramCompileError(EvaluationError):
    """The query contains a construct the program compiler cannot
    lower; the caller falls back to the interpreting evaluator."""


# ---------------------------------------------------------------------------
# opcodes
# ---------------------------------------------------------------------------

OP_FOR_INIT = 0  # (op, iter_spec)              push a loop frame
OP_FOR_NEXT = 1  # (op, slot, exit_pc)          bind next node or exit loop
OP_JUMP = 2  # (op, target_pc)
OP_IF = 3  # (op, cond_spec, else_pc)
OP_LET = 4  # (op, slot, value_spec)            bind a scalar
OP_EMIT_RAW = 5  # (op, text)                   pre-escaped constant output
OP_EMIT_SCALAR = 6  # (op, slot)                output a scalar binding
OP_OUTPUT_PATH = 7  # (op, ctx, steps, attr)    serialize selected subtrees
OP_EMIT_AGG = 8  # (op, agg_spec)               output an aggregate value
OP_CONSTRUCT = 9  # (op, tag, attr_specs)       start tag with dynamic attrs
OP_SIGNOFF = 10  # (op, ctx, steps, role)       role removal + GC
OP_RAISE = 11  # (op, message)                  deferred EvaluationError

OP_NAMES = {
    OP_FOR_INIT: "ForScan",
    OP_FOR_NEXT: "ForNext",
    OP_JUMP: "Jump",
    OP_IF: "IfBranch",
    OP_LET: "LetBind",
    OP_EMIT_RAW: "Emit",
    OP_EMIT_SCALAR: "EmitScalar",
    OP_OUTPUT_PATH: "PathPull",
    OP_EMIT_AGG: "Aggregate",
    OP_CONSTRUCT: "ConstructStart",
    OP_SIGNOFF: "SignOff",
    OP_RAISE: "Raise",
}

# iteration kinds (first element of an iter_spec)
ITER_CHILD = 0  # (kind, ctx, pred, position)
ITER_DESC = 1  # (kind, ctx, pred, position, include_self)
ITER_SELF = 2  # (kind, ctx, pred)

# condition-spec kinds
C_TRUE = 0  # (kind,)
C_EXISTS = 1  # (kind, ctx, steps, attr)
C_NOT = 2  # (kind, sub)
C_AND = 3  # (kind, left, right)
C_OR = 4  # (kind, left, right)
C_CMP = 5  # (kind, op, left_values, right_values)
C_RAISE = 6  # (kind, message)

# operand-spec kinds (comparison sides, attribute templates)
V_LIT = 0  # (kind, value)
V_AGG = 1  # (kind, agg_spec)
V_SCALAR = 2  # (kind, slot)
V_PATH = 3  # (kind, ctx, steps, attr)
V_RAISE = 4  # (kind, message)

# attribute-template kinds inside OP_CONSTRUCT
A_CONST = 0  # (name, kind, raw_value)
A_AGG = 1  # (name, kind, agg_spec)
A_PATH = 2  # (name, kind, operand_spec)

# buffer-path axis codes inside a compiled step (axis, pred, position)
AX_CHILD = 0
AX_DESC = 1
AX_DOS = 2
AX_SELF = 3

_AXIS_CODES = {
    Axis.CHILD: AX_CHILD,
    Axis.DESCENDANT: AX_DESC,
    Axis.DESCENDANT_OR_SELF: AX_DOS,
    Axis.SELF: AX_SELF,
}


def _compile_pred(test: NodeTest):
    """One callable per node test, valid for element, text and document
    buffer nodes alike (mirrors ``PullEvaluator._node_matches``)."""
    kind = test.kind
    if kind == "name":
        name = test.name

        def pred(node, _name=name):
            return node.tag == _name

        return pred
    if kind == "wildcard":
        return lambda node: node.tag is not None and node.tag != "#document"
    if kind == "text":
        return lambda node: node.tag is None
    if kind == "node":
        return lambda node: True
    raise ProgramCompileError(f"unsupported node test {test!r}")


# ---------------------------------------------------------------------------
# the program object
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorProgram:
    """One compiled evaluation program: immutable, plan-owned, shared
    by every run and session of the plan (all per-run state lives on
    the executing :class:`CompiledEvaluator`)."""

    ops: tuple
    n_slots: int

    @property
    def op_count(self) -> int:
        return len(self.ops)

    @cached_property
    def enclosing_loops(self) -> tuple:
        """Per pc ``0..len(ops)``: the ``OP_FOR_INIT`` pcs of the loops
        live there, outermost first — the frames a snapshot must carry."""
        live: list = [()] * (len(self.ops) + 1)
        for pc, op in enumerate(self.ops):
            if op[0] == OP_FOR_INIT:
                for inner in range(pc + 1, self.ops[pc + 1][2]):
                    live[inner] = live[inner] + (pc,)
        return tuple(live)

    def describe(self) -> str:
        """Readable op listing (DESIGN.md §10's textual form)."""
        lines = []
        for pc, op in enumerate(self.ops):
            name = OP_NAMES.get(op[0], f"op{op[0]}")
            args = " ".join(_describe_arg(a) for a in op[1:])
            lines.append(f"{pc:3d}  {name} {args}".rstrip())
        return "\n".join(lines)


def _describe_arg(arg) -> str:
    if callable(arg):
        return "<pred>"
    if isinstance(arg, tuple):
        return "(" + " ".join(_describe_arg(a) for a in arg) + ")"
    return repr(arg)


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------


class _Compiler:
    """Single-pass lowering of a rewritten query body into ops.

    Scoping replays the interpreter exactly: two dynamic namespaces
    (node bindings and scalar ``let`` bindings) where the scalar one is
    consulted first, and a binder *removes* its name on scope exit just
    like the interpreter's ``dict.pop`` — so references that the oracle
    would reject at runtime compile into :data:`OP_RAISE` ops carrying
    the identical message.
    """

    def __init__(self):
        self.ops: list = []
        self.n_slots = 0
        self._nodes: dict[str, int] = {}  # name -> node slot
        self._scalars: dict[str, int] = {}  # name -> scalar slot
        #: merge fence: EMIT_RAW coalescing must not cross a jump target
        self._fence = 0

    # -- emission plumbing ------------------------------------------------

    def _emit(self, op: tuple) -> int:
        self.ops.append(op)
        return len(self.ops) - 1

    def _label(self) -> int:
        """Current pc as a jump target; fences raw-text merging."""
        self._fence = len(self.ops)
        return len(self.ops)

    def _patch(self, at: int, *, target: int) -> None:
        op = self.ops[at]
        self.ops[at] = op[:-1] + (target,)

    def _raw(self, text: str) -> None:
        if not text:
            return
        ops = self.ops
        if len(ops) > self._fence and ops[-1][0] == OP_EMIT_RAW:
            ops[-1] = (OP_EMIT_RAW, ops[-1][1] + text)
        else:
            self._emit((OP_EMIT_RAW, text))

    def _new_slot(self) -> int:
        slot = self.n_slots
        self.n_slots += 1
        return slot

    # -- variable resolution (mirrors PullEvaluator._context) -------------

    def _context_ref(self, var: str | None):
        """Slot (or ``None`` for the root) of a *node* context, or an
        error message matching the oracle's ``_context``."""
        if var is None:
            return None, None
        if var in self._scalars:
            return None, f"${var} is a scalar let binding, not a node"
        slot = self._nodes.get(var)
        if slot is None:
            return None, f"unbound variable ${var}"
        return slot, None

    # -- paths -------------------------------------------------------------

    def _steps(self, path: Path) -> tuple:
        compiled = []
        for step in path.steps:
            code = _AXIS_CODES.get(step.axis)
            if code is None:
                raise ProgramCompileError(
                    f"unsupported axis {step.axis.value} in buffer path"
                )
            compiled.append((code, _compile_pred(step.test), step.position))
        return tuple(compiled)

    def _path_spec(self, var: str | None, path: Path):
        """``(ctx, steps, attribute)`` or an error message."""
        ctx, error = self._context_ref(var)
        if error is not None:
            return None, error
        relative, attribute = _split_attribute(path)
        return (ctx, self._steps(relative), attribute), None

    # -- operands / aggregates / conditions --------------------------------

    def _agg_spec(self, aggregate: q.Aggregate) -> tuple:
        """``(func, ctx, steps, attribute)``; func None defers an error."""
        operand = aggregate.operand
        spec, error = self._path_spec(operand.var, operand.path)
        if error is not None:
            return (None, error, None, None)
        ctx, steps, attribute = spec
        return (aggregate.func, ctx, steps, attribute)

    def _operand_spec(self, operand) -> tuple:
        if isinstance(operand, q.Literal):
            return (V_LIT, operand.value)
        if isinstance(operand, q.Aggregate):
            return (V_AGG, self._agg_spec(operand))
        if isinstance(operand, q.PathOperand):
            if operand.var is not None and operand.var in self._scalars:
                return (V_SCALAR, self._scalars[operand.var])
            spec, error = self._path_spec(operand.var, operand.path)
            if error is not None:
                return (V_RAISE, error)
            return (V_PATH,) + spec
        raise ProgramCompileError(f"unsupported operand {operand!r}")

    def _cond_spec(self, condition: q.Condition) -> tuple:
        if isinstance(condition, q.Exists):
            operand = condition.operand
            if operand.var is not None and operand.var in self._scalars:
                return (C_TRUE,)  # a bound scalar exists
            spec, error = self._path_spec(operand.var, operand.path)
            if error is not None:
                return (C_RAISE, error)
            ctx, steps, attribute = spec
            if not steps and attribute is None:
                return (C_TRUE,)  # exists $x on a bound variable
            return (C_EXISTS, ctx, steps, attribute)
        if isinstance(condition, q.Not):
            return (C_NOT, self._cond_spec(condition.operand))
        if isinstance(condition, q.And):
            return (
                C_AND,
                self._cond_spec(condition.left),
                self._cond_spec(condition.right),
            )
        if isinstance(condition, q.Or):
            return (
                C_OR,
                self._cond_spec(condition.left),
                self._cond_spec(condition.right),
            )
        if isinstance(condition, q.Comparison):
            return (
                C_CMP,
                condition.op,
                self._operand_spec(condition.left),
                self._operand_spec(condition.right),
            )
        raise ProgramCompileError(f"unsupported condition {condition!r}")

    # -- expressions -------------------------------------------------------

    def compile_body(self, expr: q.Expr) -> None:
        if isinstance(expr, q.Sequence):
            for item in expr.items:
                self.compile_body(item)
        elif isinstance(expr, q.ForExpr):
            self._compile_for(expr)
        elif isinstance(expr, q.LetExpr):
            self._compile_let(expr)
        elif isinstance(expr, q.IfExpr):
            self._compile_if(expr)
        elif isinstance(expr, q.ElementConstructor):
            self._compile_construct(expr)
        elif isinstance(expr, q.PathExpr):
            self._compile_output_path(expr)
        elif isinstance(expr, q.AggregateExpr):
            self._emit((OP_EMIT_AGG, self._agg_spec(expr.aggregate)))
        elif isinstance(expr, q.SignOff):
            self._compile_signoff(expr)
        elif isinstance(expr, q.TextLiteral):
            self._raw(escape_text(expr.value))
        elif isinstance(expr, q.Empty):
            pass
        else:
            raise ProgramCompileError(f"unsupported expression {expr!r}")

    def _compile_for(self, expr: q.ForExpr) -> None:
        source = expr.source
        ctx, error = self._context_ref(source.var)
        if error is not None:
            self._emit((OP_RAISE, error))
            return
        if len(source.path.steps) != 1:
            self._emit(
                (
                    OP_RAISE,
                    f"for source {source} is not single-step; "
                    "query was not normalized",
                )
            )
            return
        step = source.path.steps[0]
        pred = _compile_pred(step.test)
        if step.axis is Axis.CHILD:
            iter_spec = (ITER_CHILD, ctx, pred, step.position)
        elif step.axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
            iter_spec = (
                ITER_DESC,
                ctx,
                pred,
                step.position,
                step.axis is Axis.DESCENDANT_OR_SELF,
            )
        elif step.axis is Axis.SELF:
            iter_spec = (ITER_SELF, ctx, pred)
        else:
            self._emit(
                (OP_RAISE, f"cannot iterate over axis {step.axis.value}")
            )
            return
        slot = self._new_slot()
        self._nodes[expr.var] = slot
        self._emit((OP_FOR_INIT, iter_spec))
        head = self._label()
        next_pc = self._emit((OP_FOR_NEXT, slot, -1))
        self.compile_body(expr.body)
        self._emit((OP_JUMP, head))
        self._patch(next_pc, target=self._label())
        # mirror the interpreter's env.pop: the name is gone, whatever
        # it shadowed stays gone too
        self._nodes.pop(expr.var, None)

    def _compile_let(self, expr: q.LetExpr) -> None:
        if isinstance(expr.value, q.Aggregate):
            value_spec = ("agg", self._agg_spec(expr.value))
        elif isinstance(expr.value, q.Literal):
            value_spec = ("lit", expr.value.value)
        else:
            raise ProgramCompileError(f"unsupported let value {expr.value!r}")
        slot = self._new_slot()
        self._scalars[expr.var] = slot
        self._emit((OP_LET, slot, value_spec))
        self.compile_body(expr.body)
        self._scalars.pop(expr.var, None)

    def _compile_if(self, expr: q.IfExpr) -> None:
        cond = self._cond_spec(expr.condition)
        if_pc = self._emit((OP_IF, cond, -1))
        self.compile_body(expr.then)
        if isinstance(expr.orelse, q.Empty):
            self._patch(if_pc, target=self._label())
            return
        jump_pc = self._emit((OP_JUMP, -1))
        self._patch(if_pc, target=self._label())
        self.compile_body(expr.orelse)
        self._patch(jump_pc, target=self._label())

    def _compile_construct(self, expr: q.ElementConstructor) -> None:
        attributes = expr.attributes
        if all(isinstance(value, str) for _name, value in attributes):
            rendered = "".join(
                f' {name}="{escape_attribute(value)}"'
                for name, value in attributes
            )
            self._raw(f"<{expr.tag}{rendered}>")
        else:
            specs = []
            for name, value in attributes:
                if isinstance(value, q.Aggregate):
                    specs.append((name, A_AGG, self._agg_spec(value)))
                elif isinstance(value, q.PathOperand):
                    specs.append((name, A_PATH, self._operand_spec(value)))
                else:
                    specs.append((name, A_CONST, value))
            self._emit((OP_CONSTRUCT, expr.tag, tuple(specs)))
        self.compile_body(expr.body)
        self._raw(f"</{expr.tag}>")

    def _compile_output_path(self, expr: q.PathExpr) -> None:
        if expr.var is not None and expr.var in self._scalars:
            self._emit((OP_EMIT_SCALAR, self._scalars[expr.var]))
            return
        spec, error = self._path_spec(expr.var, expr.path)
        if error is not None:
            self._emit((OP_RAISE, error))
            return
        self._emit((OP_OUTPUT_PATH,) + spec)

    def _compile_signoff(self, expr: q.SignOff) -> None:
        ctx, error = self._context_ref(expr.var)
        if error is not None:
            self._emit((OP_RAISE, error))
            return
        self._emit((OP_SIGNOFF, ctx, self._steps(expr.path), expr.role))


def compile_program(query: q.Query) -> OperatorProgram:
    """Lower a (signOff-rewritten) query into an operator program.

    Raises:
        ProgramCompileError: the query uses a construct outside the
            compiled fragment; callers fall back to the interpreting
            :class:`~repro.core.evaluator.PullEvaluator`.
    """
    compiler = _Compiler()
    compiler.compile_body(query.body)
    return OperatorProgram(tuple(compiler.ops), compiler.n_slots)


# ---------------------------------------------------------------------------
# the VM
# ---------------------------------------------------------------------------


def _write_buffer_node(writer, node: BufferNode) -> None:
    """Serialize a buffered subtree (iterative: depth-safe); the exact
    twin of ``PullEvaluator._write_buffer_node``."""
    stack: list = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            writer.end_element(item)
        elif item.tag is None:
            writer.text(item.text or "")
        elif item.tag == "#document":
            stack.extend(reversed(item.children))
        else:
            writer.start_element(item.tag, sorted(item.attributes.items()))
            stack.append(item.tag)
            stack.extend(reversed(item.children))


def _descendants(node: BufferNode):
    """Preorder descendants of a buffered node (elements descend)."""
    stack = list(reversed(node.children))
    while stack:
        child = stack.pop()
        yield child
        if child.tag is not None:
            stack.extend(reversed(child.children))


def _raiser(message: str):
    """A handler (or condition) that raises the deferred error."""

    def handler():
        raise EvaluationError(message)

    return handler


class CompiledEvaluator:
    """Executes one operator program over one projected stream.

    Drop-in replacement for :class:`~repro.core.evaluator.PullEvaluator`
    with the same constructor shape and ``run()`` contract; only the
    dispatch machinery differs.  Loop state lives in explicit frames —
    small mutable lists on a stack — and variable bindings in a flat
    slot list, so an iteration costs a few list operations instead of
    an AST walk.  Dispatch is closure-threaded: each op is bound once,
    at construction, to a closure returning the next pc, and ``run()``
    is the loop ``pc = handlers[pc]()``.
    """

    def __init__(
        self,
        program: OperatorProgram,
        projector,
        buffer,
        writer,
        gc_enabled: bool = True,
    ):
        self._program = program
        self._projector = projector
        self._buffer = buffer
        self._writer = writer
        self._gc_enabled = gc_enabled
        self._slots: list = [None] * program.n_slots
        # Dispatch state lives on the instance so a freeze can unwind
        # run() and a later run() call (or a restored twin) re-enters
        # at the same op.  The bound handlers close over these two
        # lists, so they are only ever mutated in place.
        self._frames: list = []
        self._pc = 0
        self._handlers = self._bind()

    # ------------------------------------------------------------------
    # blocking primitives (the buffer-manager protocol)
    # ------------------------------------------------------------------

    def _ensure_closed(self, node: BufferNode) -> None:
        advance = self._projector.advance
        while not node.closed and not node.purged:
            if not advance():
                return

    def _next_child(self, node: BufferNode, after_seq: int, predicate):
        advance = self._projector.advance
        while True:
            child = node.next_child_after(after_seq, predicate)
            if child is not None:
                return child
            if node.closed or node.purged:
                return None
            if not advance():
                return None

    def _ctx(self, ref) -> BufferNode:
        return self._buffer.root if ref is None else self._slots[ref]

    # ------------------------------------------------------------------
    # closure-threaded dispatch
    # ------------------------------------------------------------------

    def _bind(self) -> list:
        """One closure per op, each returning the next pc (DESIGN.md
        §10), with jump chains, operands and predicates resolved now.
        The closures hold the ``_slots``/``_frames`` lists themselves,
        so a restore fills those lists in place."""
        ops = self._program.ops
        n = len(ops)

        def target(pc: int) -> int:
            while pc < n and ops[pc][0] == OP_JUMP:
                pc = ops[pc][1]
            return pc

        return [self._bind_op(pc, op, target) for pc, op in enumerate(ops)]

    def _bind_op(self, pc: int, op: tuple, target):
        code = op[0]
        nxt = target(pc + 1)
        slots = self._slots
        frames = self._frames
        writer = self._writer
        if code == OP_FOR_NEXT:
            slot, exit_pc, spec = op[1], target(op[2]), self._program.ops[pc - 1][1]
            pop = frames.pop
            if spec[0] == ITER_CHILD and spec[3] is None:
                next_child, pred = self._next_child, spec[2]

                def handler():
                    frame = frames[-1]
                    child = next_child(frame[1], frame[2], pred)
                    if child is None:
                        pop()
                        return exit_pc
                    frame[2] = child.seq
                    frame[3] += 1
                    slots[slot] = child
                    return nxt
            else:
                for_next = (  # by ITER_CHILD, ITER_DESC, ITER_SELF
                    self._next_child_binding, self._next_descendant_binding, self._next_self_binding
                )[spec[0]]

                def handler():
                    node = for_next(frames[-1])
                    if node is None:
                        pop()
                        return exit_pc
                    slots[slot] = node
                    return nxt
        elif code == OP_IF:
            cond, else_pc = self._bind_cond(op[1]), target(op[2])

            def handler():
                return nxt if cond() else else_pc
        elif code == OP_EMIT_RAW:
            raw, text = writer.raw, op[1]

            def handler():
                raw(text)
                return nxt
        elif code == OP_JUMP:
            to = target(op[1])

            def handler():
                return to
        elif code == OP_FOR_INIT:
            push, new_frame, spec = frames.append, self._new_frame, op[1]

            def handler():
                push(new_frame(spec))
                return nxt
        elif code == OP_OUTPUT_PATH:
            output_path, (ctx, steps, attribute) = self._output_path, op[1:]

            def handler():
                output_path(ctx, steps, attribute)
                return nxt
        elif code == OP_SIGNOFF:
            handler = self._bind_signoff(op[1], op[2], op[3], nxt)
        elif code == OP_CONSTRUCT:
            start, resolve, (tag, specs) = writer.start_element, self._resolve_attributes, op[1:]

            def handler():
                start(tag, resolve(specs))
                return nxt
        elif code == OP_EMIT_SCALAR:
            wtext, slot = writer.text, op[1]

            def handler():
                value = slots[slot]
                wtext(value if isinstance(value, str) else format_number(value))
                return nxt
        elif code == OP_EMIT_AGG:
            wtext, aggregate, spec = writer.text, self._aggregate, op[1]

            def handler():
                wtext(format_number(aggregate(spec)))
                return nxt
        elif code == OP_LET:
            slot, (kind, payload), aggregate = op[1], op[2], self._aggregate

            def handler():
                slots[slot] = aggregate(payload) if kind == "agg" else payload
                return nxt
        else:  # OP_RAISE
            handler = _raiser(op[1])
        return handler

    def _bind_cond(self, spec):
        kind = spec[0]
        if kind == C_CMP:
            op = spec[1]
            left = self._bind_operand(spec[2])
            right = self._bind_operand(spec[3])

            def cond():
                lvalues = left()
                if not lvalues:
                    return False
                rvalues = right()
                for lv in lvalues:
                    for rv in rvalues:
                        if _compare(op, lv, rv):
                            return True
                return False

            return cond
        if kind == C_EXISTS:
            exists = self._exists
            return lambda: exists(spec)
        if kind in (C_AND, C_OR):
            left = self._bind_cond(spec[1])
            right = self._bind_cond(spec[2])
            if kind == C_AND:
                return lambda: left() and right()
            return lambda: left() or right()
        if kind == C_NOT:
            sub = self._bind_cond(spec[1])
            return lambda: not sub()
        if kind == C_TRUE:
            return lambda: True
        return _raiser(spec[1])  # C_RAISE

    def _bind_operand(self, spec):
        """The closure twin of :meth:`_values` for one operand spec."""
        kind = spec[0]
        if kind == V_LIT:
            constant = [spec[1]]
            return lambda: constant
        if kind == V_PATH and all(s[0] == AX_CHILD and s[2] is None for s in spec[2]):
            # ``$x/@a``, ``$x/a/@b``: unpositioned child steps select
            # disjoint runs of siblings, each in seq order, so the node
            # set :meth:`_values` builds needs no dedupe and no sort here
            ref, steps, attribute = spec[1], spec[2], spec[3]
            buffer, slots, ensure_closed = self._buffer, self._slots, self._ensure_closed

            def operand():
                node = buffer.root if ref is None else slots[ref]
                if not node.closed:
                    ensure_closed(node)
                nodes = [node]
                for _axis, pred, _position in steps:
                    nodes = [c for n in nodes for c in n.children if pred(c)]
                if attribute is None:
                    return [n.string_value() for n in nodes]
                return [
                    n.attributes[attribute]
                    for n in nodes
                    if n.tag is not None and attribute in n.attributes
                ]

            return operand
        values = self._values
        return lambda: values(spec)

    def run(self) -> None:
        """Execute the program to completion.

        A :class:`~repro.xmlio.errors.FreezeSignal` raised by a
        blocking primitive leaves ``pc`` at the op that hit it; calling
        ``run()`` again re-executes that op from its start.  Every
        handler blocks before it writes (probe-then-advance), so
        re-execution is byte-identical.
        """
        handlers = self._handlers
        n = len(handlers)
        pc = self._pc
        try:
            while pc < n:
                pc = handlers[pc]()
        finally:
            self._pc = pc

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Capture the dispatch state for serialization.

        Only meaningful while the evaluator is frozen (unwound by a
        :class:`FreezeSignal`) or before/after a run.  Frames are
        rendered codec-neutral: each becomes a dict carrying the pc of
        the ``OP_FOR_INIT`` that created it plus the per-kind loop
        fields, so the spec tuple itself never needs serializing.
        """
        ops = self._program.ops
        frames = []
        for frame in self._frames:
            spec = frame[0]
            init_pc = next(
                i
                for i, op in enumerate(ops)
                if op[0] == OP_FOR_INIT and op[1] is spec
            )
            kind = spec[0]
            if kind == ITER_CHILD:
                frames.append(
                    {
                        "init_pc": init_pc,
                        "kind": "child",
                        "context": frame[1],
                        "last_seq": frame[2],
                        "matched": frame[3],
                        "done": frame[4],
                    }
                )
            elif kind == ITER_DESC:
                stack = frame[1]
                frames.append(
                    {
                        "init_pc": init_pc,
                        "kind": "desc",
                        "stack": (
                            None
                            if stack is None
                            else [(entry[0], entry[1]) for entry in stack]
                        ),
                        "matched": frame[2],
                        "done": frame[3],
                        "pending": frame[4],
                        "started": frame[5],
                    }
                )
            else:  # ITER_SELF
                frames.append(
                    {
                        "init_pc": init_pc,
                        "kind": "self",
                        "context": frame[1],
                        "done": frame[2],
                    }
                )
        return {"pc": self._pc, "slots": list(self._slots), "frames": frames}

    def restore_state(self, state: dict, resolve) -> None:
        """Rebuild dispatch state from :meth:`snapshot_state` output.

        ``resolve`` maps serialized integer node references back to
        live :class:`BufferNode` objects.  Slot values arrive with
        ``("node", ref)`` markers (a slot can also hold a plain int);
        frame node fields arrive as bare refs or ``None``.
        """
        ops = self._program.ops

        def _value(value):
            if isinstance(value, tuple) and len(value) == 2 and value[0] == "node":
                return resolve(value[1])
            return value

        def _node(ref):
            return None if ref is None else resolve(ref)

        pc = state["pc"]
        if not (isinstance(pc, int) and 0 <= pc <= len(ops)):
            raise SnapshotFormatError(
                f"snapshot pc {pc!r} outside the program (0..{len(ops)})"
            )
        init_pcs = [entry["init_pc"] for entry in state["frames"]]
        if init_pcs != list(self._program.enclosing_loops[pc]):
            raise SnapshotFormatError(
                f"snapshot frames {init_pcs} do not match the loops "
                f"enclosing pc {pc}"
            )
        slots = [_value(value) for value in state["slots"]]
        if len(slots) != self._program.n_slots:
            raise SnapshotFormatError(
                f"snapshot has {len(slots)} slots, plan expects "
                f"{self._program.n_slots}"
            )
        for init_pc in init_pcs:  # inside a loop body, its variable is bound
            if pc > init_pc + 1 and not isinstance(slots[ops[init_pc + 1][1]], BufferNode):
                raise SnapshotFormatError(f"snapshot pc {pc}: loop {init_pc} variable unbound")
        frames: list = []
        for entry in state["frames"]:
            spec = ops[entry["init_pc"]][1]
            kind = entry["kind"]
            if kind == "child":
                if spec[0] != ITER_CHILD:
                    raise SnapshotFormatError("frame kind mismatch for child iterator")
                frames.append(
                    [
                        spec,
                        _node(entry["context"]),
                        entry["last_seq"],
                        entry["matched"],
                        entry["done"],
                    ]
                )
            elif kind == "desc":
                if spec[0] != ITER_DESC:
                    raise SnapshotFormatError("frame kind mismatch for desc iterator")
                stack = entry["stack"]
                frames.append(
                    [
                        spec,
                        (
                            None
                            if stack is None
                            else [
                                [_node(node), seq] for node, seq in stack
                            ]
                        ),
                        entry["matched"],
                        entry["done"],
                        _node(entry["pending"]),
                        entry["started"],
                    ]
                )
            else:
                if spec[0] != ITER_SELF:
                    raise SnapshotFormatError("frame kind mismatch for self iterator")
                frames.append([spec, _node(entry["context"]), entry["done"]])
        self._pc = pc
        self._slots[:] = slots
        self._frames[:] = frames

    # ------------------------------------------------------------------
    # for-loop frames
    # ------------------------------------------------------------------

    def _new_frame(self, spec) -> list:
        kind = spec[0]
        if kind == ITER_CHILD:
            # [spec, context, last_seq, matched, done]
            return [spec, self._ctx(spec[1]), 0, 0, False]
        if kind == ITER_DESC:
            # [spec, stack, matched, done, pending_push, started]
            return [spec, None, 0, False, None, False]
        # ITER_SELF: [spec, context, done]
        return [spec, self._ctx(spec[1]), False]

    def _next_self_binding(self, frame) -> BufferNode | None:
        if frame[2]:
            return None
        frame[2] = True
        context = frame[1]
        return context if frame[0][2](context) else None

    def _next_child_binding(self, frame) -> BufferNode | None:
        if frame[4]:  # positional match already yielded
            return None
        spec = frame[0]
        context = frame[1]
        pred = spec[2]
        position = spec[3]
        while True:
            child = self._next_child(context, frame[2], pred)
            if child is None:
                return None
            frame[2] = child.seq
            frame[3] += 1
            if position is None:
                return child
            if frame[3] == position:
                frame[4] = True
                return child

    def _next_descendant_binding(self, frame) -> BufferNode | None:
        if frame[3]:  # positional match already yielded
            return None
        spec = frame[0]
        pred = spec[2]
        position = spec[3]
        if not frame[5]:
            frame[5] = True
            context = self._ctx(spec[1])
            frame[1] = [[context, 0]]
            if (
                spec[4]
                and context.tag != "#document"
                and pred(context)
            ):
                frame[2] = 1
                if position is None:
                    return context
                if position == 1:
                    frame[3] = True
                    return context
        stack = frame[1]
        pending = frame[4]
        if pending is not None:
            frame[4] = None
            # the push the oracle performs after its yield resumes —
            # deferred so GC during the loop body is observed the same
            if pending.tag is not None and not pending.purged:
                stack.append([pending, 0])
        while stack:
            top = stack[-1]
            child = self._next_child(top[0], top[1], None)
            if child is None:
                stack.pop()
                continue
            top[1] = child.seq
            if pred(child):
                frame[2] += 1
                if position is None:
                    frame[4] = child
                    return child
                if frame[2] == position:
                    frame[3] = True
                    return child
            if child.tag is not None and not child.purged:
                stack.append([child, 0])
        return None

    # ------------------------------------------------------------------
    # conditions
    # ------------------------------------------------------------------

    def _exists(self, spec) -> bool:
        """Lazy existence test: probe the buffer after every pulled
        token; stop at the first witness or when the context closes."""
        context = self._ctx(spec[1])
        steps = spec[2]
        attribute = spec[3]
        advance = self._projector.advance
        while True:
            if self._exists_in(context, steps, 0, attribute):
                return True
            if context.closed or context.purged:
                return False
            if not advance():
                return False

    def _exists_in(self, node, steps, index, attribute) -> bool:
        if index == len(steps):
            if attribute is None:
                return True
            return node.tag is not None and attribute in node.attributes
        step = steps[index]
        position = step[2]
        nth = 0
        for child in self._candidates(node, step):
            nth += 1
            if position is not None and nth < position:
                continue
            if self._exists_in(child, steps, index + 1, attribute):
                return True
            if position is not None:
                return False
        return False

    def _values(self, spec) -> list:
        kind = spec[0]
        if kind == V_PATH:
            context = self._ctx(spec[1])
            self._ensure_closed(context)
            nodes = self._nodeset(context, spec[2])
            attribute = spec[3]
            if attribute is None:
                return [node.string_value() for node in nodes]
            return [
                node.attributes[attribute]
                for node in nodes
                if node.tag is not None and attribute in node.attributes
            ]
        if kind == V_LIT:
            return [spec[1]]
        if kind == V_SCALAR:
            return [self._slots[spec[1]]]
        if kind == V_AGG:
            return [self._aggregate(spec[1])]
        raise EvaluationError(spec[1])  # V_RAISE

    def _aggregate(self, spec):
        func = spec[0]
        if func is None:
            raise EvaluationError(spec[1])
        context = self._ctx(spec[1])
        self._ensure_closed(context)
        nodes = self._nodeset(context, spec[2])
        attribute = spec[3]
        if attribute is not None:
            values = [
                node.attributes[attribute]
                for node in nodes
                if node.tag is not None and attribute in node.attributes
            ]
        elif func == "count":
            return len(nodes)
        else:
            values = [node.string_value() for node in nodes]
        return compute_aggregate(func, values)

    # ------------------------------------------------------------------
    # buffer-local path evaluation
    # ------------------------------------------------------------------

    def _candidates(self, node: BufferNode, step):
        axis, pred, _position = step
        if node.tag is None:
            # Text nodes have no children, but the self-including axes
            # must still reach the node itself.
            if axis in (AX_SELF, AX_DOS) and pred(node):
                return iter((node,))
            return iter(())
        if axis == AX_CHILD:
            return (c for c in node.children if pred(c))
        if axis == AX_DESC:
            return (c for c in _descendants(node) if pred(c))
        if axis == AX_DOS:

            def _dos():
                if node.tag != "#document" and pred(node):
                    yield node
                for c in _descendants(node):
                    if pred(c):
                        yield c

            return _dos()
        # AX_SELF
        return iter((node,) if pred(node) else ())

    def _frontier(self, context: BufferNode, steps) -> list[BufferNode]:
        """All match derivations of the steps from *context* (repeats
        kept) — the twin of ``PullEvaluator._eval_frontier``."""
        frontier = [context]
        for step in steps:
            position = step[2]
            next_frontier: list[BufferNode] = []
            for node in frontier:
                candidates = self._candidates(node, step)
                if position is not None:
                    nth = 0
                    for child in candidates:
                        nth += 1
                        if nth == position:
                            next_frontier.append(child)
                            break
                else:
                    next_frontier.extend(candidates)
            frontier = next_frontier
            if not frontier:
                break
        return frontier

    def _nodeset(self, context: BufferNode, steps) -> list[BufferNode]:
        """Duplicate-free document-order evaluation of the steps."""
        if not steps:
            return [context]
        seen: set[int] = set()
        unique: list[BufferNode] = []
        for node in self._frontier(context, steps):
            if id(node) not in seen:
                seen.add(id(node))
                unique.append(node)
        unique.sort(key=lambda node: node.seq)
        return unique

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def _output_path(self, ctx, steps, attribute) -> None:
        context = self._ctx(ctx)
        self._ensure_closed(context)
        nodes = self._nodeset(context, steps)
        writer = self._writer
        if attribute is not None:
            for node in nodes:
                if node.tag is not None and attribute in node.attributes:
                    writer.text(node.attributes[attribute])
            return
        for node in nodes:
            _write_buffer_node(writer, node)

    def _resolve_attributes(self, specs) -> list[tuple[str, str]]:
        resolved = []
        for name, kind, payload in specs:
            if kind == A_AGG:
                value = format_number(self._aggregate(payload))
            elif kind == A_PATH:
                value = " ".join(str(v) for v in self._values(payload))
            else:
                value = payload
            resolved.append((name, value))
        return resolved

    # ------------------------------------------------------------------
    # signOff + garbage collection
    # ------------------------------------------------------------------

    def _bind_signoff(self, ref, steps, role, nxt):
        """The ``OP_SIGNOFF`` handler: role removal plus GC."""
        if not self._gc_enabled:
            return lambda: nxt
        buffer, slots, frontier = self._buffer, self._slots, self._frontier
        remove_role, advance = buffer.remove_role, self._projector.advance

        def handler():
            context = buffer.root if ref is None else slots[ref]
            # Pull the context to its end tag first: all role instances
            # the matcher will ever assign below it are then in the
            # buffer, so the removal below is exhaustive (DESIGN.md §3.4).
            while not context.closed and not context.purged:
                if not advance():
                    break
            if not context.purged:
                if steps:
                    for node in frontier(context, steps):
                        remove_role(node, role)
                else:
                    remove_role(context, role)
            return nxt

        return handler
