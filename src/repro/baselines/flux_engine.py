"""FluX-like baseline: schema-aware streaming with scope-based purging.

FluXQuery [10] — the paper's closest competitor — schedules event
handlers from the query *and a DTD*: with schema knowledge it can emit
and discard data once the schema proves a scope is complete, but its
buffer decisions are fixed at compile time per *scope*, not per node.
Two observable consequences in the paper's Figure 5:

* FluXQuery's buffering sits between GCX and the full in-memory
  engines (it releases buffers at scope boundaries, not at GCX's
  per-node preemption points);
* it cannot handle descendant-axis queries — Q6 is reported "n/a".

This baseline models both behaviours on top of the GCX runtime:

* signOff statements are *coarsened by one loop scope*: every role is
  signed off at the end of the loop enclosing its GCX preemption
  point, re-rooted accordingly.  Moving a signOff later is always
  sound (roles are held longer, never released early), so results are
  identical — only buffer behaviour changes.
* queries using the descendant or descendant-or-self axis raise
  :class:`UnsupportedQueryError` (the Figure 5 "n/a").
* without a DTD the engine falls back to projection-only buffering
  (no schema knowledge — no early release), mirroring FluX's
  dependence on schema information.
"""

from __future__ import annotations

from repro.core.engine import CompiledQuery, GCXEngine, _try_compile_program
from repro.core.matcher import PathDFA, PathMatcher
from repro.core.projector import generate_lexer_kernel
from repro.core.signoff import insert_signoffs
from repro.core.analysis import analyze_query
from repro.xmlio.dtd import Dtd
from repro.xpath.ast import Axis, Path
from repro.xquery import ast as q
from repro.xquery.normalize import normalize_query
from repro.xquery.parser import parse_query


class UnsupportedQueryError(ValueError):
    """The engine cannot evaluate this query (reported n/a)."""


def _check_no_descendant_axes(query: q.Query) -> None:
    """Reject user queries with descendant axes, like FluXQuery."""

    def check_path(path: Path, where: str) -> None:
        for step in path.steps:
            if step.axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
                raise UnsupportedQueryError(
                    f"descendant axes are not supported ({where}: {path})"
                )

    def walk(expr: q.Expr) -> None:
        if isinstance(expr, q.Sequence):
            for item in expr.items:
                walk(item)
        elif isinstance(expr, q.ForExpr):
            check_path(expr.source.path, f"for ${expr.var}")
            walk(expr.body)
        elif isinstance(expr, q.LetExpr):
            if isinstance(expr.value, q.Aggregate):
                check_path(expr.value.operand.path, f"let ${expr.var}")
            walk(expr.body)
        elif isinstance(expr, q.IfExpr):
            for operand in q.condition_operands(expr.condition):
                check_path(operand.path, "condition")
            walk(expr.then)
            walk(expr.orelse)
        elif isinstance(expr, q.ElementConstructor):
            for _name, value in expr.attributes:
                if isinstance(value, q.PathOperand):
                    check_path(value.path, "attribute template")
                elif isinstance(value, q.Aggregate):
                    check_path(value.operand.path, "attribute template")
            walk(expr.body)
        elif isinstance(expr, q.PathExpr):
            check_path(expr.path, "output")
        elif isinstance(expr, q.AggregateExpr):
            check_path(expr.aggregate.operand.path, expr.aggregate.func)

    walk(query.body)


class FluxLikeEngine(GCXEngine):
    """Scope-granular buffer release driven by schema knowledge."""

    name = "flux-like"

    # Flux plans have coarsened signOff placements; they must never be
    # shared with plain GCX plans in a common cache.
    plan_namespace = "flux"

    def __init__(
        self,
        dtd: Dtd | None = None,
        record_series: bool = True,
        drain: bool = True,
        compiled: bool = True,
        compiled_eval: bool = True,
    ):
        # Schema knowledge enables the scope-based release; without a
        # DTD the engine cannot prove any scope complete and keeps the
        # whole projection (gc_enabled=False path below).
        super().__init__(
            gc_enabled=dtd is not None,
            first_witness=True,
            record_series=record_series,
            drain=drain,
            compiled=compiled,
            compiled_eval=compiled_eval,
        )
        self.dtd = dtd

    def _cache_namespace(self) -> str:
        # Scope coarsening only happens with schema knowledge, so a
        # DTD-less engine compiles different plans than a schema-aware
        # one and the two must not share cache entries.
        return (
            f"{self.plan_namespace}:fw={int(self.first_witness)}"
            f":dtd={int(self.dtd is not None)}"
        )

    def _compile(self, query_text: str, context=None) -> CompiledQuery:
        if context is None:
            parsed = parse_query(query_text)
            normalized = normalize_query(parsed)
        else:
            parsed, normalized = context
        _check_no_descendant_axes(normalized)
        analysis = analyze_query(normalized, first_witness=self.first_witness)
        if self.dtd is not None:
            self._coarsen_placements(analysis)
        rewritten = insert_signoffs(normalized, analysis)
        matcher = PathMatcher([(role.name, role.path) for role in analysis.roles])
        dfa = PathDFA(matcher)
        program = _try_compile_program(rewritten)
        return CompiledQuery(
            query_text,
            parsed,
            normalized,
            analysis,
            rewritten,
            matcher,
            dfa=dfa,
            program=program,
            lexer_kernel=generate_lexer_kernel(dfa, analysis),
        )

    @staticmethod
    def _coarsen_placements(analysis) -> None:
        """Move every signOff one loop scope outward (re-rooted).

        The end of the enclosing loop's body is the closest moment a
        scope-granular scheduler can prove, from the schema, that the
        inner scope's data is dead.  Hoisted (join) placements are
        already coarse and placements at query end cannot move.
        """
        new_placements: dict = {}
        for var, roles in analysis.placements.items():
            for role in roles:
                if var is None:
                    target = None
                else:
                    target = analysis.binding_parents.get(var)
                if target is None:
                    role.signoff_var = None
                    if var is None:
                        new_path = role.signoff_path
                    else:
                        new_path = analysis.variable_paths[var].concat(
                            role.signoff_path
                        )
                    role.signoff_path = new_path
                else:
                    prefix = analysis.variable_paths[var].suffix_after(
                        analysis.variable_paths[target]
                    )
                    role.signoff_var = target
                    role.signoff_path = prefix.concat(role.signoff_path)
                role.placement_var = target
                new_placements.setdefault(target, []).append(role)
        analysis.placements = new_placements
