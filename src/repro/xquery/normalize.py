"""Lowering of surface queries to the GCX core form.

The static analysis of the paper operates on queries whose for-loops
are *single-step*: ``for $x in $y/axis::nu return e`` (footnote 1 of
the paper).  Users may write multi-step sources and ``where`` clauses;
this pass rewrites them:

* ``for $x in $y/a/b`` becomes
  ``for $g in $y/a return for $x in $g/b`` with a fresh ``$g``;
  this is sound only while no node is reached twice, so a
  ``descendant``/``descendant-or-self`` step after an earlier one is
  refused (``$g`` could bind an ancestor and its descendant, and the
  later step would then bind their shared descendants once per
  ancestor);
* ``for $x in s where c return e`` becomes
  ``for $x in s return if (c) then e else ()``;
* nested re-use of a variable name is alpha-renamed apart so that every
  binding in the query has a unique name (the role table and the
  signOff placement key on variable names).

The pass also validates the composition-free restrictions: every
variable is bound before use, for-sources select elements (not
attributes), and sources are non-empty paths.
"""

from __future__ import annotations

from repro.xpath.ast import Axis, Path
from repro.xquery import ast as q


class NormalizationError(ValueError):
    """Raised when a query violates the fragment's restrictions."""


#: Axes whose result can hold an ancestor together with its descendant.
_NESTING_AXES = (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF)


class _Normalizer:
    def __init__(self):
        self._fresh = 0
        self._used: set[str] = set()
        # renamed names of let-bound scalar variables: these cannot be
        # navigated from with a path
        self._scalars: set[str] = set()

    def fresh_var(self, base: str) -> str:
        self._fresh += 1
        name = f"{base}__{self._fresh}"
        self._used.add(name)
        return name

    # ------------------------------------------------------------------

    def expr(self, expr: q.Expr, scope: dict[str, str]) -> q.Expr:
        if isinstance(expr, q.Sequence):
            return q.Sequence(tuple(self.expr(item, scope) for item in expr.items))
        if isinstance(expr, q.ForExpr):
            return self.for_expr(expr, scope)
        if isinstance(expr, q.LetExpr):
            return self.let_expr(expr, scope)
        if isinstance(expr, q.IfExpr):
            return q.IfExpr(
                self.condition(expr.condition, scope),
                self.expr(expr.then, scope),
                self.expr(expr.orelse, scope),
            )
        if isinstance(expr, q.ElementConstructor):
            attributes = []
            for name, value in expr.attributes:
                if isinstance(value, q.PathOperand):
                    value = self.operand(value, scope)
                elif isinstance(value, q.Aggregate):
                    value = self.aggregate(value, scope)
                attributes.append((name, value))
            return q.ElementConstructor(
                expr.tag, tuple(attributes), self.expr(expr.body, scope)
            )
        if isinstance(expr, q.PathExpr):
            operand = self.operand(q.PathOperand(expr.var, expr.path), scope)
            return q.PathExpr(operand.var, operand.path)
        if isinstance(expr, q.AggregateExpr):
            return q.AggregateExpr(self.aggregate(expr.aggregate, scope))
        if isinstance(expr, q.SignOff):
            operand = self.operand(q.PathOperand(expr.var, expr.path), scope)
            return q.SignOff(operand.var, operand.path, expr.role)
        if isinstance(expr, (q.Empty, q.TextLiteral)):
            return expr
        raise NormalizationError(f"unsupported expression {expr!r}")

    def for_expr(self, expr: q.ForExpr, scope: dict[str, str]) -> q.Expr:
        source = self.operand(expr.source, scope)
        if not source.path.steps:
            raise NormalizationError(
                f"for ${expr.var}: source must be a non-empty path"
            )
        if any(step.axis is Axis.ATTRIBUTE for step in source.path.steps):
            raise NormalizationError(
                f"for ${expr.var}: cannot iterate over attributes"
            )
        if sum(step.axis in _NESTING_AXES for step in source.path.steps) > 1:
            raise NormalizationError(
                f"for ${expr.var}: descendant step after a nesting step in "
                "a `for` source; write the loops out"
            )
        # Split a multi-step source into a chain of fresh single-step
        # loops; the innermost keeps the user's variable (renamed apart
        # if it shadows an outer binding).
        # Every binder in the normalized query gets a globally unique
        # name: the role table and signOff placement key on variables,
        # and sequential sibling loops may legitimately reuse a name.
        user_var = expr.var
        if user_var in self._used or user_var in scope:
            user_var = self.fresh_var(expr.var)
        else:
            self._used.add(user_var)
        chain: list[tuple[str, q.PathOperand]] = []
        current_var = source.var
        steps = source.path.steps
        for index, step in enumerate(steps):
            last = index == len(steps) - 1
            var = user_var if last else self.fresh_var(expr.var)
            if current_var is None:
                operand = q.PathOperand(None, Path((step,), absolute=True))
            else:
                operand = q.PathOperand(current_var, Path((step,), absolute=False))
            chain.append((var, operand))
            current_var = var
        inner_scope = dict(scope)
        inner_scope[expr.var] = user_var
        body = self.expr(expr.body, inner_scope)
        if expr.where is not None:
            body = q.IfExpr(
                self.condition(expr.where, inner_scope), body, q.Empty()
            )
        result: q.Expr = body
        for var, operand in reversed(chain):
            result = q.ForExpr(var, operand, result)
        return result

    def let_expr(self, expr: q.LetExpr, scope: dict[str, str]) -> q.LetExpr:
        if isinstance(expr.value, q.Aggregate):
            value = self.aggregate(expr.value, scope)
        elif isinstance(expr.value, q.Literal):
            value = expr.value
        else:
            raise NormalizationError(
                f"let ${expr.var}: value must be an aggregate or a literal"
            )
        user_var = expr.var
        if user_var in self._used or user_var in scope:
            user_var = self.fresh_var(expr.var)
        else:
            self._used.add(user_var)
        self._scalars.add(user_var)
        inner_scope = dict(scope)
        inner_scope[expr.var] = user_var
        return q.LetExpr(user_var, value, self.expr(expr.body, inner_scope))

    def condition(self, condition: q.Condition, scope: dict[str, str]) -> q.Condition:
        if isinstance(condition, q.Exists):
            return q.Exists(self.operand(condition.operand, scope))
        if isinstance(condition, q.Not):
            return q.Not(self.condition(condition.operand, scope))
        if isinstance(condition, q.And):
            return q.And(
                self.condition(condition.left, scope),
                self.condition(condition.right, scope),
            )
        if isinstance(condition, q.Or):
            return q.Or(
                self.condition(condition.left, scope),
                self.condition(condition.right, scope),
            )
        if isinstance(condition, q.Comparison):
            left = condition.left
            right = condition.right
            if isinstance(left, q.PathOperand):
                left = self.operand(left, scope)
            elif isinstance(left, q.Aggregate):
                left = self.aggregate(left, scope)
            if isinstance(right, q.PathOperand):
                right = self.operand(right, scope)
            elif isinstance(right, q.Aggregate):
                right = self.aggregate(right, scope)
            return q.Comparison(left, condition.op, right)
        raise NormalizationError(f"unsupported condition {condition!r}")

    def aggregate(self, aggregate: q.Aggregate, scope: dict[str, str]) -> q.Aggregate:
        operand = self.operand(aggregate.operand, scope)
        if not operand.path.steps:
            raise NormalizationError(
                f"{aggregate.func}(${operand.var}): aggregate over a bare "
                "variable is not supported; aggregate over a path"
            )
        return q.Aggregate(aggregate.func, operand)

    def operand(self, operand: q.PathOperand, scope: dict[str, str]) -> q.PathOperand:
        if operand.var is None:
            if not operand.path.absolute:
                raise NormalizationError(
                    f"relative path {operand.path} without a variable"
                )
            return operand
        if operand.var not in scope:
            raise NormalizationError(f"unbound variable ${operand.var}")
        renamed = scope[operand.var]
        if renamed in self._scalars and operand.path.steps:
            raise NormalizationError(
                f"${operand.var} is a scalar let binding; "
                f"cannot navigate {operand.path} from it"
            )
        return q.PathOperand(renamed, operand.path)


def normalize_query(query: q.Query) -> q.Query:
    """Lower *query* to the single-step core form.

    Raises:
        NormalizationError: if the query violates fragment restrictions
            (unbound variables, attribute iteration, empty sources).
    """
    normalizer = _Normalizer()
    return q.Query(normalizer.expr(query.body, {}))
