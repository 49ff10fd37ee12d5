"""Scannerless recursive-descent parser for the XQuery fragment.

Accepted surface syntax (a superset of the paper's core form, lowered
by :mod:`repro.xquery.normalize`)::

    expr      := single (',' single)*
    single    := 'for' '$'NAME 'in' operand ('where' cond)? 'return' single
               | 'if' '(' cond ')' 'then' single 'else' single
               | 'signOff' '(' operand ',' NAME ')'
               | '(' expr? ')'
               | constructor
               | operand                      # node output
               | STRING
    cond      := andcond ('or' andcond)*
    andcond   := atom ('and' atom)*
    atom      := 'not' '('? cond ')'?
               | 'exists' '('? operand ')'?
               | '(' cond ')'
               | operand (CMP operand)?
    operand   := '$'NAME ('/' path)? | '/' path | STRING | NUMBER
    constructor := '<' NAME (NAME '=' STRING)* '/>'
               | '<' NAME (NAME '=' STRING)* '>' content '</' NAME '>'
    content   := (TEXT | '{' expr '}' | constructor)*

Comparison operators: ``= != < <= > >=`` and the keyword forms
``eq ne lt le gt ge``.  XQuery comments ``(: ... :)`` are skipped.
"""

from __future__ import annotations

import functools
import re

from repro.xpath.ast import Path
from repro.xpath.parser import XPathParseError, parse_path
from repro.xquery import ast as q

_KEYWORD_CMP = {"eq": "=", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}

_AGGREGATE_FUNCS = ("count", "sum", "avg", "min", "max")

_NAME_RE = re.compile(r"[\w.-]+")

#: Cap on the recursive descent: every production that can recurse
#: (expression, FLWOR/if branch, element constructor, condition) counts
#: one level while it is active.  Past the cap the query is refused with
#: a typed error and an offset, instead of Python's recursion limit
#: surfacing as a ``RecursionError`` — here or in a later compile phase,
#: all of which recurse over a tree no deeper than the parse.
MAX_NESTING = 256


def _recursive(production):
    """Run *production* one nesting level deeper, under the cap."""

    @functools.wraps(production)
    def nested(self, *args):
        self.depth += 1
        try:
            if self.depth > MAX_NESTING:
                raise self.cur.error(
                    f"query nests deeper than {MAX_NESTING} levels"
                )
            return production(self, *args)
        finally:
            self.depth -= 1

    return nested

# One or more /step or //step continuations; steps may carry an axis
# prefix, an @ shorthand, a text()/node() test, a wildcard, and a [n]
# predicate.  Used to find the textual extent of a path before handing
# it to the XPath parser.
_PATH_CONT_RE = re.compile(
    r"""(?: /(?:/)?
            (?: (?:child|descendant-or-self|descendant|self|attribute)::)?
            @?
            (?: (?:text|node)\(\s*\) | \* | [\w.-]+ )
            (?: \[\s*\d+\s*\] )?
        )+""",
    re.VERBOSE,
)


class XQueryParseError(ValueError):
    """Raised when the query text is outside the accepted fragment."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


class _Cursor:
    """Position tracking plus low-level matching over the query text."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> XQueryParseError:
        return XQueryParseError(message, self.pos)

    def skip_ws(self) -> None:
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif text.startswith("(:", self.pos):
                end = text.find(":)", self.pos + 2)
                if end == -1:
                    raise self.error("unterminated comment")
                self.pos = end + 2
            else:
                return

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self, literal: str) -> bool:
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def match(self, literal: str) -> bool:
        if self.peek(literal):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.match(literal):
            raise self.error(f"expected {literal!r}")

    def peek_keyword(self, word: str) -> bool:
        self.skip_ws()
        end = self.pos + len(word)
        if not self.text.startswith(word, self.pos):
            return False
        return end >= len(self.text) or not (
            self.text[end].isalnum() or self.text[end] in "_-"
        )

    def match_keyword(self, word: str) -> bool:
        if self.peek_keyword(word):
            self.pos += len(word)
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.match_keyword(word):
            raise self.error(f"expected keyword {word!r}")

    def match_name(self) -> str | None:
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group(0)

    def expect_name(self) -> str:
        name = self.match_name()
        if name is None:
            raise self.error("expected a name")
        return name


class _Parser:
    def __init__(self, text: str, depth: int = 0):
        self.cur = _Cursor(text)
        self.depth = depth

    # -- entry ---------------------------------------------------------

    def parse_query(self) -> q.Query:
        body = self.parse_expr()
        if not self.cur.at_end():
            raise self.cur.error("trailing input after query")
        return q.Query(body)

    # -- expressions -----------------------------------------------------

    @_recursive
    def parse_expr(self) -> q.Expr:
        items = [self.parse_single()]
        while self.cur.match(","):
            items.append(self.parse_single())
        if len(items) == 1:
            return items[0]
        return q.Sequence(tuple(items))

    @_recursive
    def parse_single(self) -> q.Expr:
        cur = self.cur
        if cur.peek_keyword("for"):
            return self._parse_for()
        if cur.peek_keyword("let"):
            return self._parse_let()
        if cur.peek_keyword("if"):
            return self._parse_if()
        if cur.peek_keyword("signOff"):
            return self._parse_signoff()
        for func in _AGGREGATE_FUNCS:
            if cur.peek_keyword(func):
                return q.AggregateExpr(self._parse_aggregate())
        if cur.peek("("):
            cur.expect("(")
            if cur.match(")"):
                return q.Empty()
            inner = self.parse_expr()
            cur.expect(")")
            return inner
        cur.skip_ws()
        if cur.pos < len(cur.text) and cur.text[cur.pos] == "<":
            return self._parse_constructor()
        if cur.peek('"') or cur.peek("'"):
            return q.TextLiteral(self._parse_string())
        operand = self._parse_path_operand()
        return q.PathExpr(operand.var, operand.path)

    @_recursive
    def _parse_for(self) -> q.ForExpr:
        cur = self.cur
        cur.expect_keyword("for")
        cur.expect("$")
        var = cur.expect_name()
        cur.expect_keyword("in")
        source = self._parse_path_operand()
        where = None
        if cur.match_keyword("where"):
            where = self.parse_condition()
        cur.expect_keyword("return")
        body = self.parse_single()
        return q.ForExpr(var, source, body, where)

    @_recursive
    def _parse_let(self) -> q.LetExpr:
        cur = self.cur
        cur.expect_keyword("let")
        cur.expect("$")
        var = cur.expect_name()
        cur.expect(":=")
        value = self._parse_operand()
        if isinstance(value, q.PathOperand):
            raise cur.error(
                "let binds scalar values only: use an aggregate "
                "(count/sum/avg/min/max) or a literal"
            )
        cur.expect_keyword("return")
        body = self.parse_single()
        return q.LetExpr(var, value, body)

    @_recursive
    def _parse_if(self) -> q.IfExpr:
        cur = self.cur
        cur.expect_keyword("if")
        cur.expect("(")
        condition = self.parse_condition()
        cur.expect(")")
        cur.expect_keyword("then")
        then = self.parse_single()
        cur.expect_keyword("else")
        orelse = self.parse_single()
        return q.IfExpr(condition, then, orelse)

    def _parse_aggregate(self) -> q.Aggregate:
        cur = self.cur
        func = None
        for candidate in _AGGREGATE_FUNCS:
            if cur.match_keyword(candidate):
                func = candidate
                break
        if func is None:
            raise cur.error("expected an aggregation function")
        cur.expect("(")
        operand = self._parse_path_operand()
        cur.expect(")")
        return q.Aggregate(func, operand)

    def _parse_signoff(self) -> q.SignOff:
        cur = self.cur
        cur.expect_keyword("signOff")
        cur.expect("(")
        operand = self._parse_path_operand()
        cur.expect(",")
        role = cur.expect_name()
        cur.expect(")")
        return q.SignOff(operand.var, operand.path, role)

    # -- constructors ------------------------------------------------------

    @_recursive
    def _parse_constructor(self) -> q.ElementConstructor:
        cur = self.cur
        cur.expect("<")
        tag = cur.expect_name()
        attributes: list[tuple[str, str]] = []
        while True:
            cur.skip_ws()
            if cur.match("/>"):
                return q.ElementConstructor(tag, tuple(attributes), q.Empty())
            if cur.match(">"):
                break
            name = cur.expect_name()
            cur.expect("=")
            attributes.append((name, self._parse_attribute_value()))
        body = self._parse_constructor_content(tag)
        return q.ElementConstructor(tag, tuple(attributes), body)

    def _parse_attribute_value(self):
        """A constant string or an attribute value template ``{expr}``.

        Only whole-value templates are supported (the common XMark
        shape ``person="{$p/name/text()}"``), not mixed text/template
        concatenation.
        """
        raw = self._parse_string()
        stripped = raw.strip()
        if not (stripped.startswith("{") and stripped.endswith("}")):
            return raw
        inner = stripped[1:-1]
        sub = _Parser(inner, self.depth)
        operand = sub._parse_operand()
        if not sub.cur.at_end():
            raise sub.cur.error(
                "attribute value templates support a single path or "
                "aggregate expression"
            )
        if isinstance(operand, q.Literal):
            return str(operand.value)
        return operand

    def _parse_constructor_content(self, tag: str) -> q.Expr:
        cur = self.cur
        items: list[q.Expr] = []
        while True:
            if cur.pos >= len(cur.text):
                raise cur.error(f"unterminated constructor <{tag}>")
            close = f"</{tag}"
            if cur.text.startswith(close, cur.pos):
                cur.pos += len(close)
                cur.skip_ws()
                cur.expect(">")
                break
            ch = cur.text[cur.pos]
            if ch == "{":
                cur.pos += 1
                items.append(self.parse_expr())
                cur.expect("}")
            elif ch == "<":
                items.append(self._parse_constructor())
            else:
                start = cur.pos
                while cur.pos < len(cur.text) and cur.text[cur.pos] not in "<{":
                    cur.pos += 1
                text = cur.text[start : cur.pos]
                if text.strip():
                    items.append(q.TextLiteral(text.strip()))
        if not items:
            return q.Empty()
        if len(items) == 1:
            return items[0]
        return q.Sequence(tuple(items))

    # -- conditions -------------------------------------------------------

    @_recursive
    def parse_condition(self) -> q.Condition:
        left = self._parse_and_condition()
        while self.cur.match_keyword("or"):
            right = self._parse_and_condition()
            left = q.Or(left, right)
        return left

    def _parse_and_condition(self) -> q.Condition:
        left = self._parse_atom_condition()
        while self.cur.match_keyword("and"):
            right = self._parse_atom_condition()
            left = q.And(left, right)
        return left

    @_recursive
    def _parse_atom_condition(self) -> q.Condition:
        cur = self.cur
        if cur.match_keyword("not"):
            if cur.match("("):
                inner = self.parse_condition()
                cur.expect(")")
                return q.Not(inner)
            return q.Not(self._parse_atom_condition())
        if cur.match_keyword("exists"):
            if cur.match("("):
                operand = self._parse_path_operand()
                cur.expect(")")
            else:
                operand = self._parse_path_operand()
            return q.Exists(operand)
        if cur.peek("("):
            cur.expect("(")
            inner = self.parse_condition()
            cur.expect(")")
            return inner
        left = self._parse_operand()
        op = self._match_comparison_op()
        if op is None:
            if isinstance(left, q.PathOperand):
                # Effective boolean value of a path = existence test.
                return q.Exists(left)
            raise cur.error("expected a comparison operator")
        right = self._parse_operand()
        return q.Comparison(left, op, right)

    def _match_comparison_op(self) -> str | None:
        cur = self.cur
        cur.skip_ws()
        for symbol in ("<=", ">=", "!=", "=", "<", ">"):
            if cur.match(symbol):
                return symbol
        for keyword, symbol in _KEYWORD_CMP.items():
            if cur.match_keyword(keyword):
                return symbol
        return None

    # -- operands ---------------------------------------------------------

    def _parse_operand(self) -> q.PathOperand | q.Literal | q.Aggregate:
        cur = self.cur
        cur.skip_ws()
        for func in _AGGREGATE_FUNCS:
            if cur.peek_keyword(func):
                return self._parse_aggregate()
        if cur.peek('"') or cur.peek("'"):
            return q.Literal(self._parse_string())
        if cur.pos < len(cur.text) and (
            cur.text[cur.pos].isdigit() or cur.text[cur.pos] == "-"
        ):
            return q.Literal(self._parse_number())
        return self._parse_path_operand()

    def _parse_path_operand(self) -> q.PathOperand:
        cur = self.cur
        cur.skip_ws()
        if cur.match("$"):
            var = cur.expect_name()
            path = self._match_path_continuation()
            return q.PathOperand(var, path)
        if cur.pos < len(cur.text) and cur.text[cur.pos] == "/":
            m = _PATH_CONT_RE.match(cur.text, cur.pos)
            if m is None:
                # A bare "/" root path.
                cur.pos += 1
                return q.PathOperand(None, Path((), absolute=True))
            cur.pos = m.end()
            try:
                return q.PathOperand(None, parse_path(m.group(0)))
            except XPathParseError as exc:
                raise cur.error(str(exc)) from exc
        raise cur.error("expected a variable or path")

    def _match_path_continuation(self) -> Path:
        cur = self.cur
        m = _PATH_CONT_RE.match(cur.text, cur.pos)
        if m is None:
            return Path((), absolute=False)
        cur.pos = m.end()
        # m starts with '/', but relative to the variable; strip it so
        # the XPath parser sees a relative path.
        text = m.group(0)
        relative = text[2:] if text.startswith("//") else text[1:]
        if text.startswith("//"):
            relative = "descendant-or-self::node()/" + relative
        try:
            return parse_path(relative)
        except XPathParseError as exc:
            raise cur.error(str(exc)) from exc

    def _parse_string(self) -> str:
        cur = self.cur
        cur.skip_ws()
        if cur.pos >= len(cur.text) or cur.text[cur.pos] not in "\"'":
            raise cur.error("expected a string literal")
        quote = cur.text[cur.pos]
        end = cur.text.find(quote, cur.pos + 1)
        if end == -1:
            raise cur.error("unterminated string literal")
        value = cur.text[cur.pos + 1 : end]
        cur.pos = end + 1
        return value

    def _parse_number(self) -> float | int:
        cur = self.cur
        m = re.match(r"-?\d+(\.\d+)?", cur.text[cur.pos :])
        if m is None:
            raise cur.error("expected a number")
        cur.pos += m.end()
        text = m.group(0)
        return float(text) if "." in text else int(text)


def parse_query(text: str) -> q.Query:
    """Parse *text* into a :class:`~repro.xquery.ast.Query`.

    Raises:
        XQueryParseError: on syntax errors or constructs outside the
            fragment.
    """
    return _Parser(text).parse_query()
