"""Unit tests for the XQuery parser."""

import pytest

from repro.xquery import ast as q
from repro.xquery.parser import XQueryParseError, parse_query


class TestBasicExpressions:
    def test_for_loop(self):
        query = parse_query("for $x in /a/b return $x")
        body = query.body
        assert isinstance(body, q.ForExpr)
        assert body.var == "x"
        assert body.source.var is None
        assert str(body.source.path) == "/a/b"
        assert isinstance(body.body, q.PathExpr)

    def test_for_from_variable(self):
        query = parse_query("for $x in /a return for $y in $x/b return $y")
        inner = query.body.body
        assert inner.source.var == "x"
        assert str(inner.source.path) == "b"

    def test_sequence(self):
        query = parse_query('("a", "b", "c")')
        assert isinstance(query.body, q.Sequence)
        assert len(query.body.items) == 3

    def test_empty_sequence(self):
        assert isinstance(parse_query("()").body, q.Empty)

    def test_string_literal(self):
        assert parse_query('"hello"').body == q.TextLiteral("hello")

    def test_single_quoted_string(self):
        assert parse_query("'hi'").body == q.TextLiteral("hi")

    def test_variable_output(self):
        body = parse_query("for $x in /a return $x").body.body
        assert body == q.PathExpr("x", body.path)
        assert not body.path.steps

    def test_path_output_with_steps(self):
        body = parse_query("for $x in /a return $x/b/c").body.body
        assert str(body.path) == "b/c"

    def test_comments_skipped(self):
        query = parse_query("(: comment :) for $x in /a return (: x :) $x")
        assert isinstance(query.body, q.ForExpr)


class TestConstructors:
    def test_empty_constructor(self):
        body = parse_query("<r/>").body
        assert isinstance(body, q.ElementConstructor)
        assert body.tag == "r"
        assert isinstance(body.body, q.Empty)

    def test_constructor_with_enclosed_expr(self):
        body = parse_query("<r>{ for $x in /a return $x }</r>").body
        assert isinstance(body.body, q.ForExpr)

    def test_constructor_attributes(self):
        body = parse_query('<r kind="x" n="1"/>').body
        assert body.attributes == (("kind", "x"), ("n", "1"))

    def test_nested_constructors(self):
        body = parse_query("<a><b/></a>").body
        assert isinstance(body.body, q.ElementConstructor)
        assert body.body.tag == "b"

    def test_literal_text_content(self):
        body = parse_query("<a>hello</a>").body
        assert body.body == q.TextLiteral("hello")

    def test_mixed_content(self):
        body = parse_query("<a>x{ $v }y</a>").body
        # parses, but $v is unbound: that is normalize's job to reject
        assert isinstance(body.body, q.Sequence)
        assert len(body.body.items) == 3

    def test_unterminated_constructor(self):
        with pytest.raises(XQueryParseError, match="unterminated constructor"):
            parse_query("<a>{ () }")


class TestConditions:
    def test_if_exists(self):
        body = parse_query("if (exists /a/b) then <y/> else ()").body
        assert isinstance(body, q.IfExpr)
        assert isinstance(body.condition, q.Exists)

    def test_exists_with_parens(self):
        body = parse_query("if (exists(/a/b)) then <y/> else ()").body
        assert isinstance(body.condition, q.Exists)

    def test_not(self):
        body = parse_query("if (not(exists /a)) then <y/> else ()").body
        assert isinstance(body.condition, q.Not)
        assert isinstance(body.condition.operand, q.Exists)

    def test_and_or_precedence(self):
        body = parse_query(
            'if (exists /a and exists /b or exists /c) then <y/> else ()'
        ).body
        # 'and' binds tighter than 'or'
        assert isinstance(body.condition, q.Or)
        assert isinstance(body.condition.left, q.And)

    def test_comparison_symbols(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            body = parse_query(f'if (/a/b {op} "3") then <y/> else ()').body
            assert body.condition.op == op

    def test_comparison_keywords(self):
        body = parse_query('if (/a/b eq "3") then <y/> else ()').body
        assert body.condition.op == "="
        body = parse_query("if (/a/b ge 3) then <y/> else ()").body
        assert body.condition.op == ">="

    def test_numeric_literal_operand(self):
        body = parse_query("if (/a/b < 42) then <y/> else ()").body
        assert body.condition.right == q.Literal(42)

    def test_float_literal(self):
        body = parse_query("if (/a/b < 4.5) then <y/> else ()").body
        assert body.condition.right == q.Literal(4.5)

    def test_attribute_comparison(self):
        body = parse_query('if (/a/@id = "x") then <y/> else ()').body
        assert str(body.condition.left.path) == "/a/@id"

    def test_bare_path_condition_is_exists(self):
        body = parse_query("if (/a/b) then <y/> else ()").body
        assert isinstance(body.condition, q.Exists)

    def test_where_clause(self):
        body = parse_query('for $x in /a where $x/b = "1" return $x').body
        assert isinstance(body.where, q.Comparison)


class TestSignOff:
    def test_signoff_parses(self):
        body = parse_query("for $x in /a return ($x, signOff($x, r3))").body
        stmt = body.body.items[1]
        assert isinstance(stmt, q.SignOff)
        assert stmt.var == "x"
        assert stmt.role == "r3"

    def test_signoff_with_path(self):
        body = parse_query(
            "for $x in /a return signOff($x/descendant-or-self::node(), r5)"
        ).body
        assert str(body.body.path) == "descendant-or-self::node()"

    def test_paper_rewritten_query_roundtrips(self):
        text = """
        <r> {
        for $bib in /bib return
        ((for $x in $bib/* return
        (if (not(exists $x/price)) then $x else (),
        signOff($x,r3),
        signOff($x/price[1],r4),
        signOff($x/descendant-or-self::node(),r5))),
        (for $b in $bib/book return
        ($b/title,
        signOff($b,r6),
        signOff($b/title/descendant-or-self::node(),r7)
        )),
        signOff($bib,r2)) }
        </r>
        """
        query = parse_query(text)
        signoffs = [
            e
            for e in _iter_all(query.body)
            if isinstance(e, q.SignOff)
        ]
        assert sorted(s.role for s in signoffs) == ["r2", "r3", "r4", "r5", "r6", "r7"]


def _iter_all(expr):
    from repro.xquery.ast import iter_expressions

    return iter_expressions(expr)


class TestErrors:
    def test_trailing_input(self):
        with pytest.raises(XQueryParseError, match="trailing input"):
            parse_query("<a/> <b/>")

    def test_missing_return(self):
        with pytest.raises(XQueryParseError, match="return"):
            parse_query("for $x in /a $x")

    def test_missing_in(self):
        with pytest.raises(XQueryParseError, match="'in'"):
            parse_query("for $x return $x")

    def test_unterminated_string(self):
        with pytest.raises(XQueryParseError, match="unterminated string"):
            parse_query('"abc')

    def test_unterminated_comment(self):
        with pytest.raises(XQueryParseError, match="unterminated comment"):
            parse_query("(: oops <a/>")

    def test_condition_requires_operator_after_literal(self):
        with pytest.raises(XQueryParseError):
            parse_query('if ("lonely") then <y/> else ()')


class TestNestingCap:
    """Deep nesting is refused with a typed error and an offset, never a
    ``RecursionError`` from the parser or any later compile phase."""

    SHAPES = {
        "parens": lambda n: "(" * n + "/a" + ")" * n,
        "constructor": lambda n: "<a>{" * n + "/a" + "}</a>" * n,
        "bare_constructor": lambda n: "<a>" * n + "</a>" * n,
        "if": lambda n: "if (/a) then " * n + "/a" + " else ()" * n,
        "not": lambda n: "if (" + "not(" * n + "/a" + ")" * n + ") then /a else ()",
        "for": lambda n: "".join(
            f"for $v{i} in /a return " for i in range(n)
        ) + "$v0",
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("depth", [600, 1000])
    def test_deep_query_refused(self, shape, depth):
        with pytest.raises(XQueryParseError, match="nests deeper") as excinfo:
            parse_query(self.SHAPES[shape](depth))
        assert excinfo.value.offset is not None

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_deepest_accepted_query_compiles(self, shape):
        from repro.core.engine import GCXEngine
        from repro.xquery.parser import MAX_NESTING

        build = self.SHAPES[shape]
        depth = MAX_NESTING
        while True:  # the deepest instance of the shape the cap admits
            try:
                parse_query(build(depth))
                break
            except XQueryParseError:
                depth -= 1
        assert depth >= MAX_NESTING // 4
        GCXEngine().compile(build(depth))
