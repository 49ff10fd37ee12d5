"""Unit tests for query normalization (lowering to GCX core form)."""

import pytest

from repro.xquery import ast as q
from repro.xquery.normalize import NormalizationError, normalize_query
from repro.xquery.parser import parse_query


def norm(text):
    return normalize_query(parse_query(text))


def loops(expr):
    """Collect (var, source) pairs of the for-loop spine."""
    found = []

    def walk(e):
        if isinstance(e, q.ForExpr):
            found.append((e.var, str(e.source)))
            walk(e.body)
        elif isinstance(e, q.Sequence):
            for item in e.items:
                walk(item)
        elif isinstance(e, q.IfExpr):
            walk(e.then)
            walk(e.orelse)
        elif isinstance(e, q.ElementConstructor):
            walk(e.body)

    walk(expr)
    return found


class TestSingleStepLowering:
    def test_single_step_source_unchanged(self):
        query = norm("for $x in /a return $x")
        assert loops(query.body) == [("x", "/a")]

    def test_multi_step_absolute_source_split(self):
        query = norm("for $p in /site/people/person return $p")
        chain = loops(query.body)
        assert len(chain) == 3
        assert chain[0][1] == "/site"
        assert chain[-1][0] == "p"
        # intermediate loops bind fresh variables chained together
        assert chain[1][1] == f"${chain[0][0]}/people"
        assert chain[2][1] == f"${chain[1][0]}/person"

    def test_multi_step_relative_source_split(self):
        query = norm("for $s in /site return for $p in $s/people/person return $p")
        chain = loops(query.body)
        assert len(chain) == 3
        assert chain[1][1] == "$s/people"

    def test_descendant_step_stays_single(self):
        query = norm("for $i in /site/descendant::item return $i")
        chain = loops(query.body)
        assert len(chain) == 2
        assert "descendant::item" in chain[1][1]

    def test_where_clause_becomes_if(self):
        query = norm('for $x in /a where $x/b = "1" return $x')
        body = query.body.body
        assert isinstance(body, q.IfExpr)
        assert isinstance(body.condition, q.Comparison)
        assert isinstance(body.orelse, q.Empty)


class TestVariableHygiene:
    def test_shadowing_renamed(self):
        query = norm("for $x in /a return for $x in $x/b return $x")
        chain = loops(query.body)
        assert chain[0][0] != chain[1][0]
        # inner body references the renamed inner variable
        inner_body = query.body.body.body
        assert inner_body.var == chain[1][0]

    def test_sibling_reuse_renamed_apart(self):
        query = norm("(for $p in /a return $p, for $p in /b return $p)")
        chain = loops(query.body)
        assert chain[0][0] != chain[1][0]

    def test_all_binders_unique(self):
        query = norm(
            "(for $p in /site/people/person return $p,"
            " for $p in /site/people/person return $p/name)"
        )
        names = [var for var, _ in loops(query.body)]
        assert len(names) == len(set(names))

    def test_unbound_variable_rejected(self):
        with pytest.raises(NormalizationError, match="unbound variable"):
            norm("for $x in /a return $y")

    def test_unbound_in_condition_rejected(self):
        with pytest.raises(NormalizationError, match="unbound variable"):
            norm("for $x in /a return if (exists $y/b) then $x else ()")

    def test_unbound_for_source_rejected(self):
        with pytest.raises(NormalizationError, match="unbound variable"):
            norm("for $x in $y/a return $x")


class TestRestrictions:
    def test_attribute_iteration_rejected(self):
        with pytest.raises(NormalizationError, match="attributes"):
            norm("for $x in /a/@id return $x")

    def test_bare_variable_source_rejected(self):
        with pytest.raises(NormalizationError, match="non-empty path"):
            norm("for $x in /a return for $y in $x return $y")

    def test_relative_path_without_variable_rejected(self):
        # constructed directly: the parser cannot produce this shape
        bad = q.Query(q.PathExpr(None, parse_query("for $x in /a return $x/b").body.body.path))
        with pytest.raises(NormalizationError, match="without a variable"):
            normalize_query(bad)


class TestDescendantChainRefusal:
    """Splitting a ``for`` source is sound only while no node is reached
    twice: a descendant step after an earlier nesting step would bind a
    node once per matching ancestor, so that shape is refused."""

    @pytest.mark.parametrize(
        "query",
        [
            "<o>{ for $v in /r//a//b return $v }</o>",
            "<o>{ for $v in /r//a/b//c return $v }</o>",
            "<o>{ for $x in /r return for $v in $x//a//b return $v }</o>",
            "for $v in /r/descendant-or-self::a/descendant::b return $v",
        ],
    )
    def test_descendant_after_nesting_step_refused(self, query):
        with pytest.raises(NormalizationError, match="write the loops out"):
            norm(query)

    def test_explicit_nesting_still_repeats(self):
        """Loops the user wrote out are a different query: each outer
        ``a`` binds the shared ``b`` once, so it repeats."""
        from repro.core.engine import GCXEngine

        query = "<o>{ for $a in /r//a return for $b in $a//b return $b }</o>"
        result = GCXEngine().query(query, "<r><a><a><b/></a></a></r>")
        assert result.output == "<o><b></b><b></b></o>"

    def test_single_nesting_step_with_child_steps_kept(self):
        chain = loops(norm("for $v in /r//a/b/c return $v").body)
        assert [source.split("/")[-1] for _var, source in chain] == [
            "r", "descendant::a", "b", "c"
        ]

    def test_spine_queries_still_compile(self):
        from repro.core.engine import GCXEngine
        from repro.xmark.queries import ADAPTED_QUERIES, EXTRA_QUERIES

        engine = GCXEngine()
        for adapted in (*ADAPTED_QUERIES.values(), *EXTRA_QUERIES.values()):
            engine.compile(adapted.text)
        # the shape of the spine's dblp_attrs query
        engine.compile(
            "<r>{ for $a in /dblp/article return "
            'if ($a/@mdate = "2002-01-03") '
            "then <t>{ $a/title/text() }</t> else () }</r>"
        )


class TestStructurePreserved:
    def test_conditions_rewritten_with_scope(self):
        query = norm(
            "for $x in /a return if (exists $x/b and not($x/c = 1)) then $x else ()"
        )
        cond = query.body.body.condition
        assert isinstance(cond, q.And)

    def test_constructor_attributes_kept(self):
        query = norm('<r kind="demo">{ () }</r>')
        assert query.body.attributes == (("kind", "demo"),)

    def test_text_literals_kept(self):
        query = norm('("a", "b")')
        assert query.body.items == (q.TextLiteral("a"), q.TextLiteral("b"))

    def test_normalization_idempotent(self):
        once = norm("for $p in /site/people/person return $p")
        twice = normalize_query(once)
        assert loops(once.body) == loops(twice.body)
