"""Unit tests for the streaming XML lexer."""

import pytest

from repro.xmlio.errors import XmlSyntaxError
from repro.xmlio.lexer import make_lexer, tokenize
from repro.xmlio.tokens import EndTag, StartTag, Text, TokenKind


def kinds(xml, **kw):
    return [t.kind for t in tokenize(xml, **kw)]


class TestBasicTokens:
    def test_single_element(self):
        tokens = list(tokenize("<a></a>"))
        assert tokens == [StartTag("a", (), 0), EndTag("a", 3)]

    def test_text_content(self):
        tokens = list(tokenize("<a>hello</a>"))
        assert tokens[1] == Text("hello", 3)

    def test_nested_elements(self):
        tags = [t.name for t in tokenize("<a><b><c></c></b></a>")
                if t.kind is not TokenKind.TEXT]
        assert tags == ["a", "b", "c", "c", "b", "a"]

    def test_self_closing_expands_to_start_end(self):
        tokens = list(tokenize("<a><b/></a>"))
        assert [t.kind for t in tokens] == [
            TokenKind.START,
            TokenKind.START,
            TokenKind.END,
            TokenKind.END,
        ]
        assert tokens[1].self_closing is True
        assert tokens[2].name == "b"

    def test_self_closing_root(self):
        tokens = list(tokenize("<r/>"))
        assert len(tokens) == 2
        assert tokens[0].name == tokens[1].name == "r"

    def test_mixed_content_order(self):
        tokens = list(tokenize("<a>x<b>y</b>z</a>"))
        flat = [str(t) for t in tokens]
        assert flat == ["<a>", "x", "<b>", "y", "</b>", "z", "</a>"]


class TestAttributes:
    def test_double_quoted(self):
        (start, _end) = tokenize('<a x="1" y="two"></a>')
        assert start.attribute("x") == "1"
        assert start.attribute("y") == "two"

    def test_single_quoted(self):
        (start, _end) = tokenize("<a x='1'></a>")
        assert start.attribute("x") == "1"

    def test_missing_attribute_is_none(self):
        (start, _end) = tokenize("<a></a>")
        assert start.attribute("nope") is None

    def test_entity_in_attribute_value(self):
        (start, _end) = tokenize('<a x="a&amp;b&lt;c"></a>')
        assert start.attribute("x") == "a&b<c"

    def test_whitespace_around_equals(self):
        (start, _end) = tokenize('<a x = "1"></a>')
        assert start.attribute("x") == "1"

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(XmlSyntaxError, match="duplicate attribute"):
            list(tokenize('<a x="1" x="2"></a>'))

    def test_attribute_on_self_closing(self):
        tokens = list(tokenize('<a k="v"/>'))
        assert tokens[0].attribute("k") == "v"


class TestEntitiesAndCdata:
    def test_predefined_entities(self):
        tokens = list(tokenize("<a>&lt;&gt;&amp;&apos;&quot;</a>"))
        assert tokens[1].content == "<>&'\""

    def test_decimal_character_reference(self):
        tokens = list(tokenize("<a>&#65;</a>"))
        assert tokens[1].content == "A"

    def test_hex_character_reference(self):
        tokens = list(tokenize("<a>&#x41;&#x42;</a>"))
        assert tokens[1].content == "AB"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XmlSyntaxError, match="unknown entity"):
            list(tokenize("<a>&nope;</a>"))

    def test_unterminated_entity_rejected(self):
        with pytest.raises(XmlSyntaxError, match="unterminated entity"):
            list(tokenize("<a>&amp</a>"))

    def test_cdata_passes_markup_verbatim(self):
        tokens = list(tokenize("<a><![CDATA[<not> & markup]]></a>"))
        assert tokens[1].content == "<not> & markup"


#: character references at the edges of XML's ``Char`` production and
#: of the ``CharRef`` syntax; the verdict of each is expat's
_CHAR_REFS = (
    "&#65;",
    "&#x41;",
    "&#9;",
    "&#x10FFFF;",
    "&#0000065;",
    "&#0;",
    "&#xD800;",
    "&#xFFFE;",
    "&#x110000;",
    "&#xZZ;",
    "&#X41;",
    "&#+65;",
    "&#99999999999999999999;",
)


def _expat_text(document):
    """Character data of *document* per stdlib expat, or None when
    expat refuses it."""
    import xml.parsers.expat

    parser = xml.parsers.expat.ParserCreate()
    parts = []
    parser.CharacterDataHandler = parts.append
    try:
        parser.Parse(document, True)
    except xml.parsers.expat.ExpatError:
        return None
    return "".join(parts)


class TestCharacterReferences:
    @pytest.mark.parametrize("ref", _CHAR_REFS)
    @pytest.mark.parametrize("domain", ["str", "bytes"])
    def test_verdict_matches_expat(self, ref, domain):
        from repro.core.engine import GCXEngine

        expected = _expat_text(f"<r>{ref}</r>")
        engine = GCXEngine()
        documents = {
            # tokenized text, an attribute value, and text inside a
            # subtree the projector skips without building tokens
            "text": (f"<r><a>{ref}</a></r>", "for $a in /r/a return $a/text()"),
            "attr": (f'<r><a v="{ref}"/></r>', "for $a in /r/a return $a/@v"),
            "skipped": (f"<r><b>x{ref}</b><a>k</a></r>", "for $a in /r/a return $a/text()"),
        }
        for context, (document, query) in documents.items():
            source = document if domain == "str" else document.encode()
            plan = engine.compile(query)
            if expected is None:
                with pytest.raises(XmlSyntaxError) as excinfo:
                    engine.run(plan, source)
                assert excinfo.value.offset is not None, context
            else:
                output = engine.run(plan, source).output
                if context != "skipped" and expected.strip():
                    # (whitespace-only text is dropped by policy)
                    assert output == expected, context


class TestSkippedMarkup:
    def test_comment_skipped(self):
        assert kinds("<a><!-- comment --></a>") == [TokenKind.START, TokenKind.END]

    def test_comment_between_elements(self):
        tags = [t.name for t in tokenize("<a><!--x--><b></b></a>")
                if t.kind is TokenKind.START]
        assert tags == ["a", "b"]

    def test_processing_instruction_skipped(self):
        assert kinds("<?xml version='1.0'?><a></a>") == [
            TokenKind.START,
            TokenKind.END,
        ]

    def test_doctype_skipped(self):
        assert kinds("<!DOCTYPE a><a></a>") == [TokenKind.START, TokenKind.END]

    def test_internal_subset_preserved(self):
        lexer = make_lexer("<!DOCTYPE a [<!ELEMENT a (b)>]><a><b/></a>")
        list(lexer)
        assert "<!ELEMENT a (b)>" in lexer.internal_subset

    def test_unterminated_comment_rejected(self):
        with pytest.raises(XmlSyntaxError, match="unterminated comment"):
            list(tokenize("<a><!-- oops</a>"))


class TestWhitespace:
    def test_whitespace_dropped_by_default(self):
        assert kinds("<a>  <b></b>  </a>") == [
            TokenKind.START,
            TokenKind.START,
            TokenKind.END,
            TokenKind.END,
        ]

    def test_whitespace_kept_on_request(self):
        tokens = list(tokenize("<a> <b></b></a>", keep_whitespace=True))
        assert tokens[1].kind is TokenKind.TEXT
        assert tokens[1].content == " "

    def test_leading_and_trailing_document_whitespace(self):
        assert kinds("\n  <a></a>\n") == [TokenKind.START, TokenKind.END]


class TestWellFormedness:
    def test_mismatched_end_tag(self):
        with pytest.raises(XmlSyntaxError, match="mismatched end tag"):
            list(tokenize("<a><b></a></b>"))

    def test_unclosed_element(self):
        with pytest.raises(XmlSyntaxError, match="unclosed element"):
            list(tokenize("<a><b>"))

    def test_stray_end_tag(self):
        with pytest.raises(XmlSyntaxError, match="no open element"):
            list(tokenize("<a></a></b>"))

    def test_multiple_roots_rejected(self):
        with pytest.raises(XmlSyntaxError, match="multiple root"):
            list(tokenize("<a></a><b></b>"))

    def test_text_outside_root_rejected(self):
        with pytest.raises(XmlSyntaxError, match="outside the root"):
            list(tokenize("hello<a></a>"))

    def test_malformed_start_tag(self):
        with pytest.raises(XmlSyntaxError):
            list(tokenize("<1a></1a>"))

    def test_attribute_without_value(self):
        with pytest.raises(XmlSyntaxError, match="without value"):
            list(tokenize("<a checked></a>"))

    def test_unquoted_attribute_value(self):
        with pytest.raises(XmlSyntaxError, match="unquoted value"):
            list(tokenize("<a x=1></a>"))


class TestPullInterface:
    def test_next_token_returns_none_at_eof(self):
        lexer = make_lexer("<a></a>")
        assert lexer.next_token().kind is TokenKind.START
        assert lexer.next_token().kind is TokenKind.END
        assert lexer.next_token() is None
        assert lexer.next_token() is None

    def test_depth_tracking(self):
        lexer = make_lexer("<a><b></b></a>")
        lexer.next_token()
        assert lexer.depth == 1
        lexer.next_token()
        assert lexer.depth == 2
        lexer.next_token()
        assert lexer.depth == 1

    def test_tokenize_accepts_chunks(self):
        tokens = list(tokenize(["<a>", "<b></b>", "</a>"]))
        assert len(tokens) == 4

    def test_offsets_are_monotonic(self):
        offsets = [t.offset for t in tokenize("<a><b>x</b><c></c></a>")]
        assert offsets == sorted(offsets)


class TestIncremental:
    """Push-mode lexing: feed()/close() with arbitrary chunk splits."""

    DOC = (
        '<!DOCTYPE a [<!ELEMENT a (b)>]>'
        '<a x="1&amp;2"><!-- c --><b><![CDATA[<x>&]]></b>t&#65;x<c/></a>'
    )

    @staticmethod
    def drain(lexer):
        from repro.xmlio.errors import XmlStarvedError

        tokens = []
        while True:
            try:
                token = lexer.next_token()
            except XmlStarvedError:
                return tokens, False
            if token is None:
                return tokens, True
            tokens.append(token)

    def test_every_split_offset_token_identical(self):
        from repro.xmlio.lexer import XmlLexer

        whole = list(tokenize(self.DOC))
        for offset in range(len(self.DOC) + 1):
            lexer = XmlLexer(None)
            tokens = []
            for part in (self.DOC[:offset], self.DOC[offset:]):
                lexer.feed(part)
                got, _done = self.drain(lexer)
                tokens.extend(got)
            lexer.close()
            got, done = self.drain(lexer)
            tokens.extend(got)
            assert done
            assert tokens == whole, offset

    def test_starved_pull_raises_until_closed(self):
        from repro.xmlio.errors import XmlStarvedError
        from repro.xmlio.lexer import XmlLexer

        lexer = XmlLexer(None)
        lexer.feed("<a>text-without-markup")
        assert lexer.next_token().name == "a"
        with pytest.raises(XmlStarvedError):
            lexer.next_token()  # the text run may continue
        lexer.feed("-more</a>")
        assert lexer.next_token().content == "text-without-markup-more"

    def test_feed_after_close_rejected(self):
        from repro.xmlio.lexer import XmlLexer

        lexer = XmlLexer(None)
        lexer.close()
        with pytest.raises(ValueError, match="closed"):
            lexer.feed("<a/>")

    def test_offsets_survive_compaction(self):
        whole = [t.offset for t in tokenize(self.DOC)]
        one_byte = [t.offset for t in tokenize(iter(self.DOC))]
        assert one_byte == whole

    def test_internal_subset_split_across_chunks(self):
        from repro.xmlio.lexer import XmlLexer

        doc = "<!DOCTYPE a [<!ELEMENT a (b)>]><a><b/></a>"
        lexer = XmlLexer(iter([doc[:20], doc[20:]]))
        list(lexer)
        assert "<!ELEMENT a (b)>" in lexer.internal_subset

    def test_entity_split_across_chunks(self):
        tokens = list(tokenize(["<a>x&am", "p;y</a>"]))
        assert tokens[1].content == "x&y"

    def test_empty_chunks_are_not_end_of_input(self):
        tokens = list(tokenize(["", "<a>", "", "", "x</a>", ""]))
        assert [str(t) for t in tokens] == ["<a>", "x", "</a>"]

    def test_refill_callable_source(self):
        chunks = ["<a><b>1</b>", "<b>2</b></a>"]
        lexer = make_lexer(None, refill=lambda: chunks.pop(0) if chunks else None)
        assert len(list(lexer)) == 8

    def test_unicode_names_fall_back_to_exact_scanner(self):
        (start, _end) = tokenize("<élan å='1'></élan>")
        assert start.name == "élan"
        assert start.attribute("å") == "1"

    def test_tag_names_are_interned(self):
        tokens = [t for t in tokenize(["<a><b/>", "<b/></a>"])
                  if t.kind is TokenKind.START]
        assert tokens[1].name is tokens[2].name


class TestIterableDomainSniffing:
    """make_lexer picks the scanning domain from the first chunk of an
    iterable source — including when that chunk is empty (the empty
    chunk is skipped, but its *type* still decides)."""

    def test_leading_empty_bytes_chunk_picks_bytes_domain(self):
        from repro.xmlio.lexer_bytes import ByteXmlLexer

        lexer = make_lexer([b"", b"<a>x</a>"])
        assert isinstance(lexer, ByteXmlLexer)
        assert [str(t) for t in lexer] == ["<a>", "x", "</a>"]

    def test_leading_empty_str_chunk_picks_str_domain(self):
        from repro.xmlio.lexer import XmlLexer

        lexer = make_lexer(["", "<a>x</a>"])
        assert isinstance(lexer, XmlLexer)
        assert [str(t) for t in lexer] == ["<a>", "x", "</a>"]

    def test_all_empty_bytes_iterable_gets_bytes_lexer(self):
        from repro.xmlio.lexer_bytes import ByteXmlLexer

        assert isinstance(make_lexer([b"", b""]), ByteXmlLexer)
        assert isinstance(make_lexer([b""]), ByteXmlLexer)

    def test_all_empty_str_iterable_gets_str_lexer(self):
        from repro.xmlio.lexer import XmlLexer

        assert isinstance(make_lexer([""]), XmlLexer)
        assert isinstance(make_lexer([]), XmlLexer)

    def test_tokenize_skips_leading_empty_chunks_bytes(self):
        tokens = list(tokenize([b"", b"", b"<a>", b"", b"x</a>"]))
        assert [str(t) for t in tokens] == ["<a>", "x", "</a>"]

    def test_tokenize_skips_leading_empty_chunks_str(self):
        tokens = list(tokenize(["", "", "<a>", "", "x</a>"]))
        assert [str(t) for t in tokens] == ["<a>", "x", "</a>"]
