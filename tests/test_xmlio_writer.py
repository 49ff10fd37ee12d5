"""Unit tests for XML serialization."""

from repro.xmlio.lexer import tokenize
from repro.xmlio.writer import XmlWriter, escape_attribute, escape_text


class TestEscaping:
    def test_text_escapes_angle_brackets_and_amp(self):
        assert escape_text("<a> & </a>") == "&lt;a&gt; &amp; &lt;/a&gt;"

    def test_text_leaves_quotes(self):
        assert escape_text('say "hi"') == 'say "hi"'

    def test_attribute_escapes_quote(self):
        assert escape_attribute('a"b') == "a&quot;b"

    def test_attribute_escapes_amp_and_lt(self):
        assert escape_attribute("a<&b") == "a&lt;&amp;b"

    def test_text_escapes_carriage_return(self):
        assert escape_text("p\rq\n\tr") == "p&#13;q\n\tr"

    def test_attribute_escapes_whitespace_a_reparse_normalizes(self):
        assert escape_attribute("1\t2\n3\r4 5") == "1&#9;2&#10;3&#13;4 5"


def _expat_parse(xml: str) -> list:
    """``(event, name, attributes-or-text)`` of *xml* as stdlib expat
    reads it, adjacent character data merged."""
    from xml.parsers import expat

    events: list = []
    parser = expat.ParserCreate()

    def start(name, attributes):
        events.append(("start", name, attributes))

    def end(name):
        events.append(("end", name, None))

    def text(data):
        if events and events[-1][0] == "text":
            events[-1] = ("text", None, events[-1][2] + data)
        else:
            events.append(("text", None, data))

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text
    parser.Parse(xml, True)
    return events


class TestReparseRoundTrip:
    def test_copied_subtree_reparses_to_the_input_under_expat(self):
        """Whitespace held as character references in the input is
        still there after the copy is reparsed (Serialization 3.1)."""
        from repro import GCXEngine

        element = '<a x="1&#9;2&#10;3&#13;4">p&#13;q</a>'
        output = GCXEngine().query(
            "for $a in /r/a return $a", f"<r>{element}</r>"
        ).output
        assert _expat_parse(output) == _expat_parse(element)
        assert _expat_parse(output)[0] == ("start", "a", {"x": "1\t2\n3\r4"})
        assert _expat_parse(output)[1] == ("text", None, "p\rq")


class TestXmlWriter:
    def test_element_with_attributes(self):
        writer = XmlWriter()
        writer.start_element("a", [("x", "1")])
        writer.text("body")
        writer.end_element("a")
        assert writer.getvalue() == '<a x="1">body</a>'

    def test_empty_attribute_list(self):
        writer = XmlWriter()
        writer.start_element("a", [])
        writer.end_element("a")
        assert writer.getvalue() == "<a></a>"

    def test_raw_passthrough(self):
        writer = XmlWriter()
        writer.raw("<pre&served/>")
        assert writer.getvalue() == "<pre&served/>"

    def test_token_roundtrip(self):
        xml = '<a x="1">t<b></b></a>'
        writer = XmlWriter()
        for token in tokenize(xml):
            writer.token(token)
        assert writer.getvalue() == xml

    def test_len_counts_characters(self):
        writer = XmlWriter()
        writer.text("abc")
        writer.text("de")
        assert len(writer) == 5
