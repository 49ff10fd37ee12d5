"""Stress and failure-injection tests.

A streaming engine is pointless if it dies on the documents that
motivate streaming: very deep, very wide, or malformed mid-stream.
"""

import io

import pytest

from repro.core.engine import GCXEngine
from repro.xmlio.errors import XmlSyntaxError


class TestDeepDocuments:
    DEPTH = 5000

    def deep_doc(self, depth):
        return "<r>" + "<d>" * depth + "x" + "</d>" * depth + "</r>"

    def test_deep_document_skipped_subtree(self):
        # the query never touches the deep chain: it must be skipped
        # without recursion or buffering
        xml = self.deep_doc(self.DEPTH).replace("<r>", "<r><a>hit</a>")
        result = GCXEngine().query("for $a in /r/a return $a", xml)
        assert result.output == "<a>hit</a>"
        assert result.stats.watermark <= 3

    def test_deep_document_fully_buffered_and_output(self):
        # the whole chain is matched, buffered, serialized and purged
        xml = self.deep_doc(self.DEPTH)
        result = GCXEngine().query("for $r in /r return $r", xml)
        assert result.output == xml
        assert result.stats.final_buffered == 0

    def test_deep_document_descendant_iteration(self):
        xml = self.deep_doc(1000)
        result = GCXEngine().query(
            "for $t in /r/descendant::text() return $t", xml
        )
        assert result.output == "x"
        assert result.stats.final_buffered == 0


class TestWideDocuments:
    def test_many_siblings_streamed_in_constant_memory(self):
        xml = "<r>" + "<e><v>1</v></e>" * 20_000 + "</r>"
        result = GCXEngine().query("for $e in /r/e return $e/v/text()", xml)
        assert result.output == "1" * 20_000
        assert result.stats.watermark < 10

    def test_many_attributes(self):
        attrs = " ".join(f'a{i}="{i}"' for i in range(300))
        xml = f"<r><e {attrs}></e></r>"
        result = GCXEngine().query('for $e in /r/e return $e/@a299', xml)
        assert result.output == "299"

    @pytest.mark.parametrize("mode", ["pull_bytes", "pull_str", "push"])
    def test_attribute_count_is_linear(self, mode):
        # the duplicate-attribute check must not be quadratic: 4x the
        # attributes on one start tag (built, and inside a skipped
        # subtree) may cost at most 8x the time
        import time

        engine = GCXEngine()
        plan = engine.compile("for $e in /r/e return $e/@a0")

        def run(k):
            attrs = " ".join(f'a{i}="{i}"' for i in range(k))
            xml = f"<r><e {attrs}>t</e><s><e {attrs}/></s></r>"
            data = xml if mode == "pull_str" else xml.encode()
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                if mode == "push":
                    session = engine.session(plan)
                    session.feed(data)
                    result = session.finish()
                else:
                    result = engine.run(plan, data)
                best = min(best, time.perf_counter() - started)
                assert result.output == "0"
            return best

        k = 2500
        assert run(4 * k) <= 8 * run(k)


class TestMalformedInputSurfacesMidStream:
    def test_mismatched_tag_raises_during_evaluation(self):
        xml = "<r><a></a><b></a></r>"
        with pytest.raises(XmlSyntaxError, match="mismatched"):
            GCXEngine().query("for $a in /r/a return $a", xml)

    def test_truncated_document_raises(self):
        xml = "<r><a></a><b>"
        with pytest.raises(XmlSyntaxError, match="unclosed"):
            GCXEngine().query("for $x in /r/* return $x", xml)

    def test_error_in_skipped_region_still_raised(self):
        # even inside a subtree the projector skips, well-formedness is
        # checked (the skip consumes tokens through the lexer)
        xml = "<r><skip><broken></skip><a></a></r>"
        with pytest.raises(XmlSyntaxError):
            GCXEngine().query("for $a in /r/a return $a", xml)


class TestStreamingIO:
    def test_output_stream_receives_result_incrementally(self):
        sink = io.StringIO()
        engine = GCXEngine()
        compiled = engine.compile("for $e in /r/e return $e")
        result = engine.run(compiled, "<r><e>1</e><e>2</e></r>", output_stream=sink)
        assert sink.getvalue() == "<e>1</e><e>2</e>"
        assert result.output == ""  # went to the stream instead
        assert result.stats.output_chars == len(sink.getvalue())

    def test_input_file_like(self):
        source = io.StringIO("<r><e>1</e></r>")
        engine = GCXEngine()
        result = engine.run(engine.compile("for $e in /r/e return $e"), source)
        assert result.output == "<e>1</e>"

    def test_stream_output_matches_buffered_output(self):
        xml = "<r><e a='1'>x</e><f/></r>"
        query = "<out>{ for $x in /r/* return $x }</out>"
        engine = GCXEngine()
        sink = io.StringIO()
        engine.run(engine.compile(query), xml, output_stream=sink)
        buffered = engine.evaluate(query, xml)
        assert sink.getvalue() == buffered


class TestUnicodeAndEscaping:
    def test_unicode_content_roundtrip(self):
        xml = "<r><e>ünïcødé — 漢字</e></r>"
        out = GCXEngine().evaluate("for $e in /r/e return $e", xml)
        assert out == xml.replace("<r>", "").replace("</r>", "")

    def test_entities_resolved_and_reescaped(self):
        xml = "<r><e>&lt;tag&gt; &amp; more</e></r>"
        out = GCXEngine().evaluate("for $e in /r/e return $e/text()", xml)
        assert out == "&lt;tag&gt; &amp; more"

    def test_cdata_through_engine(self):
        xml = "<r><e><![CDATA[<raw> & stuff]]></e></r>"
        out = GCXEngine().evaluate("for $e in /r/e return $e/text()", xml)
        assert out == "&lt;raw&gt; &amp; stuff"

    def test_attribute_escaping_roundtrip(self):
        xml = '<r><e k="a&amp;b&quot;c"></e></r>'
        out = GCXEngine().evaluate("for $e in /r/e return $e", xml)
        assert 'k="a&amp;b&quot;c"' in out


class TestPathologicalQueries:
    def test_query_touching_nothing(self):
        result = GCXEngine().query(
            "for $z in /r/nope/nada return $z", "<r>" + "<a>x</a>" * 100 + "</r>"
        )
        assert result.output == ""
        assert result.stats.watermark <= 1

    def test_same_path_used_many_times(self):
        query = "(" + ", ".join("for $x in /r/a return $x/text()" for _ in range(10)) + ")"
        result = GCXEngine().query(query, "<r><a>v</a></r>")
        assert result.output == "v" * 10
        assert result.stats.final_buffered == 0

    def test_deeply_nested_conditionals(self):
        query = "for $a in /r/a return "
        for _ in range(20):
            query += "if (exists $a/x) then "
        query += '"deep"'
        for _ in range(20):
            query += " else ()"
        result = GCXEngine().query(query, "<r><a><x/></a></r>")
        assert result.output == "deep"

    def test_empty_document_root_only(self):
        result = GCXEngine().query("for $r in /r return $r", "<r/>")
        assert result.output == "<r></r>"
