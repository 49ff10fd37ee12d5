"""Differential suite: the bytes-domain lexer against its str oracle.

DESIGN.md §11's acceptance bar: :class:`ByteXmlLexer` must produce the
same tokens, events, significance decisions and errors as the str
:class:`XmlLexer` at every **byte-level** chunk split — including
splits inside multi-byte UTF-8 sequences, entity references and CDATA
terminators, which the str lexer can never even be handed.  On top of
the oracle relationship, the bytes lexer owns one new error class: any
invalid UTF-8 on a decoded path raises
:class:`~repro.xmlio.errors.XmlSyntaxError` with the exact byte
position, never a loose ``UnicodeDecodeError``.
"""

from __future__ import annotations

import io
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import GCXEngine
from repro.server.client import GCXClient, ServerError
from repro.server.service import ServerThread
from repro.xmlio.errors import XmlStarvedError, XmlSyntaxError
from repro.xmlio.lexer import XmlLexer, make_lexer, tokenize
from repro.xmlio.lexer_bytes import ByteXmlLexer

# Every construct the scanner knows, with multi-byte characters in
# every position that decodes: tag names, attribute names and values,
# text runs, CDATA, comments, PI bodies, the DTD internal subset.
TRICKY = (
    '<!DOCTYPE a [<!ELEMENT a (b)> <!-- é -->]>'
    '<a x="1&amp;2" läng="中文"><!-- nöte --><b><![CDATA[<räw> &amp;]]></b>'
    "t&#65;il &#x2603;<c k='v'/> \t\r\n"
    "<réé>café &lt;&gt;</réé><d>  </d><e/></a>"
)

ASCII_DOCS = [
    "<a/>",
    "<a><b>x</b><c>  </c></a>",
    '<a k="v" l=\'w\'><b/>text<!--c--><?pi ?></a>',
    "<a>&amp;&#65;&#x41;</a>",
    "<a><![CDATA[ ]]><![CDATA[x]]></a>",
    '<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>x</a>',
]

MALFORMED = [
    "<a><b></c></a>",
    "<a><b>",
    "<a>x</a><b/>",
    "junk<a/>",
    "<a>&nope;</a>",
    "<a>&unterminated</a>",
    '<a k="1" k="2"/>',
    "<a k=v/>",
    "<a k/>",
    "<a><!-- never closed",
    "<a><![CDATA[never closed",
    "<a><?pi never closed",
    "<!DOCTYPE a <a/>",
    "</a>",
    "<a></a >x",
    "<1a/>",
    "<a></1a>",
    '<a k="never closed/>',
]


def events_of(lexer) -> list:
    out: list = []
    while True:
        event = lexer.next_event()
        if event is None:
            return out
        out.append(event)


def token_views(tokens, with_offsets: bool) -> list:
    views = []
    for token in tokens:
        view = [type(token).__name__, str(token)]
        if with_offsets:
            view.append(token.offset)
        views.append(view)
    return views


def byte_chunks(data: bytes, cuts) -> list[bytes]:
    bounds = [0] + sorted({c % (len(data) + 1) for c in cuts}) + [len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


def outcome(fn):
    """Run *fn*; capture either its value or its error identity."""
    try:
        return ("ok", fn())
    except XmlSyntaxError as exc:
        return ("error", type(exc).__name__, exc.message)


class TestTokenParity:
    @pytest.mark.parametrize("doc", ASCII_DOCS)
    def test_ascii_docs_identical_including_offsets(self, doc):
        """For pure-ASCII input byte offsets == char offsets, so the
        token streams agree down to the offset field."""
        str_tokens = list(tokenize(doc))
        byte_tokens = list(tokenize(doc.encode("utf-8")))
        assert token_views(byte_tokens, True) == token_views(str_tokens, True)

    def test_tricky_doc_tokens_and_events(self):
        str_tokens = list(tokenize(TRICKY))
        byte_tokens = list(tokenize(TRICKY.encode("utf-8")))
        # multi-byte characters shift byte offsets vs char offsets;
        # everything else must be identical
        assert token_views(byte_tokens, False) == token_views(str_tokens, False)
        assert events_of(make_lexer(TRICKY.encode())) == events_of(
            make_lexer(TRICKY)
        )

    def test_keep_whitespace_parity(self):
        str_tokens = list(tokenize(TRICKY, keep_whitespace=True))
        byte_tokens = list(tokenize(TRICKY.encode(), keep_whitespace=True))
        assert token_views(byte_tokens, False) == token_views(str_tokens, False)

    def test_internal_subset_preserved(self):
        str_lexer = make_lexer(TRICKY)
        byte_lexer = make_lexer(TRICKY.encode())
        list(str_lexer), list(byte_lexer)
        assert byte_lexer.internal_subset == str_lexer.internal_subset
        assert "é" in byte_lexer.internal_subset

    def test_interned_names_are_shared(self):
        lexer = make_lexer(b"<a><a><a/></a></a>")
        names = [t.name for t in lexer if hasattr(t, "name")]
        assert all(name is names[0] for name in names)


class TestEveryByteSplit:
    def test_two_way_splits_every_byte_offset(self):
        """Chunk boundaries anywhere — mid-character, mid-entity,
        mid-"]]>" — change nothing."""
        data = TRICKY.encode("utf-8")
        whole = events_of(make_lexer(data))
        for offset in range(len(data) + 1):
            split = events_of(make_lexer(iter([data[:offset], data[offset:]])))
            assert split == whole, offset

    def test_one_byte_chunks(self):
        data = TRICKY.encode("utf-8")
        assert events_of(
            make_lexer(bytes([b]) for b in data)
        ) == events_of(make_lexer(data))

    def test_push_mode_byte_at_a_time(self):
        data = TRICKY.encode("utf-8")
        lexer = ByteXmlLexer()
        got = []
        for index in range(len(data)):
            lexer.feed(data[index : index + 1])
            while True:
                try:
                    event = lexer.next_event()
                except XmlStarvedError:
                    break
                assert event is not None  # input is not closed yet
                got.append(event)
        lexer.close()
        while True:
            event = lexer.next_event()
            if event is None:
                break
            got.append(event)
        assert got == events_of(make_lexer(data))

    def test_skip_subtree_at_every_split_counts_identically(self):
        data = TRICKY.encode("utf-8")
        reference = XmlLexer(TRICKY)
        reference.next_event()  # <a>
        expected_count = reference.skip_subtree()
        expected_tail = events_of(reference)
        for offset in range(0, len(data) + 1, 3):
            lexer = ByteXmlLexer(iter([data[:offset], data[offset:]]))
            lexer.next_event()
            assert lexer.skip_subtree() == expected_count, offset
            assert events_of(lexer) == expected_tail, offset


# Constructs the bulk scanner matches with multi-byte needles —
# ``]]>``, ``-->``, quote characters, and UTF-8 sequences — arranged
# so the needle itself straddles chunk refills.  All are well-formed:
# a bare ``]]>`` in character data and ``--`` inside comments are
# illegal XML, so the ``]]>`` text content is assembled from CDATA
# sections instead.
BATCH_EDGE_DOCS = [
    # "]]>" in text, legally split across two CDATA sections
    "<a><![CDATA[]]]]><![CDATA[>]]>x</a>",
    # "]" run hugging the CDATA terminator: content is "x]"
    "<a><![CDATA[x]]]></a>",
    # longer "]" run, then a second section starting with ">"
    "<a><![CDATA[]]]]]]><![CDATA[>x]]></a>",
    # dash runs inside comments, stopping short of "--"
    "<a><!-- - - - --><!----></a>",
    # ">" and quote characters inside quoted attribute values
    "<a k=\"x>y\" l='a\"b' m=\"c&amp;'d\"/>",
    # multi-byte UTF-8 (2-, 3- and 4-byte) hugging markup boundaries
    '<a é="中">𝄞<b>é</b>中</a>',
]


class TestBatchScanEdges:
    """Every-byte-split parity on the needles the batch scanner jumps
    between (DESIGN.md §15): terminators and quotes that arrive split
    across refills must scan exactly like the per-byte oracle."""

    @pytest.mark.parametrize("doc", BATCH_EDGE_DOCS)
    def test_events_identical_at_every_byte_split(self, doc):
        data = doc.encode("utf-8")
        expected = events_of(make_lexer(doc))
        for offset in range(len(data) + 1):
            got = events_of(make_lexer(iter([data[:offset], data[offset:]])))
            assert got == expected, offset

    @pytest.mark.parametrize("doc", BATCH_EDGE_DOCS)
    def test_tokens_identical_at_one_byte_chunks(self, doc):
        data = doc.encode("utf-8")
        expected = token_views(list(tokenize(doc)), False)
        got = token_views(list(tokenize(bytes([b]) for b in data)), False)
        assert got == expected

    @pytest.mark.parametrize("doc", BATCH_EDGE_DOCS)
    def test_skip_subtree_at_every_split(self, doc):
        data = doc.encode("utf-8")
        oracle = XmlLexer(doc)
        oracle.next_event()
        expected = (oracle.skip_subtree(), events_of(oracle))
        for offset in range(len(data) + 1):
            lexer = ByteXmlLexer(iter([data[:offset], data[offset:]]))
            lexer.next_event()
            got = (lexer.skip_subtree(), events_of(lexer))
            assert got == expected, offset


class TestErrorParity:
    @pytest.mark.parametrize("doc", MALFORMED)
    def test_same_error_identity_and_offset(self, doc):
        """ASCII malformed inputs: same exception type, message and
        (byte == char) offset as the oracle."""

        def drain(lexer):
            return lambda: list(lexer)

        expected = outcome(drain(XmlLexer(doc)))
        got = outcome(drain(ByteXmlLexer(doc.encode())))
        assert got == expected
        if expected[0] == "error":
            with pytest.raises(XmlSyntaxError) as str_exc:
                list(XmlLexer(doc))
            with pytest.raises(XmlSyntaxError) as byte_exc:
                list(ByteXmlLexer(doc.encode()))
            assert byte_exc.value.offset == str_exc.value.offset

    @pytest.mark.parametrize("doc", MALFORMED)
    def test_same_error_under_byte_chunking(self, doc):
        data = doc.encode()
        expected = outcome(lambda: list(XmlLexer(doc)))
        for offset in range(len(data) + 1):
            got = outcome(
                lambda: list(ByteXmlLexer(iter([data[:offset], data[offset:]])))
            )
            assert got == expected, offset

    def test_starvation_is_not_an_error(self):
        lexer = ByteXmlLexer()
        lexer.feed(b"<a><b>text")
        assert lexer.next_event() == (0, "a", None, None)
        assert lexer.next_event() == (0, "b", None, None)
        with pytest.raises(XmlStarvedError):
            lexer.next_event()  # the text run may continue
        lexer.feed(b" more</b></a>").close()
        assert lexer.next_event() == (2, None, None, "text more")


class TestInvalidUtf8:
    def test_text_run_reports_byte_position(self):
        bad = b"<a>caf\xff-</a>"
        with pytest.raises(XmlSyntaxError) as exc:
            list(ByteXmlLexer(bad))
        assert "invalid UTF-8" in exc.value.message
        assert exc.value.offset == 6  # the exact offending byte

    def test_attribute_value_reports_byte_position(self):
        bad = b'<a k="x\x80y"/>'
        with pytest.raises(XmlSyntaxError) as exc:
            list(ByteXmlLexer(bad))
        assert "invalid UTF-8" in exc.value.message
        assert exc.value.offset == 7

    def test_truncated_sequence_at_end_of_input(self):
        bad = "<a>é".encode("utf-8")[:-1]  # é cut in half, then EOF
        with pytest.raises(XmlSyntaxError) as exc:
            list(ByteXmlLexer(bad))
        assert "invalid UTF-8" in exc.value.message or "unexpected end" in str(
            exc.value
        )

    def test_split_mid_document_still_byte_exact(self):
        bad = b"<a><b>ok</b>\xc3\x28</a>"  # invalid continuation byte
        position = bad.index(b"\xc3")
        for offset in range(len(bad) + 1):
            lexer = ByteXmlLexer(iter([bad[:offset], bad[offset:]]))
            with pytest.raises(XmlSyntaxError) as exc:
                list(lexer)
            assert "invalid UTF-8" in exc.value.message, offset
            assert exc.value.offset == position, offset

    def test_never_a_unicode_decode_error_from_events(self):
        bad = b"<a x=\"\xfe\">t</a>"
        lexer = ByteXmlLexer(bad)
        with pytest.raises(XmlSyntaxError):
            events_of(lexer)

    def test_skipped_subtrees_are_opaque_bytes(self):
        """Lazy decode's contract: content inside a fully skipped
        subtree is not decoded on the ASCII-classifiable fast path, so
        invalid UTF-8 there can go unnoticed — tags are still
        validated.  (Runs that need Unicode classification — first
        significant byte >= 0x80 — do decode, and therefore do
        validate.)"""
        doc = b"<a><junk>caf\xff\xfe<inner>x\x80</inner></junk><b>x</b></a>"
        lexer = ByteXmlLexer(doc)
        assert lexer.next_event() == (0, "a", None, None)
        assert lexer.next_event() == (0, "junk", None, None)
        lexer.skip_subtree()  # no decode, no error
        assert lexer.next_event() == (0, "b", None, None)
        assert lexer.next_event() == (2, None, None, "x")

    def test_session_feed_maps_to_xml_syntax_error(self):
        engine = GCXEngine()
        session = engine.session("for $b in /a/b return $b")
        with pytest.raises(XmlSyntaxError, match="invalid UTF-8"):
            session.feed(b"<a><b>caf\xff</b></a>")
            session.finish()

    def test_server_maps_invalid_utf8_chunk_to_error_frame(self):
        """Robustness end to end: a CHUNK whose bytes are not UTF-8
        yields an ERROR frame with the byte position — not a crashed
        handler — and the connection stays usable."""
        query = "for $b in /a/b return $b"
        with ServerThread(max_sessions=2) as handle:
            with GCXClient(handle.host, handle.port) as client:
                with pytest.raises(ServerError) as exc:
                    client.open(query)
                    client.send_chunk(b"<a><b>caf\xff</b></a>")
                    client.finish()
                assert "XmlSyntaxError" in str(exc.value)
                assert "invalid UTF-8" in str(exc.value)
                # same connection, next query succeeds
                outcome = client.run_query(query, "<a><b>ok</b></a>")
                assert outcome.output == "<b>ok</b>"


class TestEndToEndBytes:
    QUERY = "<out>{ for $b in /a/b return $b }</out>"

    def test_engine_run_accepts_bytes(self):
        engine = GCXEngine()
        plan = engine.compile(self.QUERY)
        expected = engine.run(plan, TRICKY.replace("<a ", "<a ", 1))
        str_result = engine.run(plan, TRICKY)
        byte_result = engine.run(plan, TRICKY.encode("utf-8"))
        assert byte_result.output == str_result.output == expected.output
        assert byte_result.stats.series == str_result.stats.series
        assert byte_result.stats.watermark == str_result.stats.watermark

    def test_engine_run_accepts_binary_file(self, tmp_path):
        engine = GCXEngine()
        plan = engine.compile(self.QUERY)
        path = tmp_path / "doc.xml"
        path.write_bytes(TRICKY.encode("utf-8"))
        with open(path, "rb") as handle:
            byte_result = engine.run(plan, handle, chunk_size=7)
        assert byte_result.output == engine.run(plan, TRICKY).output

    def test_session_bytes_feed_identical_to_str_feed(self):
        engine = GCXEngine()
        plan = engine.compile(self.QUERY)
        baseline = engine.run(plan, TRICKY)
        data = TRICKY.encode("utf-8")
        for offset in range(0, len(data) + 1, 5):
            session = engine.session(plan)
            session.feed(data[:offset])
            session.feed(data[offset:])
            result = session.finish()
            assert result.output == baseline.output, offset
            assert result.stats.series == baseline.stats.series, offset

    def test_binary_output_session_streams_wire_ready_bytes(self):
        query = "<out>{ for $t in /a/réé return $t }</out>"
        document = "<a><réé>caf锦é†</réé><réé>中文✓</réé></a>"
        engine = GCXEngine()
        baseline = engine.query(query, document)
        session = engine.session(engine.compile(query), binary_output=True)
        session.feed(document.encode("utf-8"))
        # finish() signals end of input (which lets evaluation complete
        # and closes the output channel) while this thread pumps — the
        # same shape as the server's RESULT pump.
        finished = {}
        finisher = threading.Thread(
            target=lambda: finished.setdefault("result", session.finish())
        )
        finisher.start()
        parts = []
        while True:
            # a tiny bound forces cuts near multi-byte output chars
            part = session.next_output(max_chars=5, timeout=10.0)
            if part is None:
                break
            assert isinstance(part, bytes)
            part.decode("utf-8")  # every fragment valid UTF-8 on its own
            parts.append(part)
        finisher.join()
        tail = finished["result"].output
        assert b"".join(parts).decode("utf-8") + tail == baseline.output

    def test_cli_reads_binary(self, tmp_path, capsys):
        from repro.cli import main

        query_path = tmp_path / "q.xq"
        query_path.write_text(self.QUERY, encoding="utf-8")
        doc_path = tmp_path / "doc.xml"
        doc_path.write_bytes(TRICKY.encode("utf-8"))
        assert main(
            ["run", str(query_path), str(doc_path), "--chunk-size", "11"]
        ) == 0
        out = capsys.readouterr().out
        expected = GCXEngine().query(self.QUERY, TRICKY).output
        assert expected in out

    def test_cli_invalid_utf8_is_one_line_error(self, tmp_path, capsys):
        from repro.cli import main

        query_path = tmp_path / "q.xq"
        query_path.write_text(self.QUERY, encoding="utf-8")
        doc_path = tmp_path / "doc.xml"
        doc_path.write_bytes(b"<a><b>caf\xff</b></a>")
        assert main(["run", str(query_path), str(doc_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "invalid UTF-8" in err


# ----------------------------------------------------------------------
# property-based differential testing
# ----------------------------------------------------------------------

# Fragments chosen so concatenations stay well-formed while exercising
# multi-byte characters, entities and CDATA around every chunk cut.
_FRAGMENTS = st.sampled_from(
    [
        "<b>x</b>",
        "<b k=\"v\"/>",
        "<b läng='中文'/>",
        "<réé>café</réé>",
        "t&#65;il",
        "&amp;&lt;",
        "&#x2603;",
        " ",
        " \t\r\n",
        "<![CDATA[<raw> ]]>",
        "<![CDATA[中]]>",
        "<!-- nöte -->",
        "<?pi da ta?>",
        "<c><d>δδ</d></c>",
        "",
    ]
)


@st.composite
def documents(draw):
    body = "".join(draw(st.lists(_FRAGMENTS, min_size=0, max_size=8)))
    return f"<a>{body}</a>"


class TestHypothesisDifferential:
    @given(doc=documents(), cuts=st.lists(st.integers(min_value=0), max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_events_identical_at_random_byte_cuts(self, doc, cuts):
        """The acceptance property: for every document and every
        byte-level chunking — including cuts inside multi-byte UTF-8
        sequences, entities and CDATA markers — the bytes lexer's
        event stream equals the str oracle's over the whole document."""
        data = doc.encode("utf-8")
        expected = events_of(make_lexer(doc))
        got = events_of(make_lexer(iter(byte_chunks(data, cuts))))
        assert got == expected

    @given(doc=documents(), cuts=st.lists(st.integers(min_value=0), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_tokens_identical_at_random_byte_cuts(self, doc, cuts):
        data = doc.encode("utf-8")
        expected = token_views(list(tokenize(doc)), False)
        got = token_views(
            list(tokenize(iter(byte_chunks(data, cuts)))), False
        )
        assert got == expected

    @given(
        doc=documents(),
        cuts=st.lists(st.integers(min_value=0), max_size=4),
        keep_ws=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_skip_subtree_count_matches_oracle(self, doc, cuts, keep_ws):
        """Skipping the root subtree must account exactly the tokens
        the str oracle would have emitted — whitespace significance
        and entity validation agree byte for byte."""
        data = doc.encode("utf-8")
        oracle = XmlLexer(doc, keep_whitespace=keep_ws)
        oracle.next_event()
        expected = outcome(oracle.skip_subtree)
        lexer = ByteXmlLexer(
            iter(byte_chunks(data, cuts)), keep_whitespace=keep_ws
        )
        lexer.next_event()
        assert outcome(lexer.skip_subtree) == expected

    @given(doc=documents(), cuts=st.lists(st.integers(min_value=0), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_session_output_identical_to_pull_run(self, doc, cuts):
        """End to end: bytes-fed sessions ≡ str pull runs at any
        byte-level chunking (output, watermark, series)."""
        engine = GCXEngine()
        plan = engine.compile("<out>{ for $b in /a/b return $b }</out>")
        baseline = engine.run(plan, doc)
        session = engine.session(plan)
        for chunk in byte_chunks(doc.encode("utf-8"), cuts):
            session.feed(chunk)
        result = session.finish()
        assert result.output == baseline.output
        assert result.stats.watermark == baseline.stats.watermark
        assert result.stats.series == baseline.stats.series


# ----------------------------------------------------------------------
# fused lexer kernel (DESIGN.md §15): fused ≡ NFA ≡ str oracle
# ----------------------------------------------------------------------

# Child-axis plans over the documents() alphabet; each admits the
# fused batch-scan front-end, with live tags that hit, miss, and
# include multi-byte names.
_PLAN_QUERIES = (
    "<out>{ for $b in /a/b return $b }</out>",
    "<out>{ for $d in /a/c/d return $d }</out>",
    "<out>{ for $r in /a/réé return $r }</out>",
)

_FUSED_ENGINE = GCXEngine()
_NFA_ENGINE = GCXEngine(compiled=False)


def _result_fingerprint(result):
    stats = result.stats
    return (
        result.output,
        stats.tokens,
        stats.watermark,
        stats.series,
        stats.subtrees_skipped,
    )


def outcome_with_offset(fn):
    try:
        return ("ok", fn())
    except XmlSyntaxError as exc:
        return ("error", type(exc).__name__, exc.message, exc.offset)


class TestFusedKernelDifferential:
    """The acceptance property for the fused tier: for every document,
    plan and byte-level chunking, the fused batch-scan front-end is
    indistinguishable from the NFA oracle and the str-lexer oracle —
    output, stats and error identity (type, message, byte offset)."""

    def test_plans_admit_the_fused_kernel(self):
        for query in _PLAN_QUERIES:
            plan = _FUSED_ENGINE.compile(query)
            assert plan.lexer_kernel is not None, query

    @given(
        doc=documents(),
        cuts=st.lists(st.integers(min_value=0), max_size=5),
        query=st.sampled_from(_PLAN_QUERIES),
    )
    @settings(max_examples=80, deadline=None)
    def test_pull_run_identical_at_random_byte_cuts(self, doc, cuts, query):
        fused_plan = _FUSED_ENGINE.compile(query)
        nfa_plan = _NFA_ENGINE.compile(query)
        chunks = byte_chunks(doc.encode("utf-8"), cuts)
        oracle = _result_fingerprint(_NFA_ENGINE.run(nfa_plan, doc))
        fused = _result_fingerprint(_FUSED_ENGINE.run(fused_plan, iter(chunks)))
        nfa = _result_fingerprint(_NFA_ENGINE.run(nfa_plan, iter(chunks)))
        assert fused == nfa == oracle

    @given(
        doc=documents(),
        cuts=st.lists(st.integers(min_value=0), max_size=5),
        query=st.sampled_from(_PLAN_QUERIES),
    )
    @settings(max_examples=60, deadline=None)
    def test_push_session_identical_at_random_byte_cuts(self, doc, cuts, query):
        fused_plan = _FUSED_ENGINE.compile(query)
        oracle = _result_fingerprint(_FUSED_ENGINE.run(fused_plan, doc))
        session = _FUSED_ENGINE.session(fused_plan)
        for chunk in byte_chunks(doc.encode("utf-8"), cuts):
            session.feed(chunk)
        assert _result_fingerprint(session.finish()) == oracle

    def test_tricky_document_every_byte_split(self):
        """The full construct zoo through the fused tier at every
        two-way byte split — CDATA, comments, entities, multi-byte
        names, dead subtrees — must match the whole-buffer run."""
        plan = _FUSED_ENGINE.compile(_PLAN_QUERIES[0])
        data = TRICKY.encode("utf-8")
        expected = _result_fingerprint(_FUSED_ENGINE.run(plan, TRICKY))
        for offset in range(len(data) + 1):
            result = _FUSED_ENGINE.run(
                plan, iter([data[:offset], data[offset:]])
            )
            assert _result_fingerprint(result) == expected, offset

    @pytest.mark.parametrize("doc", MALFORMED)
    def test_malformed_error_identity_at_every_split(self, doc):
        """Error parity through the fused session: same exception
        type, message and byte offset as the str-oracle run *at the
        same split* (a restart after starvation may legitimately move
        the reported offset, so the oracle must be chunked alike) —
        the fused batch scan must not report errors early, late, or at
        a shifted position."""
        plan = _FUSED_ENGINE.compile(_PLAN_QUERIES[0])
        data = doc.encode("utf-8")
        for offset in range(len(data) + 1):

            def str_run(offset=offset):
                chunks = iter([doc[:offset], doc[offset:]])
                return _FUSED_ENGINE.run(plan, chunks).output

            def fused_run(offset=offset):
                session = _FUSED_ENGINE.session(plan)
                session.feed(data[:offset])
                session.feed(data[offset:])
                return session.finish().output

            expected = outcome_with_offset(str_run)
            assert outcome_with_offset(fused_run) == expected, offset


class TestOutputChannelBinary:
    def test_bound_smaller_than_one_character_overshoots_not_splits(self):
        """A max_chars below the width of a multi-byte output character
        must emit the whole character (exceeding the bound by <= 3
        bytes), never a standalone-invalid fragment."""
        from repro.core.session import _OutputChannel

        channel = _OutputChannel(binary=True)
        channel.write("中a文")  # 3 + 1 + 3 bytes
        channel.close()
        fragments = []
        while True:
            part = channel.next(max_chars=1, timeout=1.0)
            if part is None:
                break
            part.decode("utf-8")  # must be valid on its own
            assert len(part) <= 3
            fragments.append(part)
        assert b"".join(fragments).decode("utf-8") == "中a文"
        assert len(fragments) == 3

    def test_passthrough_stream_unaffected_by_binary_default(self):
        engine = GCXEngine()
        sink = io.StringIO()
        session = engine.session(
            "<out>{ for $b in /a/b return $b }</out>", output_stream=sink
        )
        session.feed(b"<a><b>x</b></a>")
        result = session.finish()
        assert result.output == ""
        assert sink.getvalue() == "<out><b>x</b></out>"
