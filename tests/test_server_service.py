"""End-to-end tests of the concurrent query service over real TCP.

Every test starts a :class:`~repro.server.service.ServerThread` on an
ephemeral port and drives it with the blocking client — the same path
the CLI, the CI smoke job and ``benchmarks/bench_server.py`` use.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.engine import GCXEngine
from repro.datasets.bib import BIB_QUERY, figure3c_document
from repro.server.client import GCXClient, ServerBusyError, ServerError
from repro.server.service import ServerThread
from repro.xmark.queries import ADAPTED_QUERIES

Q1 = ADAPTED_QUERIES["q1"].text


@pytest.fixture(scope="module")
def server():
    with ServerThread(max_sessions=64) as handle:
        yield handle


@pytest.fixture(scope="module")
def q1_expected(xmark_small):
    return GCXEngine(record_series=False).query(Q1, xmark_small).output


def _connect(server, **kwargs):
    return GCXClient(server.host, server.port, **kwargs)


class TestRoundtrip:
    def test_output_byte_identical_to_engine_run(self, server, xmark_small, q1_expected):
        with _connect(server) as client:
            outcome = client.run_query(Q1, xmark_small)
        assert outcome.output == q1_expected
        assert outcome.session["output_chars"] == len(q1_expected)
        assert outcome.session["watermark"] >= 1

    def test_arbitrary_chunk_boundaries(self, server):
        document = figure3c_document()
        expected = GCXEngine(record_series=False).query(BIB_QUERY, document).output
        with _connect(server, chunk_size=7) as client:
            outcome = client.run_query(BIB_QUERY, document)
        assert outcome.output == expected

    def test_many_queries_share_one_connection_and_plan(self, server, xmark_small, q1_expected):
        with _connect(server) as client:
            before = client.stats()["plan_cache"]["misses"]
            for _ in range(3):
                assert client.run_query(Q1, xmark_small).output == q1_expected
            after = client.stats()["plan_cache"]["misses"]
        # Q1 was compiled by earlier tests at most once; never again here.
        assert after == before

    def test_empty_result_still_finishes(self, server):
        query = "<r>{ for $x in /doc/absent return $x }</r>"
        with _connect(server) as client:
            outcome = client.run_query(query, "<doc><a/></doc>")
        expected = GCXEngine().query(query, "<doc><a/></doc>").output
        assert outcome.output == expected


class TestErrors:
    def test_malformed_xml_returns_error_frame(self, server):
        with _connect(server) as client:
            with pytest.raises(ServerError) as excinfo:
                client.run_query(BIB_QUERY, "<bib><book></bib>")
            message = str(excinfo.value)
            assert "XmlSyntaxError" in message
            assert "\n" not in message
            # The connection survives an evaluation error.
            document = figure3c_document()
            expected = GCXEngine().query(BIB_QUERY, document).output
            assert client.run_query(BIB_QUERY, document).output == expected

    def test_truncated_document_returns_error_frame(self, server):
        with _connect(server) as client:
            client.open(BIB_QUERY)
            client.send_chunk("<bib><book><title>unfinished")
            with pytest.raises(ServerError, match="XmlSyntaxError"):
                client.finish()

    def test_unparsable_query_rejected_at_open(self, server):
        with _connect(server) as client:
            with pytest.raises(ServerError, match="XQueryParseError"):
                client.open("for $x in return broken")
            # Still usable afterwards.
            assert client.stats()["sessions"]["opened"] >= 0

    def test_refused_descendant_chain_rejected_at_open(self, server):
        with _connect(server) as client:
            with pytest.raises(ServerError, match="NormalizationError"):
                client.open("<o>{ for $v in /r//a//b return $v }</o>")
            document = figure3c_document()
            expected = GCXEngine().query(BIB_QUERY, document).output
            assert client.run_query(BIB_QUERY, document).output == expected

    def test_deeply_nested_query_rejected_at_open(self, server, xmark_small, q1_expected):
        # past the parser's nesting cap: a typed refusal, and the same
        # connection goes on to serve the next query
        with _connect(server) as client:
            with pytest.raises(ServerError, match="XQueryParseError"):
                client.open("(" * 1000 + "/a" + ")" * 1000)
            with pytest.raises(ServerError, match="XQueryParseError"):
                client.open("<a>{" * 600 + "/a" + "}</a>" * 600)
            assert client.run_query(Q1, xmark_small).output == q1_expected

    def test_any_compile_failure_gets_error_frame(
        self, server, monkeypatch, xmark_small, q1_expected
    ):
        compile_query = GCXEngine.compile

        def failing(engine, text):
            if "boom" in text:
                raise RecursionError("maximum recursion depth exceeded")
            return compile_query(engine, text)

        monkeypatch.setattr(GCXEngine, "compile", failing)
        with _connect(server) as client:
            with pytest.raises(ServerError, match="RecursionError"):
                client.open("for $x in /boom return $x")
            assert client.run_query(Q1, xmark_small).output == q1_expected

    def test_invalid_utf8_open_payload_gets_error_frame(self, server):
        """Garbage bytes in OPEN must answer ERROR, not drop the link."""
        import socket

        from repro.server.protocol import (
            HEADER,
            FrameType,
            encode_frame,
            read_frame_blocking,
        )

        with socket.create_connection((server.host, server.port), timeout=30) as sock:
            sock.sendall(HEADER.pack(int(FrameType.OPEN), 2) + b"\xff\xfe")
            frame = read_frame_blocking(sock)
            assert frame is not None
            assert frame.type is FrameType.ERROR
            assert "UnicodeDecodeError" in frame.text
            # The connection survives: a valid OPEN still works.
            sock.sendall(encode_frame(FrameType.OPEN, "<r>{ for $x in /d return $x }</r>"))
            frame = read_frame_blocking(sock)
            assert frame is not None
            assert frame.type is FrameType.OPENED

    def test_chunk_before_open_is_a_protocol_error(self, server):
        with _connect(server) as client:
            client.send_chunk("<doc/>")
            with pytest.raises((ServerError, ConnectionError)):
                client.finish()

    def test_pipelined_frames_after_failed_open_are_drained(
        self, server, xmark_small, q1_expected
    ):
        """A pipelining client sends OPEN+CHUNK+FINISH before reading
        the ERROR; the server drains that query and serves the next."""
        import socket

        from repro.server.protocol import FrameType, encode_frame, read_frame_blocking

        with socket.create_connection((server.host, server.port), timeout=30) as sock:
            wire = (
                encode_frame(FrameType.OPEN, "for $x in return broken")
                + encode_frame(FrameType.CHUNK, "<doc>ignored")
                + encode_frame(FrameType.FINISH)
                + encode_frame(FrameType.OPEN, Q1)
            )
            for start in range(0, len(xmark_small), 8192):
                wire += encode_frame(
                    FrameType.CHUNK, xmark_small[start : start + 8192]
                )
            wire += encode_frame(FrameType.FINISH)
            sock.sendall(wire)
            frames = []
            while True:
                frame = read_frame_blocking(sock)
                assert frame is not None, "connection closed before FINISH"
                frames.append(frame)
                if frame.type is FrameType.FINISH:
                    break
        assert frames[0].type is FrameType.ERROR
        assert "XQueryParseError" in frames[0].text
        assert frames[1].type is FrameType.OPENED
        output = "".join(f.text for f in frames if f.type is FrameType.RESULT)
        assert output == q1_expected


class TestAdmissionControl:
    def test_busy_beyond_max_sessions_then_recovers(self, xmark_small, q1_expected):
        with ServerThread(max_sessions=1) as handle:
            holder = GCXClient(handle.host, handle.port)
            second = GCXClient(handle.host, handle.port)
            try:
                holder.open(Q1)  # occupies the single slot, never finishes yet
                with pytest.raises(ServerBusyError):
                    second.open(Q1)
                rejected = handle.server.metrics.snapshot()["sessions"]["rejected"]
                assert rejected == 1
                # Finish the holder; the slot frees up and the very
                # connection that got BUSY retries successfully.
                for start in range(0, len(xmark_small), 8192):
                    holder.send_chunk(xmark_small[start : start + 8192])
                assert holder.finish().output == q1_expected
                assert second.run_query(Q1, xmark_small).output == q1_expected
            finally:
                holder.close()
                second.close()

    def test_64_concurrent_sessions_byte_identical(self, xmark_small, q1_expected):
        """Acceptance: 64 concurrent sessions over one shared plan."""
        clients = 64
        barrier = threading.Barrier(clients)
        outputs: list[str | None] = [None] * clients
        errors: list[BaseException] = []

        def drive(index: int, host: str, port: int) -> None:
            try:
                with GCXClient(host, port, chunk_size=4096) as client:
                    barrier.wait(timeout=30)
                    outputs[index] = client.run_query(Q1, xmark_small).output
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        with ServerThread(max_sessions=clients) as handle:
            threads = [
                threading.Thread(target=drive, args=(i, handle.host, handle.port))
                for i in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            snapshot = handle.server.scheduler.snapshot()

        assert not errors
        assert all(output == q1_expected for output in outputs)
        # One shared plan: 64 sessions, exactly one analysis.
        assert snapshot["plan_cache"]["misses"] == 1
        assert snapshot["sessions"]["completed"] == clients
        assert snapshot["sessions"]["active"] == 0


class TestShutdown:
    def test_shutdown_with_idle_connected_client(self):
        """An idle connection must not hang shutdown (3.12.1+ changed
        Server.wait_closed to wait for connection handlers)."""
        handle = ServerThread(max_sessions=2).start()
        idle = GCXClient(handle.host, handle.port)
        try:
            handle.stop()
            assert not handle._thread.is_alive()
        finally:
            idle.close()

    def test_shutdown_with_open_session(self, xmark_small):
        """A half-fed session is aborted, not waited for."""
        handle = ServerThread(max_sessions=2).start()
        client = GCXClient(handle.host, handle.port)
        try:
            client.open(Q1)
            client.send_chunk(xmark_small[:1000])
            handle.stop()
            assert not handle._thread.is_alive()
        finally:
            client.close()

    def test_lazy_package_exports(self):
        import importlib
        import sys

        for name in ("repro.server", "repro.server.client", "repro.server.service"):
            sys.modules.pop(name, None)
        package = importlib.import_module("repro.server")
        # Importing the package alone must not load the service stack.
        assert "repro.server.service" not in sys.modules
        assert package.DEFAULT_PORT == 7733
        assert package.GCXServer is not None  # resolves on demand
        assert "repro.server.service" in sys.modules
        with pytest.raises(AttributeError):
            package.not_a_thing


class TestStats:
    def test_stats_snapshot_shape(self, server, xmark_small):
        with _connect(server) as client:
            client.run_query(Q1, xmark_small)
            snap = client.stats()
        assert snap["sessions"]["opened"] >= 1
        assert snap["sessions"]["active"] == 0
        assert snap["bytes"]["in"] >= len(xmark_small)
        assert snap["bytes"]["out"] > 0
        assert snap["peak_buffer_watermark"] >= 1
        assert snap["latency_ms"]["p50"] > 0
        assert snap["latency_ms"]["p99"] >= snap["latency_ms"]["p50"]
        assert 0.0 <= snap["plan_cache"]["hit_rate"] <= 1.0
        assert snap["uptime_s"] >= 0

    def test_bytes_metrics_count_wire_bytes(self):
        """Non-ASCII input: the registry counts UTF-8 bytes, not chars."""
        document = "<doc><a>héllo wörld ✓</a></doc>"
        query = "<r>{ for $x in /doc/a return $x }</r>"
        with ServerThread(max_sessions=2) as handle:
            with GCXClient(handle.host, handle.port, chunk_size=5) as client:
                outcome = client.run_query(query, document)
                snap = client.stats()
        assert snap["bytes"]["in"] == len(document.encode("utf-8"))
        assert snap["bytes"]["out"] == len(outcome.output.encode("utf-8"))
        assert snap["bytes"]["in"] > len(document)  # chars would under-count

    def test_failed_sessions_counted(self, xmark_small):
        with ServerThread(max_sessions=4) as handle:
            with GCXClient(handle.host, handle.port) as client:
                with pytest.raises(ServerError):
                    client.run_query(BIB_QUERY, "<bib><oops></bib>")
                snap = client.stats()
        assert snap["sessions"]["failed"] == 1
        assert snap["sessions"]["active"] == 0


class TestStreamingResults:
    """RESULT frames flow while the client is still sending CHUNKs
    (DESIGN.md §10's emission contract, end to end over TCP)."""

    def test_first_result_frame_before_finish(self, xmark_small, q1_expected):
        chunks = [
            xmark_small[i : i + 2048]
            for i in range(0, len(xmark_small), 2048)
        ]
        assert len(chunks) > 4
        with ServerThread(max_sessions=2) as handle:
            with GCXClient(handle.host, handle.port) as client:
                client.open(Q1)
                # feed most of the document, then demand a RESULT frame
                # while FINISH has not been sent
                for chunk in chunks[:-1]:
                    client.send_chunk(chunk)
                early = client.recv_result()
                assert early, "no streamed RESULT before FINISH"
                client.send_chunk(chunks[-1])
                outcome = client.finish()
        assert early + outcome.output == q1_expected

    def test_streamed_and_buffered_results_concatenate(
        self, server, xmark_small, q1_expected
    ):
        """Early reads plus finish() reassemble the exact output."""
        chunks = [
            xmark_small[i : i + 4096]
            for i in range(0, len(xmark_small), 4096)
        ]
        with _connect(server) as client:
            client.open(Q1)
            parts = []
            for index, chunk in enumerate(chunks):
                client.send_chunk(chunk)
                if index == len(chunks) // 2:
                    parts.append(client.recv_result())
            outcome = client.finish()
        assert "".join(parts) + outcome.output == q1_expected

    def test_error_after_streamed_results_keeps_connection_usable(
        self, server, xmark_small, q1_expected
    ):
        """Malformed input mid-stream: the ERROR frame ends the query
        cleanly even though RESULT frames were already on the wire,
        and the connection still serves the next query."""
        with _connect(server) as client:
            client.open(Q1)
            client.send_chunk("<site><people><oops>")
            with pytest.raises(ServerError):
                client.send_chunk("</people></site>")
                client.finish()
            outcome = client.run_query(Q1, xmark_small)
        assert outcome.output == q1_expected


    def test_pipelined_large_early_output_does_not_deadlock(self):
        """run_query pipelines the whole document while the server
        streams a result about as large as the input: the client's
        duplex send loop must keep draining RESULT frames or the
        socket buffers wedge both sides (regression for the streamed-
        results change)."""
        body = "".join(f"<b>payload-{i:06d}</b>" for i in range(60_000))
        document = f"<a>{body}</a>"  # ~1 MB in, ~1 MB out
        query = "for $b in /a/b return $b"
        expected = GCXEngine(record_series=False).query(query, document).output
        with ServerThread(max_sessions=2) as handle:
            with GCXClient(handle.host, handle.port, timeout=30) as client:
                outcome = client.run_query(query, document)
        assert outcome.output == expected

    def test_recv_result_timeout_when_no_output_yet(self, xmark_small):
        """A query that produces nothing before FINISH must not hang an
        interleaved early read: recv_result(timeout=...) returns None."""
        query = 'for $b in /site/people/person return if ($b/@id = "no-such") then $b else ()'
        with ServerThread(max_sessions=2) as handle:
            with GCXClient(handle.host, handle.port) as client:
                client.open(query)
                client.send_chunk(xmark_small[:2000])
                assert client.recv_result(timeout=0.3) is None
                client.send_chunk(xmark_small[2000:])
                outcome = client.finish()
        assert outcome.output == ""


class TestTimeToFirstResult:
    def test_stats_report_ttfr(self, xmark_small):
        with ServerThread(max_sessions=2) as handle:
            with GCXClient(handle.host, handle.port) as client:
                client.run_query(Q1, xmark_small)
                snap = client.stats()
        ttfr = snap["ttfr_ms"]
        assert ttfr["count"] == 1
        assert ttfr["p50"] > 0
        assert ttfr["p99"] >= ttfr["p50"]
        # the first fragment exists no later than the whole session
        assert ttfr["p99"] <= snap["latency_ms"]["p99"] + 1e-6

    def test_stats_report_program_footprint(self, server, xmark_small):
        with _connect(server) as client:
            client.run_query(Q1, xmark_small)
            snap = client.stats()
        programs = snap["programs"]
        assert programs["plans"] >= 1
        assert programs["ops"] > 0
        assert programs["fallbacks"] == 0
