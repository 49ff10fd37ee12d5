"""Checkpoint/resume over the wire protocol (DESIGN.md §16).

Every test runs a real :class:`ServerThread` and drives the new
CHECKPOINT / SNAPSHOT / RESUME frames through :class:`GCXClient`: a
session checkpointed mid-stream finishes byte-identically; its blob
resumes on a *different* server (fresh process state) and the stitched
output equals the unbroken run; the resilient client survives a
connection severed mid-RESULT-frame by the fault injector; and the
server refuses garbage, stale, and non-checkpointable requests with
ERROR frames rather than dying.
"""

from __future__ import annotations

import pytest

from repro.core.engine import GCXEngine
from repro.core.snapshot import FORMAT_VERSION
from repro.server.client import GCXClient, ServerError
from repro.server.service import ServerThread
from repro.testing.faults import FaultPlan
from repro.xmark.generator import generate_document
from repro.xmark.queries import ADAPTED_QUERIES

QUERY = ADAPTED_QUERIES["q1"].text

_DOC_CACHE: dict = {}


def _module_doc() -> str:
    if "doc" not in _DOC_CACHE:
        _DOC_CACHE["doc"] = generate_document(scale=0.5, seed=7)
    return _DOC_CACHE["doc"]


@pytest.fixture(scope="module")
def doc():
    return _module_doc()


@pytest.fixture(scope="module")
def expected(doc):
    return GCXEngine(record_series=False).query(QUERY, doc).output


def _send_range(client, data: bytes, start: int, stop: int, step: int = 4096):
    for i in range(start, stop, step):
        client.send_chunk(data[i : min(i + step, stop)])


class TestCheckpointFrame:
    def test_checkpoint_then_finish_byte_identical(self, doc, expected):
        data = doc.encode()
        with ServerThread(max_sessions=4) as handle:
            client = GCXClient(handle.host, handle.port)
            client.open(QUERY, checkpointable=True)
            half = len(data) // 2
            _send_range(client, data, 0, half)
            in_off, out_off, blob = client.checkpoint()
            assert in_off == half
            assert blob and client.last_snapshot == (in_off, out_off, blob)
            _send_range(client, data, half, len(data))
            outcome = client.finish()
            client.close()
        # results read before the SNAPSHOT are re-queued in order, so
        # finish() still assembles the complete output
        assert outcome.output == expected

    def test_checkpoint_counts_in_metrics(self, doc, expected):
        data = doc.encode()
        with ServerThread(max_sessions=4) as handle:
            client = GCXClient(handle.host, handle.port)
            client.open(QUERY, checkpointable=True)
            _send_range(client, data, 0, len(data) // 2)
            client.checkpoint()
            _send_range(client, data, len(data) // 2, len(data))
            assert client.finish().output == expected
            stats = client.stats()
            client.close()
        checkpoints = stats["checkpoints"]
        assert checkpoints["taken"] == 1
        assert checkpoints["sessions_resumed"] == 0
        assert checkpoints["snapshot_bytes"]["count"] == 1
        assert checkpoints["snapshot_bytes"]["p99"] == len(
            client.last_snapshot[2]
        )

    def test_checkpoint_without_session_arms_next_open(self, doc, expected):
        # CHECKPOINT before OPEN = "make the next session checkpointable"
        with ServerThread(max_sessions=4) as handle:
            client = GCXClient(handle.host, handle.port)
            client.open(QUERY, checkpointable=True)  # sends the arming frame
            client.send_chunk(doc.encode()[: len(doc) // 2])
            in_off, _out, blob = client.checkpoint()
            assert in_off > 0 and blob
            client.close()

    def test_checkpoint_non_checkpointable_session_is_error(self, doc):
        with ServerThread(max_sessions=4) as handle:
            client = GCXClient(handle.host, handle.port)
            client.open(QUERY)  # not armed
            client.send_chunk(doc[:4096])
            with pytest.raises(ServerError, match="checkpointable"):
                client.checkpoint()
            client.close()


class TestResumeFrame:
    def _blob_after_half(self, handle, data) -> tuple[int, int, bytes]:
        client = GCXClient(handle.host, handle.port)
        client.open(QUERY, checkpointable=True)
        _send_range(client, data, 0, len(data) // 2)
        snap = client.checkpoint()
        client.close()  # abandon the original session mid-stream
        return snap

    def test_resume_on_fresh_server_stitches_byte_identical(
        self, doc, expected
    ):
        data = doc.encode()
        with ServerThread(max_sessions=4) as first:
            in_off, out_off, blob = self._blob_after_half(first, data)
        # the first server is *gone*; a brand-new one (fresh engine,
        # fresh plan cache) restores the blob and continues
        with ServerThread(max_sessions=4) as second:
            client = GCXClient(second.host, second.port)
            client.resume(blob)
            _send_range(client, data, in_off, len(data))
            outcome = client.finish()
            stats = client.stats()
            client.close()
        expected_bytes = expected.encode()
        assert outcome.output.encode() == expected_bytes[out_off:]
        assert stats["checkpoints"]["sessions_resumed"] == 1

    def test_checkpoint_after_resume_reports_session_absolute_offsets(self):
        # crash -> resume -> checkpoint -> crash again: the second
        # snapshot's output offset must be cumulative over the whole
        # session, not relative to the resumed connection, or the
        # client's rollback stitches the wrong byte range.
        query = "for $b in /a/b return $b"
        body = "".join(f"<b>{'y' * 80}-{i}</b>" for i in range(400))
        data = f"<a>{body}</a>".encode()
        expected = (
            GCXEngine(record_series=False)
            .query(query, data.decode())
            .output.encode()
        )
        third = len(data) // 3
        with ServerThread(max_sessions=4) as first:
            client = GCXClient(first.host, first.port)
            client.open(query, checkpointable=True)
            _send_range(client, data, 0, third)
            in1, out1, blob1 = client.checkpoint()
            client.close()  # first failure
        with ServerThread(max_sessions=4) as second:
            client = GCXClient(second.host, second.port)
            client.resume(blob1)
            _send_range(client, data, in1, 2 * third)
            in2, out2, blob2 = client.checkpoint()
            client.close()  # second failure
        assert in2 == 2 * third
        assert out1 > 0 and out2 > out1  # cumulative, not per-connection
        with ServerThread(max_sessions=4) as last:
            client = GCXClient(last.host, last.port)
            client.resume(blob2)
            _send_range(client, data, in2, len(data))
            outcome = client.finish()
            client.close()
        assert outcome.output.encode() == expected[out2:]

    def test_resume_garbage_blob_is_error(self):
        with ServerThread(max_sessions=4) as handle:
            client = GCXClient(handle.host, handle.port)
            with pytest.raises(ServerError):
                client.resume(b"not a snapshot at all")
            # the connection survives the refusal: a normal query works
            outcome = client.run_query(QUERY, _module_doc())
            assert outcome.output  # compiled and ran fine
            client.close()

    def test_resume_stale_version_blob_is_error(self, doc):
        data = doc.encode()
        with ServerThread(max_sessions=4) as handle:
            blob = self._blob_after_half(handle, data)[2]
            stale = blob[:4] + (FORMAT_VERSION + 1).to_bytes(2, "big") + blob[6:]
            client = GCXClient(handle.host, handle.port)
            with pytest.raises(ServerError, match="not supported"):
                client.resume(stale)
            client.close()


    @pytest.mark.parametrize("pc", [10**6, 3])
    def test_resume_blob_with_a_forged_pc_is_error(self, doc, pc):
        from test_checkpoint import forged_blob

        blob = forged_blob(GCXEngine(), doc.encode(), lambda s: {**s, "pc": pc})
        with ServerThread(max_sessions=4) as handle:
            client = GCXClient(handle.host, handle.port)
            with pytest.raises(ServerError, match="pc"):
                client.resume(blob)
            # the connection survives the refusal: a normal query works
            outcome = client.run_query(QUERY, doc)
            assert outcome.output
            client.close()


class TestServerInterval:
    def test_server_cadence_emits_unsolicited_snapshots(self, doc, expected):
        data = doc.encode()
        with ServerThread(max_sessions=4, checkpoint_interval=16384) as handle:
            client = GCXClient(handle.host, handle.port, chunk_size=4096)
            # plain open(): the server's own interval arms the session
            outcome = client.run_query(QUERY, data)
            stats = client.stats()
            client.close()
        assert outcome.output == expected
        assert stats["checkpoints"]["taken"] >= len(data) // 16384 - 1
        # the client recorded the unsolicited SNAPSHOT frames in passing
        assert client.last_snapshot is not None
        in_off, out_off, blob = client.last_snapshot
        assert 0 < in_off <= len(data) and blob

    def test_resilient_run_with_server_cadence_only(self, doc, expected):
        data = doc.encode()
        with ServerThread(max_sessions=4, checkpoint_interval=16384) as handle:
            client = GCXClient(handle.host, handle.port, chunk_size=4096)
            outcome = client.run_query_resilient(
                QUERY, data, checkpoint_interval=None
            )
            client.close()
        assert outcome.output == expected


class TestFaultInjection:
    def test_truncated_result_frame_resumes_byte_identical(self):
        # the injector severs the connection mid-RESULT-frame; the
        # resilient client reconnects (same server), RESUMEs from its
        # last snapshot, rolls back, and still matches byte for byte.
        # An identity-shaped query keeps output tracking input, so the
        # cut lands well after the first checkpoint's output offset.
        query = "for $b in /a/b return $b"
        body = "".join(f"<b>{'x' * 100}-{i}</b>" for i in range(300))
        document = f"<a>{body}</a>"
        expected = GCXEngine(record_series=False).query(query, document).output
        plan = FaultPlan.parse("seed=3,truncate_result_at=6000")
        with ServerThread(max_sessions=4, fault_plan=plan) as handle:
            client = GCXClient(handle.host, handle.port, chunk_size=2048)
            outcome = client.run_query_resilient(
                query, document, checkpoint_interval=4096, resume_retries=5
            )
            stats = client.stats()
            client.close()
        assert outcome.output == expected
        assert stats["checkpoints"]["sessions_resumed"] >= 1

    def test_two_crashes_with_checkpoint_between_resume_byte_identical(self):
        # the injector severs the connection twice (re-armed
        # truncation); the client checkpoints between the failures, so
        # the second rollback exercises a snapshot taken *after* a
        # resume — its offsets must be session-absolute.
        query = "for $b in /a/b return $b"
        body = "".join(f"<b>{'x' * 100}-{i}</b>" for i in range(300))
        document = f"<a>{body}</a>"
        expected = GCXEngine(record_series=False).query(query, document).output
        plan = FaultPlan.parse(
            "seed=3,truncate_result_at=6000,truncate_result_times=2"
        )
        with ServerThread(max_sessions=4, fault_plan=plan) as handle:
            client = GCXClient(handle.host, handle.port, chunk_size=2048)
            outcome = client.run_query_resilient(
                query, document, checkpoint_interval=4096, resume_retries=5
            )
            stats = client.stats()
            client.close()
        assert outcome.output == expected
        assert stats["checkpoints"]["sessions_resumed"] >= 2

    def test_injected_feed_failure_propagates_as_error(self, doc):
        plan = FaultPlan.parse("seed=3,fail_feed_at=8192")
        with ServerThread(max_sessions=4, fault_plan=plan) as handle:
            client = GCXClient(handle.host, handle.port, chunk_size=4096)
            with pytest.raises(ServerError, match="injected feed failure"):
                client.run_query(QUERY, doc)
            client.close()

    def test_fault_plan_spec_roundtrip(self):
        plan = FaultPlan.parse("seed=9,kill_at=1000,delay_result_every=2")
        assert plan.seed == 9 and plan.kill_at == 1000
        again = FaultPlan.parse(plan.describe())
        assert again.kill_at == plan.kill_at
        assert again.delay_result_every == plan.delay_result_every
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultPlan.parse("seed=1,explode_at=5")
        with pytest.raises(ValueError, match="not key=value"):
            FaultPlan.parse("just-a-word")

    def test_result_actions_are_deterministic(self):
        plan = FaultPlan.parse(
            "seed=1,delay_result_every=2,delay_result_s=0.5,"
            "duplicate_result_every=3,truncate_result_at=150"
        )
        actions = [plan.on_result(100) for _ in range(4)]
        assert actions[0].delay_s == 0.0 and not actions[0].duplicate
        assert actions[1].delay_s == 0.5
        assert actions[1].truncate_to == 50  # 150 - 100 already sent
        assert actions[2].duplicate
        # truncation fires once
        assert all(a.truncate_to is None for a in actions[2:])
