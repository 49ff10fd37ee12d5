"""Durable session snapshots (DESIGN.md §16): the versioned codec and
the StreamSession freeze/snapshot/restore lifecycle.

The contract under test: a checkpointable session can be serialized at
any quiescent point into a self-contained, versioned blob; restoring
that blob — in this process or a fresh one — yields a session that
continues **byte-identically** (output, watermark, per-token series).
Stale or foreign blobs are *refused*, never misread: a bumped format
version, corrupted magic, truncated payload, or mismatched plan each
raise a distinct, typed error before any engine state is touched.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import tempfile
import time

import pytest

from repro.core.engine import GCXEngine
from repro.core.program import CompiledEvaluator
from repro.core.projector import CompiledStreamProjector, FusedStreamProjector
from repro.core.session import SessionStateError, StreamSession
from repro.core.snapshot import (
    FORMAT_VERSION,
    MAGIC,
    BlobReader,
    BlobWriter,
    SnapshotFormatError,
    SnapshotPlanMismatch,
    peek_plan_text,
    read_header,
)
from repro.xmark.queries import ADAPTED_QUERIES

QUERY = ADAPTED_QUERIES["q1"].text
OTHER_QUERY = ADAPTED_QUERIES["q8"].text


@pytest.fixture(scope="module")
def doc(xmark_small):
    return xmark_small


@pytest.fixture(scope="module")
def gcx():
    # module-scoped engine so the plan cache is shared across tests
    # (the conftest ``gcx`` is function-scoped)
    return GCXEngine()


@pytest.fixture(scope="module")
def reference(gcx, doc):
    return gcx.run(gcx.compile(QUERY), doc)


def _feed_range(session, data: bytes, start: int, stop: int, step: int = 4096):
    for i in range(start, stop, step):
        session.feed(data[i : min(i + step, stop)])


# ---------------------------------------------------------------------------
# happy path: snapshot mid-stream, continue / restore, byte-identical
# ---------------------------------------------------------------------------


class TestSnapshotLifecycle:
    def test_snapshot_then_continue_is_byte_identical(self, gcx, doc, reference):
        data = doc.encode()
        session = gcx.session(QUERY, checkpointable=True)
        half = len(data) // 2
        _feed_range(session, data, 0, half)
        blob = session.snapshot()  # freezes, encodes, thaws
        assert isinstance(blob, bytes) and blob.startswith(MAGIC)
        _feed_range(session, data, half, len(data))
        result = session.finish()
        assert result.output == reference.output
        assert result.stats.watermark == reference.stats.watermark
        assert result.stats.series == reference.stats.series

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.5, 0.9])
    def test_restore_in_fresh_session(self, gcx, doc, reference, fraction):
        data = doc.encode()
        split = int(len(data) * fraction)
        session = gcx.session(QUERY, checkpointable=True)
        _feed_range(session, data, 0, split)
        blob = session.snapshot()
        session.abort()  # the original is dead; only the blob survives

        restored = gcx.restore_session(blob)
        assert restored.bytes_fed == split
        _feed_range(restored, data, split, len(data))
        result = restored.finish()
        assert result.output == reference.output
        assert result.stats.watermark == reference.stats.watermark
        assert result.stats.series == reference.stats.series

    def test_repeated_checkpoints_along_one_stream(self, gcx, doc, reference):
        data = doc.encode()
        session = gcx.session(QUERY, checkpointable=True)
        step = max(1, len(data) // 5)
        blobs = []
        for i in range(0, len(data), step):
            session.feed(data[i : i + step])
            blobs.append(session.snapshot())
        assert session.finish().output == reference.output
        # every blob is independently restorable and self-describing
        for blob in blobs:
            assert peek_plan_text(blob) == gcx.compile(QUERY).canonical_text()

    def test_restore_from_intermediate_checkpoint(self, gcx, doc, reference):
        # checkpoint at every chunk boundary, then resume from one in
        # the middle — later checkpoints do not invalidate earlier ones
        data = doc.encode()
        session = gcx.session(QUERY, checkpointable=True)
        step = max(1, len(data) // 4)
        blobs = []
        fed = []
        for i in range(0, len(data), step):
            session.feed(data[i : i + step])
            fed.append(min(i + step, len(data)))
            blobs.append(session.snapshot())
        session.abort()

        blob, offset = blobs[1], fed[1]
        restored = gcx.restore_session(blob)
        assert restored.bytes_fed == offset
        _feed_range(restored, data, offset, len(data))
        assert restored.finish().output == reference.output

    def test_binary_output_session_roundtrip(self, gcx, doc, reference):
        # the server path: binary_output sessions snapshot/restore too,
        # and undrained output is carried inside the blob
        data = doc.encode()
        session = gcx.session(
            QUERY, checkpointable=True, binary_output=True, max_pending_output=None
        )
        half = len(data) // 2
        _feed_range(session, data, 0, half)
        blob = session.snapshot()
        session.abort()
        restored = gcx.restore_session(blob)
        _feed_range(restored, data, half, len(data))
        assert restored.finish().output == reference.output

    def test_restore_carries_delivered_output_offset(self, gcx, doc, reference):
        # the drained-prefix position is part of the snapshot: a session
        # restored from the blob reports the session-absolute delivered
        # offset, not zero — what keeps post-resume checkpoints exact
        data = doc.encode()
        session = gcx.session(QUERY, checkpointable=True, binary_output=True)
        _feed_range(session, data, 0, len(data) // 2)
        early = session.drain_output()
        blob = session.snapshot()
        assert session.delivered_output == len(early)
        session.abort()
        restored = gcx.restore_session(blob)
        assert restored.delivered_output == len(early)
        _feed_range(restored, data, len(data) // 2, len(data))
        result = restored.finish()
        assert early.decode() + result.output == reference.output


# ---------------------------------------------------------------------------
# the codec's primitives
# ---------------------------------------------------------------------------


class TestCodecPrimitives:
    @pytest.mark.parametrize(
        "value",
        [0, 1, -1, 2**63 - 1, -(2**63), 2**63, 2**200 + 17, -(2**200) - 17],
    )
    def test_svarint_roundtrip_is_unbounded(self, value):
        # slot values are Python ints (e.g. large aggregate sums), so
        # the zigzag must not assume a 64-bit domain
        w = BlobWriter()
        w.svarint(value)
        assert BlobReader(w.getvalue()).svarint() == value

    def test_runaway_varint_still_refused(self):
        # endless continuation bytes in a corrupt blob must fail loudly
        # rather than materialize an absurd integer
        with pytest.raises(SnapshotFormatError, match="overflow"):
            BlobReader(b"\xff" * 4096).varint()

    def test_bool_roundtrip(self):
        w = BlobWriter()
        w.bool_(True)
        w.bool_(False)
        r = BlobReader(w.getvalue())
        assert r.bool_() is True and r.bool_() is False

    @pytest.mark.parametrize("corrupt", [b"\x02", b"\x80", b"\xff"])
    def test_corrupt_bool_byte_refused(self, corrupt):
        # a bit-flipped flag must not silently decode as False
        with pytest.raises(SnapshotFormatError, match="bool"):
            BlobReader(corrupt).bool_()


# ---------------------------------------------------------------------------
# freeze/thaw mechanics
# ---------------------------------------------------------------------------


class TestFreezeThaw:
    def test_freeze_parks_and_thaw_resumes(self, gcx, doc, reference):
        data = doc.encode()
        session = gcx.session(QUERY, checkpointable=True)
        _feed_range(session, data, 0, len(data) // 3)
        session.freeze()
        assert session.frozen
        session.freeze()  # idempotent while frozen
        session.thaw()
        assert not session.frozen
        _feed_range(session, data, len(data) // 3, len(data))
        assert session.finish().output == reference.output

    def test_thaw_requires_frozen(self, gcx):
        session = gcx.session(QUERY, checkpointable=True)
        with pytest.raises(SessionStateError):
            session.thaw()
        session.abort()

    def test_freeze_after_finish_refused(self, gcx, doc):
        session = gcx.session(QUERY, checkpointable=True)
        session.feed(doc)
        session.finish()
        with pytest.raises(SessionStateError, match="finished"):
            session.freeze()

    def test_non_checkpointable_session_refuses_freeze(self, gcx, doc):
        session = gcx.session(QUERY)
        session.feed(doc[:1000])
        with pytest.raises(SessionStateError, match="checkpointable"):
            session.freeze()
        with pytest.raises(SessionStateError, match="checkpointable"):
            session.snapshot()
        session.abort()

    def test_checkpointable_requires_compiled_tiers(self, doc):
        # the interpreted projector/evaluator tiers carry closures the
        # codec cannot represent; asking for a checkpointable session
        # on them must fail fast at open time
        for engine in (GCXEngine(compiled=False), GCXEngine(compiled_eval=False)):
            with pytest.raises(SessionStateError):
                engine.session(QUERY, checkpointable=True)

    def test_checkpointable_runs_fused_projector(self, gcx, doc, reference):
        # every tier is freeze-safe: durable, streaming and restored
        # sessions run one pipeline
        session = gcx.session(QUERY, checkpointable=True)
        assert type(session._projector) is FusedStreamProjector
        assert type(session._evaluator) is CompiledEvaluator
        streaming = gcx.session(QUERY)
        assert type(streaming._projector) is FusedStreamProjector
        assert type(streaming._evaluator) is CompiledEvaluator
        streaming.abort()
        data = doc.encode()
        _feed_range(session, data, 0, len(data) // 2)
        restored = gcx.restore_session(session.snapshot())
        session.abort()
        assert type(restored._projector) is FusedStreamProjector
        assert type(restored._evaluator) is CompiledEvaluator
        _feed_range(restored, data, len(data) // 2, len(data))
        assert restored.finish().output == reference.output


# ---------------------------------------------------------------------------
# freeze differential: the fused projector tier
# ---------------------------------------------------------------------------


def _fingerprint(result):
    s = result.stats
    return (
        result.output,
        s.watermark,
        s.series,
        s.tokens,
        s.subtrees_skipped,
        s.roles_assigned,
        s.roles_removed,
        s.nodes_buffered,
        s.nodes_purged,
    )


def _chunks(data: bytes, count: int) -> list[bytes]:
    step = max(1, -(-len(data) // count))
    return [data[i : i + step] for i in range(0, len(data), step)]


def _restore_at_every_boundary(freezer, restorer, query, chunks):
    """Snapshot → restore → finish at every chunk boundary; returns the
    fingerprints plus, per freeze that parked a subtree skip, whether
    the skip spanned several open levels and whether it closes a
    buffered node."""
    prints = []
    parks = []
    for cut in range(len(chunks) + 1):
        session = freezer.session(query, checkpointable=True)
        for chunk in chunks[:cut]:
            session.feed(chunk)
        try:
            session.freeze()
        except SessionStateError:  # all input consumed: nothing to park
            prints.append(_fingerprint(session.finish()))
            continue
        lexer = session._lexer
        pending = session._projector._pending_skip
        if pending is not None:
            parks.append((
                lexer._skip_parked[0] < len(lexer._open_tags) - 1,
                pending[0] is not None,
            ))
        blob = session.snapshot()  # frozen: encodes in place
        session.abort()
        restored = restorer.restore_session(blob)
        for chunk in chunks[cut:]:
            restored.feed(chunk)
        prints.append(_fingerprint(restored.finish()))
    return prints, parks


#: q1 (certified alphabet) over a document whose ``<name>`` children of
#: ``<site>`` are live-alphabet starts the DFA sends dead with in-
#: alphabet descendants queued behind them — the drain skip that
#: finishes several open levels with one lexer call.
_DRAIN_DOC = (
    b"<site><people>"
    + b"".join(
        b'<person id="person%d"><name>P%d</name></person>' % (i, i)
        for i in range(3)
    )
    + b"</people>"
    + b"".join(
        b"<name><people><person><name>d%d</name><person><name>e</name>"
        b"</person></person><junk>j</junk></people><site/></name>" % i
        for i in range(6)
    )
    + b'<people><person id="person0"><name>late</name></person></people>'
    + b"</site>"
)

#: q20 reads ``$p/profile/@income``: ``<profile>`` is buffered for its
#: role while every child is dead, so its drain skip closes a node.
_PROFILE_DOC = (
    b"<site><people>"
    + b"".join(
        b'<person id="person%d"><name>P%d</name><profile income="%d">'
        b'<interest category="c"><deep><deeper/></deep></interest>'
        b"<education>Graduate</education><age>3%d</age></profile></person>"
        % (i, i, 20000 * i, i)
        for i in range(8)
    )
    + b"</people></site>"
)


class _TablesEngine(GCXEngine):
    """Compiles plans without a lexer kernel: the DFA-tables side of
    the fused/tables blob crossing."""

    def _compile(self, query_text, context=None):
        plan = super()._compile(query_text, context)
        return dataclasses.replace(plan, lexer_kernel=None)


class TestFusedFreezeDifferential:
    # q1 is certified; q6, q13 and q20 are not, and q20's <profile>
    # is a buffered start (it carries the @income role) whose children
    # are all dead — a drain skip that must close its node
    @pytest.mark.parametrize("key", ["q1", "q6", "q13", "q20"])
    def test_every_chunk_boundary_is_byte_identical(self, gcx, doc, key):
        query = ADAPTED_QUERIES[key].text
        chunks = _chunks(doc.encode(), 24)
        plan = gcx.compile(query)
        assert plan.lexer_kernel.certified == (key == "q1")
        expected = _fingerprint(gcx.run(plan, doc.encode()))
        prints, _ = _restore_at_every_boundary(gcx, gcx, query, chunks)
        for cut, got in enumerate(prints):
            assert got == expected, (key, cut)

    @pytest.mark.parametrize(
        "key, document", [("q1", _DRAIN_DOC), ("q20", _PROFILE_DOC)]
    )
    def test_freeze_inside_the_in_queue_drain_skip(self, gcx, key, document):
        # small chunks put boundaries inside every dead subtree
        query = ADAPTED_QUERIES[key].text
        chunks = _chunks(document, len(document) // 9)
        expected = _fingerprint(gcx.run(gcx.compile(query), document))
        prints, parks = _restore_at_every_boundary(gcx, gcx, query, chunks)
        assert (True, key == "q20") in parks
        for cut, got in enumerate(prints):
            assert got == expected, cut

    @pytest.mark.parametrize("direction", ["fused_to_tables", "tables_to_fused"])
    def test_blobs_cross_between_tiers(self, gcx, direction):
        tables = _TablesEngine()
        freezer, restorer = (
            (gcx, tables) if direction == "fused_to_tables" else (tables, gcx)
        )
        assert type(
            freezer.session(QUERY, checkpointable=True)._projector
        ) is (FusedStreamProjector if freezer is gcx else CompiledStreamProjector)
        chunks = _chunks(_DRAIN_DOC, len(_DRAIN_DOC) // 13)
        expected = _fingerprint(gcx.run(gcx.compile(QUERY), _DRAIN_DOC))
        prints, parks = _restore_at_every_boundary(
            freezer, restorer, QUERY, chunks
        )
        assert parks
        for cut, got in enumerate(prints):
            assert got == expected, cut

    def test_snapshot_refused_while_events_are_queued(self, gcx):
        from repro.core.buffer import Buffer
        from repro.xmlio.lexer_bytes import ByteXmlLexer

        plan = gcx.compile(QUERY)
        buffer = Buffer()
        projector = FusedStreamProjector(
            plan.lexer_kernel, ByteXmlLexer(_DRAIN_DOC), buffer
        )
        projector.advance()  # one event dispatched, the batch queued
        with pytest.raises(SessionStateError, match="queued"):
            projector.snapshot_state()
        projector.run_to_end()
        assert projector.snapshot_state()["exhausted"]

    def test_snapshot_refused_while_an_error_is_pending(self, gcx):
        from repro.core.buffer import Buffer
        from repro.xmlio.errors import XmlSyntaxError
        from repro.xmlio.lexer_bytes import ByteXmlLexer

        plan = gcx.compile(QUERY)
        lexer = ByteXmlLexer(
            b'<site><people><person id="p"><name>x</name></oops>'
        )
        projector = FusedStreamProjector(plan.lexer_kernel, lexer, Buffer())
        for _ in range(6):  # the six events queued ahead of the error
            assert projector.advance()
        with pytest.raises(SessionStateError, match="pending error"):
            projector.snapshot_state()
        with pytest.raises(XmlSyntaxError):
            projector.advance()


# ---------------------------------------------------------------------------
# refusals: stale versions and foreign blobs are rejected, not misread
# ---------------------------------------------------------------------------


def forged_blob(engine, data: bytes, forge) -> bytes:
    """A q1 snapshot taken once the session has consumed the first half
    of *data*, its evaluator state rewritten by *forge* — what a
    tampered RESUME blob carries."""
    session = engine.session(QUERY, checkpointable=True)
    _feed_range(session, data, 0, len(data) // 2)
    deadline = time.monotonic() + 10
    while session._channel.backlog() and time.monotonic() < deadline:
        time.sleep(0.001)  # let the worker consume what was fed
    evaluator = session._evaluator
    real = evaluator.snapshot_state
    evaluator.snapshot_state = lambda: forge(real())
    blob = session.snapshot()
    session.abort()
    return blob


class TestRefusals:
    @pytest.fixture()
    def blob(self, gcx, doc):
        data = doc.encode()
        session = gcx.session(QUERY, checkpointable=True)
        _feed_range(session, data, 0, len(data) // 2)
        blob = session.snapshot()
        session.abort()
        return blob

    def test_header_roundtrip(self, blob, gcx):
        _reader, plan_text, digest = read_header(blob)
        assert plan_text == gcx.compile(QUERY).canonical_text()
        assert digest
        assert peek_plan_text(blob) == plan_text

    def test_stale_format_version_refused(self, blob, gcx):
        stale = (
            blob[:4]
            + (FORMAT_VERSION + 1).to_bytes(2, "big")
            + blob[6:]
        )
        with pytest.raises(SnapshotFormatError, match="not supported"):
            gcx.restore_session(stale)

    def test_bad_magic_refused(self, blob, gcx):
        with pytest.raises(SnapshotFormatError):
            gcx.restore_session(b"XXXX" + blob[4:])

    @pytest.mark.parametrize("keep", [0, 3, 6, 40])
    def test_truncated_blob_refused(self, blob, gcx, keep):
        with pytest.raises(SnapshotFormatError):
            gcx.restore_session(blob[:keep])

    def test_wrong_plan_refused(self, blob, gcx):
        other = gcx.compile(OTHER_QUERY)
        with pytest.raises(SnapshotPlanMismatch):
            StreamSession.restore(other, blob)

    @pytest.mark.parametrize(
        "forge, match",
        [
            (lambda s: {**s, "pc": 10**6}, "outside the program"),
            (lambda s: {**s, "pc": 3}, "do not match the loops"),
            # q1's program has 19 ops: pc 19 is "finished", no frames
            (lambda s: {**s, "pc": 19}, "do not match the loops"),
            (lambda s: {**s, "frames": []}, "do not match the loops"),
            (
                lambda s: {
                    **s,
                    "pc": 3,
                    "frames": s["frames"][:1],
                    "slots": [None] * len(s["slots"]),
                },
                "variable unbound",
            ),
        ],
        ids=[
            "pc-past-end",
            "pc-outer-loop",
            "pc-finished",
            "frames-dropped",
            "loop-variable-unbound",
        ],
    )
    def test_evaluator_state_that_does_not_fit_the_program_refused(
        self, gcx, doc, forge, match
    ):
        blob = forged_blob(gcx, doc.encode(), forge)
        with pytest.raises(SnapshotFormatError, match=match):
            gcx.restore_session(blob)

    def test_snapshot_errors_are_value_errors(self, blob, gcx):
        # the server maps ValueError to a QUERY ERROR frame; every
        # refusal must be caught by that net, not crash the worker
        assert issubclass(SnapshotFormatError, ValueError)
        assert issubclass(SnapshotPlanMismatch, ValueError)


# ---------------------------------------------------------------------------
# cross-process restore: the blob is the whole truth
# ---------------------------------------------------------------------------


_RESTORE_SCRIPT = """\
import sys

from repro.core.engine import GCXEngine

blob_path, data_path, offset = sys.argv[1], sys.argv[2], int(sys.argv[3])
with open(blob_path, "rb") as fh:
    blob = fh.read()
with open(data_path, "rb") as fh:
    data = fh.read()
engine = GCXEngine()
session = engine.restore_session(blob)
assert session.bytes_fed == offset, (session.bytes_fed, offset)
for i in range(offset, len(data), 4096):
    session.feed(data[i : i + 4096])
result = session.finish()
sys.stdout.write(result.output)
"""


def test_restore_in_fresh_process(gcx, doc, reference, tmp_path):
    data = doc.encode()
    split = len(data) // 2
    session = gcx.session(QUERY, checkpointable=True)
    _feed_range(session, data, 0, split)
    blob = session.snapshot()
    session.abort()

    blob_path = tmp_path / "session.gcxs"
    data_path = tmp_path / "doc.xml"
    script_path = tmp_path / "restore_child.py"
    blob_path.write_bytes(blob)
    data_path.write_bytes(data)
    script_path.write_text(_RESTORE_SCRIPT)

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(script_path), str(blob_path), str(data_path), str(split)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == reference.output
