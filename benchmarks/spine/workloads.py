"""The spine's seven named workloads.

A workload is ``(document, queries, driver)`` plus the reason it
exists.  Names are fixed: later issues cite them verbatim.  Sizes are
the full-size parameters; ``--smoke`` shrinks them through
:func:`smoke_variant` and nothing else in the harness knows about it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.xmark.queries import ADAPTED_QUERIES

from spine import inputs

#: bytes of the ~1 MB *twin* document (same generator, same seed) that
#: the DOM reference can still hold; full-size runs are checked against
#: it through counts and repeatability, the twin through byte equality
TWIN_BYTES = 1_000_000

#: bytes of the "small" document whose sessions are dominated by fixed
#: per-session cost (XMark scale 1 is about this size)
SMALL_BYTES = 45_000

DBLP_QUERY = (
    "<r>{ for $a in /dblp/article return "
    'if ($a/@mdate = "' + inputs.DBLP_PROBE_MDATE + '") '
    "then <t>{ $a/title/text() }</t> else () }</r>"
)


def _xq(*keys: str) -> tuple[str, ...]:
    return tuple(ADAPTED_QUERIES[key].text for key in keys)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "xmark" or "dblp" — which generator of :mod:`inputs` makes the document
    corpus: str
    #: target size of the document; 0 with a fixed ``scale``
    doc_bytes: int
    #: queries evaluated round-robin, one session each
    queries: tuple[str, ...]
    #: "push" (in-process ``StreamSession``, fresh child process) or
    #: "served" (``gcx serve`` in its own process, this process is the
    #: closed-loop load generator)
    driver: str
    #: fixed XMark scale instead of a byte target: section
    #: cardinalities, and with them buffer counts, are seed-independent
    scale: float = 0.0
    #: size of the twin; 0 when the document itself fits a DOM and is
    #: its own twin
    twin_bytes: int = TWIN_BYTES
    #: the paper's bound holds (buffer flat in document size), so the
    #: full-size ``peak_buffer_nodes`` must equal the twin's
    flat_buffer: bool = True
    #: extra ``gcx serve`` arguments (served drivers)
    server_args: tuple[str, ...] = ()
    #: served only: every client runs this many sessions per repetition
    #: and repetitions repeat until the run length is used up; 0 means
    #: one repetition in which clients run sessions until the deadline
    sessions_per_rep: int = 1

    def document(self, seed: int, size: int | None = None) -> bytes:
        """The full document, or the *size*-byte sibling from the same
        generator and seed (twin, small)."""
        if self.corpus == "dblp":
            return inputs.dblp_bytes(seed, size or self.doc_bytes)
        if size is None and self.scale:
            return inputs.xmark_bytes(seed, scale=self.scale)
        return inputs.xmark_bytes(seed, target_bytes=size or self.doc_bytes)


XMARK_BYTES = 24_000_000

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "xmark_filter",
            "Nearly every subtree is dead: xmlio scan/skip dominates, evaluator "
            "and writer idle; the fastest path, so session hand-off cost is "
            "proportionally largest here.",
            "xmark", XMARK_BYTES, _xq("q1"), "push",
        ),
        Workload(
            "xmark_descendant",
            "Nothing can be skipped under a descendant axis: projector/buffer "
            "churn and core.program dominate, tokenising is a small share; "
            "counter-workload for any lexer change.",
            "xmark", XMARK_BYTES, _xq("q6"), "push",
        ),
        Workload(
            "xmark_join",
            "The paper's blocking value join: buffer linear in input and "
            "re-scanned per outer item, so core.buffer/core.program are used "
            "the opposite way from the streaming workloads.",
            "xmark", 0, _xq("q8"), "push",
            scale=32.0, twin_bytes=350_000, flat_buffer=False,
        ),
        Workload(
            "dblp_attrs",
            "DBLP-shaped records with attributes on every record: xmlio's "
            "attribute scanning instead of subtree skipping, so a scan-path "
            "gain that costs the attribute path shows here.",
            "dblp", 16_000_000, (DBLP_QUERY,), "push",
        ),
        Workload(
            "served_stream",
            "Per-byte cost of the server (framing, asyncio, sockets, result "
            "pump) on a long stream; the delta to xmark_filter is the served "
            "tax with per-session cost amortised away.",
            "xmark", XMARK_BYTES, _xq("q1"), "served",
        ),
        Workload(
            "served_small",
            "Fixed per-session cost of the server (connect, OPEN/OPENED, "
            "admission, thread start, FINISH) with almost no bytes; a change "
            "that speeds streams by spending more per session shows here.",
            "xmark", 0, _xq("q1", "q6", "q13", "q20"), "served",
            scale=1.0, twin_bytes=0, sessions_per_rep=0,
        ),
        Workload(
            "served_durable",
            "served_stream with checkpointable sessions and a SNAPSHOT every "
            "1 MiB: freeze/thaw, snapshot encode and today's pinned tables "
            "tier; the only workload where un-pinning can show.",
            "xmark", XMARK_BYTES, _xq("q1"), "served",
            server_args=("--checkpoint-interval", "1048576"),
        ),
    )
}


def smoke_variant(workload: Workload) -> Workload:
    """The same workload on documents of at most 200 KB."""
    return dataclasses.replace(
        workload,
        doc_bytes=min(workload.doc_bytes, 200_000),
        scale=min(workload.scale, 4.0),
        twin_bytes=min(workload.twin_bytes, 60_000),
    )
