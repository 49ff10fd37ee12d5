"""Bytes-domain zero-copy XML tokenizer (DESIGN.md §11).

The production twin of :class:`repro.xmlio.lexer.XmlLexer`: the same
truly incremental, restartable scanner, but the hot loops run over the
**raw UTF-8 wire bytes** instead of decoded ``str``.  Documents arrive
from sockets and files as bytes; decoding every byte to code points
before scanning paid three full passes over data whose markup structure
is pure ASCII.  This lexer removes them:

* markup is recognised with the *identical* regex patterns compiled
  over ``bytes`` (the pattern sources are shared module constants in
  :mod:`repro.xmlio.lexer`), and text/CDATA/comment scans ride
  ``bytes.find`` — the C ``memchr`` path;
* tag and attribute names are decoded and interned **once at first
  sight** per lexer (a ``bytes → str`` cache), so the tokens and
  events downstream consumers see still carry ordinary interned
  strings;
* character data is carried as byte spans and decoded **lazily**: a
  text run is decoded only when it is actually emitted (or must be
  classified beyond the ASCII fast checks).  Content inside skipped
  subtrees is mostly never decoded — :meth:`ByteXmlLexer.skip_subtree`
  treats ASCII-classifiable runs as opaque bytes (so invalid UTF-8
  there can go unnoticed), decoding only runs that need Unicode
  whitespace classification or entity validation; tags are always
  validated.

UTF-8 is safe to scan byte-wise: every multi-byte sequence uses bytes
``>= 0x80``, so searching for ASCII delimiters (``<``, ``>``, quotes,
``&``) can never hit the middle of a character.

**Offsets are byte offsets.**  The str lexer reports character
offsets; for pure-ASCII documents the two coincide, for multi-byte
documents this lexer's error positions point at bytes — which is what
a caller holding the wire bytes needs.  Invalid UTF-8 encountered on
any decoded path raises :class:`~repro.xmlio.errors.XmlSyntaxError`
with the exact byte position of the offending byte, never a bare
``UnicodeDecodeError``.

The str lexer remains the **oracle**: a differential suite
(``tests/test_lexer_bytes.py``) holds this implementation to the same
tokens, events, errors and whitespace-significance decisions at every
byte-level chunk split, including multi-byte characters, entity
references and CDATA sections cut mid-sequence.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable, Iterable, Iterator

from repro.xmlio.errors import FreezeSignal, XmlStarvedError, XmlSyntaxError
from repro.xmlio.lexer import (
    ATTR_SRC,
    END_TAG_SRC,
    NON_WS_SRC,
    START_TAG_SRC,
    _is_name_char,
    _is_name_start,
    _LONGEST_PREFIX,
    _MARKUP_PREFIXES,
    _Starved,
    resolve_entities_text,
)
from repro.xmlio.tokens import (
    EVENT_END,
    EVENT_START,
    EVENT_TEXT,
    Attribute,
    EndTag,
    StartTag,
    Text,
    Token,
    TokenKind,
)

# The identical fast-path recognisers, compiled over bytes.  Both
# domains share one pattern source of truth, so the regexes cannot
# drift apart; the character classes are pure ASCII, which over bytes
# means they can never match inside a multi-byte UTF-8 sequence.
_START_TAG_RE_B = re.compile(START_TAG_SRC.encode("ascii"))
_ATTR_RE_B = re.compile(ATTR_SRC.encode("ascii"))
_END_TAG_RE_B = re.compile(END_TAG_SRC.encode("ascii"))
_NON_WS_RE_B = re.compile(NON_WS_SRC.encode("ascii"))

_MARKUP_PREFIXES_B = tuple(p.encode("ascii") for p in _MARKUP_PREFIXES)

#: per-byte "is an ASCII name character" table — the bytes-domain twin
#: of ``_is_name_char`` for the 7-bit range (multi-byte characters go
#: through the decoded predicate).
_ASCII_NAME_CHAR = tuple(
    chr(b).isalnum() or chr(b) in "_:.-" for b in range(128)
)

#: per-byte "is significant on its own" table: an ASCII byte that is
#: not Unicode whitespace.  The skip fast path uses it to classify a
#: text run from its first non-XML-whitespace byte without decoding.
_ASCII_SIGNIFICANT = tuple(not chr(b).isspace() for b in range(128))

#: the same table as packed bytes, handed to the optional C scanner so
#: both sides classify significance from one source of truth.
_SIG_TABLE = bytes(_ASCII_SIGNIFICANT)

# Optional C batch scanner (DESIGN.md §15): compiled on first use from
# _cscan.c when a toolchain is present, else None — the pure-Python
# batch loops below are the complete implementation either way, and the
# C loops only ever consume constructs those loops would consume.
try:
    from repro.xmlio import cscan as _cscan_mod

    _CSCAN = _cscan_mod.scanner
except Exception:  # pragma: no cover - loader is best-effort by design
    _CSCAN = None

_intern = sys.intern

_BYTES_LIKE = (bytes, bytearray, memoryview)


class ByteXmlLexer:
    """Pull-based tokenizer over incremental **bytes** input.

    The public surface mirrors :class:`~repro.xmlio.lexer.XmlLexer`
    exactly — ``next_token`` / ``next_event`` / ``tokens_into`` /
    ``skip_subtree`` / ``feed`` / ``close`` — and emits the very same
    token objects and event tuples (``str`` names and content).  Only
    the input representation and the offset domain (bytes) differ.

    Args:
        source: a complete document as ``bytes`` (also ``bytearray`` /
            ``memoryview``), an iterable of bytes chunks (pulled
            lazily), or ``None`` for push mode (``feed()`` /
            ``close()``).
        keep_whitespace: emit whitespace-only text tokens instead of
            dropping them.
        refill: optional zero-argument callable returning the next
            bytes chunk (or ``None``/``b""`` at end of input).
            Mutually exclusive with an iterable *source*.
    """

    def __init__(
        self,
        source: bytes | Iterable[bytes] | None = None,
        keep_whitespace: bool = False,
        refill: Callable[[], bytes | None] | None = None,
    ):
        self._buf = b""
        self._pos = 0
        #: absolute byte offset of ``self._buf[0]`` in the document.
        self._base = 0
        self._keep_whitespace = keep_whitespace
        self._open_tags: list[str] = []
        self._started = False
        self._pending_end: tuple[str, int] | None = None
        self._resume = 0
        self._need: bytes | None = None
        self._pending_chunks: list[bytes] = []
        self._joint = b""
        #: raw text of the internal DTD subset, if a DOCTYPE carried one.
        self.internal_subset: str | None = None
        self._closed = False
        self._refill: Callable[[], bytes | None] | None = None
        #: a ``skip_subtree`` interrupted by a freeze parks its loop
        #: locals here as ``(target, count)``; the next call resumes.
        self._skip_parked: tuple[int, int] | None = None
        #: decode-once caches: raw name bytes → interned str, and the
        #: reverse (the skip fast path compares expected end tags as
        #: bytes without re-encoding).
        self._names: dict[bytes, str] = {}
        self._name_bytes: dict[str, bytes] = {}
        #: per-name immutable event tuples — repeated tags append the
        #: same ``(kind, name, None, None)`` object instead of paying a
        #: tuple allocation per event.  The start cache is keyed by
        #: the raw name bytes so the fast path resolves slice → event
        #: in a single dict hit.
        self._start_events: dict[bytes, tuple] = {}
        self._end_events: dict[str, tuple] = {}
        if isinstance(source, _BYTES_LIKE):
            self._buf = bytes(source)
        elif isinstance(source, str):
            raise TypeError(
                "ByteXmlLexer scans bytes; use XmlLexer (or make_lexer) "
                "for str input"
            )
        elif source is not None:
            chunks = iter(source)

            def _next_nonempty() -> bytes | None:
                # Empty chunks are legitimate and must not read as end
                # of input — only iterator exhaustion does.
                for chunk in chunks:
                    if chunk:
                        return bytes(chunk)
                return None

            self._refill = _next_nonempty
        if refill is not None:
            if self._refill is not None:
                raise TypeError(
                    "pass either an iterable source or refill=, not both"
                )
            self._refill = refill
        # A plain bytes object with no refill source is complete input.
        if isinstance(source, _BYTES_LIKE) and self._refill is None:
            self._closed = True
        self._joint = self._buf[-2:]

    # ------------------------------------------------------------------
    # incremental input
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once end of input has been signalled."""
        return self._closed

    def feed(self, chunk: bytes) -> "ByteXmlLexer":
        """Append *chunk* to the pending input (push mode)."""
        if self._closed:
            raise ValueError("cannot feed a closed lexer")
        if isinstance(chunk, str):
            raise TypeError(
                "ByteXmlLexer.feed() takes bytes; use XmlLexer for str input"
            )
        if chunk:
            self._append(bytes(chunk))
        return self

    def close(self) -> "ByteXmlLexer":
        """Signal end of input; pending partial tokens become errors."""
        self._closed = True
        return self

    def _append(self, chunk: bytes) -> None:
        """Merge parked chunks + *chunk* into the scan buffer,
        compacting consumed bytes out of it."""
        if self._pos:
            self._base += self._pos
            self._buf = self._buf[self._pos :]
            self._pos = 0
        if self._pending_chunks:
            self._pending_chunks.append(chunk)
            self._buf += b"".join(self._pending_chunks)
            self._pending_chunks.clear()
        else:
            self._buf += chunk
        self._joint = self._buf[-2:]
        self._need = None

    def _handle_starvation(self) -> None:
        """Refill the buffer after a mid-token starvation signal (the
        same chunk-parking strategy as the str lexer, in bytes)."""
        if self._refill is None:
            # a skip_subtree interrupted mid-flight may have parked
            # raw-bytes tag names on the stack; hand control back with
            # every invariant restored
            self._normalize_skipped_tags(-1)
            raise XmlStarvedError(
                "no complete token buffered; feed() more input "
                "or close() the lexer"
            ) from None
        while True:
            chunk = self._refill()
            if not chunk:
                self._closed = True
                self._append(b"")  # merge any parked chunks
                return
            chunk = bytes(chunk)
            if (
                self._need is not None
                and self._need not in self._joint + chunk
            ):
                # The construct's terminator is not in this chunk (nor
                # straddling the boundary): park it without a merge.
                self._pending_chunks.append(chunk)
                self._joint = (self._joint + chunk)[-2:]
                continue
            self._append(chunk)
            return

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Complete restart state as a dict of primitives.

        Safe at any point the lexer is not inside a scan call — i.e.
        quiescent between pulls, starved, or unwound by a
        :class:`~repro.xmlio.errors.FreezeSignal` (every starve/freeze
        path commits state before raising).  The binary encoding lives
        in ``repro.core.snapshot``.
        """
        # a frozen mid-skip stack was normalized on the way out; do it
        # again defensively — it is idempotent and cheap
        self._normalize_skipped_tags(-1)
        return {
            # consumed input is compacted away; ``base`` keeps offsets
            # absolute so restored error positions are byte-exact
            "buf": self._buf[self._pos :],
            "base": self._base + self._pos,
            "keep_whitespace": self._keep_whitespace,
            "open_tags": list(self._open_tags),
            "started": self._started,
            "closed": self._closed,
            "pending_end": self._pending_end,
            "resume": self._resume,
            "need": self._need,
            "pending_chunks": list(self._pending_chunks),
            "joint": self._joint,
            "internal_subset": self.internal_subset,
            # raw name bytes; restore re-interns to rebuild all four
            # decode-once caches exactly (UTF-8 names are bijective)
            "names": list(self._names),
            "skip_parked": self._skip_parked,
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a :meth:`snapshot_state` dict, replacing all restart
        state.  The lexer then continues byte-identically to the one
        the state was taken from."""
        self._buf = bytes(state["buf"])
        self._pos = 0
        self._base = state["base"]
        self._keep_whitespace = state["keep_whitespace"]
        self._started = state["started"]
        self._closed = state["closed"]
        self._pending_end = state["pending_end"]
        self._resume = state["resume"]
        self._need = state["need"]
        self._pending_chunks = list(state["pending_chunks"])
        self._joint = state["joint"]
        self.internal_subset = state["internal_subset"]
        self._skip_parked = state["skip_parked"]
        self._names.clear()
        self._name_bytes.clear()
        self._start_events.clear()
        self._end_events.clear()
        for raw in state["names"]:
            self._intern_name(bytes(raw), 0)
        self._open_tags = list(state["open_tags"])

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def next_token(self) -> Token | None:
        """Return the next token, or ``None`` at end of input.

        Raises:
            XmlSyntaxError: on malformed markup, mismatched tags, or
                invalid UTF-8 (byte position reported).
            XmlStarvedError: in push mode, when no complete token is
                buffered and the lexer has not been closed.
        """
        while True:
            try:
                return self._pull_token()
            except _Starved:
                self._handle_starvation()

    def __iter__(self) -> Iterator[Token]:
        while True:
            token = self.next_token()
            if token is None:
                return
            yield token

    @property
    def depth(self) -> int:
        """Number of currently open elements."""
        return len(self._open_tags)

    # ------------------------------------------------------------------
    # event fast path (the compiled kernel's input surface)
    # ------------------------------------------------------------------

    def next_event(self) -> tuple | None:
        """Return the next event ``(kind, name, attrs, text)``, or
        ``None`` at end of input — see
        :meth:`~repro.xmlio.lexer.XmlLexer.next_event`.  Names and
        text are ``str`` (decoded lazily); classification, whitespace
        policy and errors match the str lexer.
        """
        while True:
            try:
                return self._scan_event()
            except _Starved:
                self._handle_starvation()

    def tokens_into(self, sink: list, limit: int = 4096) -> int:
        """Append up to *limit* events (see :meth:`next_event`) to
        *sink*; returns the number appended — ``0`` at end of input.

        This is a **fused batch loop**: the common cases — text runs,
        regex-recognised tags closing the expected element — are
        scanned with every hot binding held in locals, no per-event
        method dispatch.  Anything rare (markup other than tags,
        attribute errors, buffer exhaustion, root-level bookkeeping)
        bails out to :meth:`next_event`, whose classification this
        loop reproduces exactly.
        """
        return self._batch_into(sink, limit, None)

    def project_into(self, sink: list, live: dict, limit: int = 4096) -> int:
        """:meth:`tokens_into` with a plan's tag alphabet fused in —
        the input surface of the generated lexer front-end
        (DESIGN.md §15).

        Appends events to *sink* exactly like :meth:`tokens_into`, but
        stops the batch right after committing a non-self-closing
        start event whose name is not in *live* — the cursor is then
        positioned directly behind that start tag, so the caller's
        next :meth:`skip_subtree` consumes exactly the subtree it
        decided not to tokenize.  Returns the number of events
        appended, **negated** when the batch stopped at such a dead
        start (self-closing dead tags are not worth a stop: their
        "subtree" is the already-appended synthetic end event, except
        on the careful path, where the pending synthetic end is left
        for :meth:`skip_subtree` to consume).

        One further contract difference: this method never blocks for
        more input while at least one event is already appended — a
        fused projector drains what exists before the stream starves,
        keeping event delivery as incremental as the per-event path.
        """
        return self._batch_into(sink, limit, live)

    def _batch_into(self, sink: list, limit: int, live: dict | None) -> int:
        count = 0
        append = sink.append
        scan_event = self._scan_event
        keep_ws = self._keep_whitespace
        names = self._names
        names_get = names.get
        name_bytes = self._name_bytes
        start_events = self._start_events
        start_events_get = start_events.get
        end_events = self._end_events
        start_match = _START_TAG_RE_B.match
        non_ws_search = _NON_WS_RE_B.search
        resolve = resolve_entities_text
        tags = self._open_tags
        c_tokens = _CSCAN.tokens if _CSCAN is not None else None
        while count < limit:
            if self._pending_end is None and not self._resume and tags:
                buf = self._buf
                size = len(buf)
                pos = self._pos
                base = self._base
                while count < limit and pos < size:
                    if c_tokens is not None:
                        # C batch scan: consumes known attribute-less
                        # tags and plain text runs, then returns at the
                        # first construct it must not commit — which the
                        # dispatch below (or the careful path) handles,
                        # after which the loop re-enters the C scan.
                        pos, count = c_tokens(
                            buf,
                            pos,
                            sink,
                            count,
                            limit,
                            names,
                            start_events,
                            name_bytes,
                            end_events,
                            tags,
                            keep_ws,
                            _SIG_TABLE,
                            live,
                        )
                        if (
                            live is not None
                            and count
                            and sink[-1][0] == 0
                            and sink[-1][1] not in live
                        ):
                            # the C scan committed a dead start and
                            # stopped right behind it (only non-self-
                            # closing starts stop the C batch)
                            self._pos = pos
                            return -count
                        if count >= limit or pos >= size or not tags:
                            break
                    b = buf[pos]
                    if b != 0x3C:  # text run
                        end = buf.find(b"<", pos)
                        if end == -1:
                            break  # runs to buffer end: starve/EOF logic
                        if not keep_ws and non_ws_search(buf, pos, end) is None:
                            pos = end
                            continue
                        try:
                            raw = buf[pos:end].decode("utf-8")
                        except UnicodeDecodeError:
                            break  # careful path reports the byte position
                        if "&" in raw:
                            try:
                                raw = resolve(raw, base + pos)
                            except XmlSyntaxError:
                                self._pos = pos
                                raise
                        if not keep_ws and not raw.strip():
                            pos = end
                            continue
                        append((2, None, None, raw))
                        count += 1
                        pos = end
                        continue
                    if pos + 1 >= size:
                        break
                    if buf[pos + 1] == 0x2F:  # "/": end tag
                        # compare raw bytes against the tag that must
                        # close — no regex, no decode, one dict hit
                        name = tags[-1]
                        expected = name_bytes[name]
                        end = pos + 2 + len(expected)
                        if not (
                            buf.startswith(expected, pos + 2)
                            and end < size
                            and buf[end] == 0x3E  # ">"
                        ):
                            break  # ws variant/mismatch/incomplete
                        tags.pop()
                        pos = end + 1
                        append(end_events[name])
                        count += 1
                        if not tags:
                            break  # root closed: EOF/trailing bookkeeping
                        continue
                    # start tag: a previously seen attribute-less tag is
                    # exactly "<" + cached name bytes (+ "/") + ">" —
                    # memchr to ">" and one dict hit, no regex, and the
                    # cached per-name event tuple costs no allocation
                    gt = buf.find(b">", pos + 1)
                    if gt == -1:
                        break  # incomplete markup: starve/EOF logic
                    if buf[gt - 1] == 0x2F:  # self-closing candidate
                        event = start_events_get(buf[pos + 1 : gt - 1])
                        if event is not None:
                            name = event[1]
                            append(event)
                            count += 1
                            tags.append(name)
                            if count < limit:
                                append(end_events[name])
                                count += 1
                                tags.pop()
                            else:
                                self._pending_end = (name, base + pos)
                            pos = gt + 1
                            continue
                    else:
                        event = start_events_get(buf[pos + 1 : gt])
                        if event is not None:
                            append(event)
                            count += 1
                            tags.append(event[1])
                            pos = gt + 1
                            if live is not None and event[1] not in live:
                                self._pos = pos
                                return -count
                            continue
                    match = start_match(buf, pos)
                    if match is None:
                        break  # comments/CDATA/PI/exotic tags/incomplete
                    astart, aend = match.span(2)
                    if aend > astart:
                        # attributes: shared commit path (dup checks,
                        # value decode + entity resolution)
                        self._pos = pos
                        append(self._event_from_start_match(match))
                        count += 1
                        pos = self._pos
                        if live is not None and sink[-1][1] not in live:
                            # dead start: stop here (a pending synthetic
                            # end for the self-closing form is consumed
                            # by the caller's skip_subtree)
                            return -count
                        if self._pending_end is not None:
                            break  # synthetic end via the careful path
                        continue
                    name_b = match.group(1)
                    name = names_get(name_b)
                    if name is None:
                        name = self._intern_name(name_b, match.start(1))
                    append((0, name, None, None))
                    count += 1
                    tags.append(name)
                    if match.group(3):  # self-closing
                        if count < limit:
                            append((1, name, None, None))
                            count += 1
                            tags.pop()
                        else:
                            self._pending_end = (name, base + pos)
                    elif live is not None and name not in live:
                        self._pos = match.end()
                        return -count
                    pos = match.end()
                self._pos = pos
                if count >= limit:
                    return count
            # careful path: one event through the single-event scanner
            # (the only rung that can block on more input — which a
            # projecting batch must not do while it holds events)
            try:
                event = scan_event()
            except _Starved:
                if live is not None and count:
                    return count
                self._handle_starvation()
                continue
            if event is None:
                return count
            append(event)
            count += 1
            if live is not None and event[0] == 0 and event[1] not in live:
                return -count
        return count

    def skip_subtree(self, levels: int = 1) -> int:
        """Fast-forward to (and through) the end tag of the innermost
        open element — or of the *levels* innermost ones, outermost of
        them last; returns the number of significant tokens consumed.

        The bytes-domain payoff lives here: a skipped subtree is pure
        ``bytes.find`` + tag validation.  Character data is decoded
        only when byte-level classification cannot settle its
        whitespace significance — a run whose first significant byte
        is ASCII non-space with no entity reference (the overwhelming
        majority) is treated as opaque bytes and is therefore not
        UTF-8-validated; runs needing Unicode classification or entity
        validation decode exactly like the token path would.
        Significance follows the same post-entity-resolution rules as
        the token path, so the significant-token count stays
        byte-identical to the str lexer's.
        """
        parked = self._skip_parked
        if parked is not None:
            # resuming a skip a freeze interrupted (possibly in a
            # restored twin of the lexer that parked it)
            self._skip_parked = None
            target, count = parked
        else:
            target = len(self._open_tags) - levels
            if target < 0 or levels < 1:
                raise ValueError("skip_subtree() requires an open element")
            count = 0
        tags = self._open_tags
        names = self._names
        name_bytes = self._name_bytes
        non_ws_search = _NON_WS_RE_B.search
        ascii_sig = _ASCII_SIGNIFICANT
        keep_ws = self._keep_whitespace
        match_start = _START_TAG_RE_B.match
        c_skip = _CSCAN.skip if _CSCAN is not None else None
        while len(tags) > target:
            text = self._buf
            size = len(text)
            pos = self._pos
            depth = len(tags) - target
            try:
                while depth:
                    if self._pending_end is not None or pos >= size:
                        self._pos = pos
                        self._normalize_skipped_tags(target)
                        count += self._skip_once()
                        pos = self._pos
                        depth = len(tags) - target
                        continue
                    if c_skip is not None and not self._resume:
                        # C batch scan: fast-forwards through known
                        # tags and classifiable text, pushing interned
                        # str names, and returns at the first construct
                        # it must not commit — handled by the dispatch
                        # below before the loop re-enters the C scan.
                        pos, got = c_skip(
                            text,
                            pos,
                            names,
                            name_bytes,
                            tags,
                            target,
                            keep_ws,
                            _SIG_TABLE,
                        )
                        count += got
                        depth = len(tags) - target
                        if not depth or pos >= size:
                            continue
                    if text[pos] != 0x3C:  # "<"
                        end = text.find(b"<", pos + self._resume)
                        if end == -1:
                            if not self._closed:
                                self._resume = size - pos
                                self._pos = pos
                                raise self._starved(b"<")
                            end = size
                        self._resume = 0
                        # Significance without decode: an ASCII first
                        # significant byte that is no Unicode space,
                        # with no entity in the run, settles it.
                        if not keep_ws:
                            match = non_ws_search(text, pos, end)
                            if match is not None:
                                first = text[match.start()]
                                if (
                                    first < 0x80
                                    and ascii_sig[first]
                                    and text.find(b"&", pos, end) == -1
                                ):
                                    count += 1
                                elif self._skipped_text_significant(
                                    text, pos, end
                                ):
                                    count += 1
                        elif self._skipped_text_significant(text, pos, end):
                            count += 1
                        pos = end
                        continue
                    if pos + 1 < size and text[pos + 1] == 0x2F:  # "/"
                        # End tag: compare raw bytes against the tag we
                        # know must close (no regex, no decode; tags
                        # this very skip opened are still raw bytes).
                        expected = tags[-1]
                        if type(expected) is not bytes:
                            expected = name_bytes[expected]
                        end = pos + 2 + len(expected)
                        if (
                            text.startswith(expected, pos + 2)
                            and end < size
                            and text[end] == 0x3E  # ">"
                        ):
                            tags.pop()
                            depth -= 1
                            pos = end + 1
                            count += 1
                            continue
                    else:
                        # a known attribute-less tag is "<" + name
                        # bytes (+ "/") + ">": memchr + one dict
                        # membership, no regex — the raw slice goes on
                        # the stack undecoded
                        gt = text.find(b">", pos + 1)
                        if gt != -1:
                            if text[gt - 1] == 0x2F:  # self-closing
                                if text[pos + 1 : gt - 1] in names:
                                    count += 2
                                    pos = gt + 1
                                    continue
                            else:
                                raw_name = text[pos + 1 : gt]
                                if raw_name in names:
                                    tags.append(raw_name)
                                    depth += 1
                                    count += 1
                                    pos = gt + 1
                                    continue
                        match = match_start(text, pos)
                        if match is not None:
                            attrs_start, attrs_end = match.span(2)
                            if attrs_end > attrs_start:
                                self._pos = pos
                                self._validate_skipped_attrs(
                                    match, attrs_start, attrs_end
                                )
                            # first sight of this name: decode+intern
                            # once so later occurrences hit the
                            # membership fast path above
                            name = self._intern_name(
                                match.group(1), match.start(1)
                            )
                            pos = match.end()
                            if match.end(3) > match.start(3):
                                count += 2  # self-closing: start + end
                            else:
                                tags.append(name)
                                depth += 1
                                count += 1
                            continue
                    # Rare or malformed markup: the careful path.
                    self._pos = pos
                    self._normalize_skipped_tags(target)
                    count += self._skip_once()
                    pos = self._pos
                    depth = len(tags) - target
            except _Starved:
                try:
                    self._handle_starvation()
                except FreezeSignal:
                    # The session is freezing for a snapshot.  The
                    # stack may hold raw-bytes names this very skip
                    # pushed — intern them (idempotent), then park the
                    # loop locals so the next skip_subtree() call (on
                    # this lexer or a restored one) continues exactly
                    # here with the full significant-token count.
                    self._normalize_skipped_tags(-1)
                    self._skip_parked = (target, count)
                    raise
            else:
                self._pos = pos
        return count

    def _normalize_skipped_tags(self, target: int) -> None:
        """Intern the raw-bytes tag names the fused skip loop pushed,
        before handing control to paths that expect ``str`` names
        (careful skipping, error messages)."""
        tags = self._open_tags
        for index in range(target + 1, len(tags)):
            name = tags[index]
            if type(name) is bytes:
                tags[index] = self._intern_name(name, self._pos)

    def _skipped_text_significant(self, text: bytes, pos: int, end: int) -> bool:
        """Would the token path have emitted ``text[pos:end]``?

        Agrees exactly with the str lexer: runs of the four XML
        whitespace bytes are insignificant, an ASCII non-space byte
        with no entity reference is significant without decoding, and
        everything else (entities, multi-byte characters, exotic ASCII
        control whitespace) falls back to decode + entity resolution +
        Unicode ``strip()`` — the oracle's exact rule.
        """
        match = _NON_WS_RE_B.search(text, pos, end)
        if match is None:
            return self._keep_whitespace
        amp = text.find(b"&", pos, end)
        first = text[match.start()]
        if amp == -1 and first < 0x80 and not chr(first).isspace():
            return True
        raw = self._decode(text[pos:end], self._base + pos)
        if amp != -1:
            # Entities are validated even though the resolved text is
            # discarded.
            raw = resolve_entities_text(raw, self._base + pos)
        return True if self._keep_whitespace else bool(raw.strip())

    def _validate_skipped_attrs(self, match: re.Match, start: int, end: int) -> None:
        """Well-formedness checks of a skipped start tag's attributes —
        duplicate names and entity references raise exactly as they
        would on the building path; values are decoded only when an
        entity reference forces resolution."""
        text = self._buf
        seen: set[bytes] = set()
        offset = self._base + match.start()
        for attr in _ATTR_RE_B.finditer(text, start, end):
            attr_name = attr.group(1)
            if attr_name in seen:
                raise XmlSyntaxError(
                    f"duplicate attribute "
                    f"{self._intern_name(attr_name, attr.start(1))!r} "
                    f"in <{self._intern_name(match.group(1), match.start(1))}>",
                    offset,
                )
            seen.add(attr_name)
        if text.find(b"&", start, end) != -1:
            for attr in _ATTR_RE_B.finditer(text, start, end):
                raw = attr.group(2)
                vstart = attr.start(2)
                if raw is None:
                    raw = attr.group(3)
                    vstart = attr.start(3)
                if b"&" in raw:
                    resolve_entities_text(
                        self._decode(raw, self._base + vstart), offset
                    )

    def _scan_event(self) -> tuple | None:
        if self._pending_end is not None:
            name, _offset = self._pending_end
            self._pending_end = None
            popped = self._open_tags.pop()
            assert popped == name
            return (EVENT_END, name, None, None)
        keep_ws = self._keep_whitespace
        while True:
            text = self._buf
            pos = self._pos
            if pos >= len(text):
                if not self._closed:
                    raise self._starved(None)
                if self._open_tags:
                    raise XmlSyntaxError(
                        f"unexpected end of input; unclosed element "
                        f"<{self._open_tags[-1]}>",
                        self._base + pos,
                    )
                return None
            if text[pos] != 0x3C:  # "<"
                # Text run.  ASCII-whitespace-only runs are dropped
                # without being decoded or sliced out of the buffer.
                end = text.find(b"<", pos + self._resume)
                if end == -1:
                    if not self._closed:
                        self._resume = len(text) - pos
                        raise self._starved(b"<")
                    end = len(text)
                self._resume = 0
                if not keep_ws and _NON_WS_RE_B.search(text, pos, end) is None:
                    self._pos = end
                    continue
                raw = self._decode(text[pos:end], self._base + pos)
                self._pos = end
                offset = self._base + pos
                if not self._open_tags and raw.strip():
                    raise XmlSyntaxError(
                        "character data outside the root element", offset
                    )
                if "&" in raw:
                    raw = resolve_entities_text(raw, offset)
                if not keep_ws and not raw.strip():
                    # runs of *Unicode* whitespace (or entities that
                    # resolve to whitespace) are dropped here, exactly
                    # like the token path's post-resolution strip()
                    continue
                return (EVENT_TEXT, None, None, raw)
            # End tag first: dispatching on the byte after "<" spares
            # the failed start-regex attempt the str lexer pays on
            # every end tag (the start regex requires a name-start
            # byte there, so the order cannot change classification).
            if pos + 1 < len(text) and text[pos + 1] == 0x2F:  # "</"
                tags = self._open_tags
                if tags:
                    # compare raw bytes against the tag that must close
                    expected = self._name_bytes[tags[-1]]
                    end = pos + 2 + len(expected)
                    if (
                        text.startswith(expected, pos + 2)
                        and end < len(text)
                        and text[end] == 0x3E  # ">"
                    ):
                        name = tags.pop()
                        self._pos = end + 1
                        return self._end_events[name]
                match = _END_TAG_RE_B.match(text, pos)
                if match is None:
                    token = self._scan_end_tag()  # exact scan / starvation
                    return (EVENT_END, token.name, None, None)
                name = self._intern_name(match.group(1), pos + 2)
                if not tags or tags[-1] != name:
                    self._close_tag(name, pos)  # raises
                tags.pop()
                self._pos = match.end()
                return (EVENT_END, name, None, None)
            # Start tag.  A previously seen attribute-less tag is
            # exactly "<" + cached name bytes (+ "/") + ">": one
            # memchr to ">" and one dict hit replace the regex.
            tags = self._open_tags
            if tags:
                gt = text.find(b">", pos + 1)
                if gt != -1:
                    if text[gt - 1] == 0x2F:  # self-closing candidate
                        event = self._start_events.get(text[pos + 1 : gt - 1])
                        if event is not None:
                            name = event[1]
                            self._pos = gt + 1
                            tags.append(name)
                            self._pending_end = (name, self._base + pos)
                            return event
                    else:
                        event = self._start_events.get(text[pos + 1 : gt])
                        if event is not None:
                            self._pos = gt + 1
                            tags.append(event[1])
                            return event
            # First sight, attributes, unusual spacing, or other
            # markup: the regex (and below it, the careful paths)
            # decide — the regex cannot match any non-tag markup, as
            # the byte after "<" must be an ASCII name-start character.
            match = _START_TAG_RE_B.match(text, pos)
            if match is not None:
                astart, aend = match.span(2)
                if aend > astart or not tags:
                    # attributes, or root-level bookkeeping: the full
                    # commit path
                    return self._event_from_start_match(match)
                name_b = match.group(1)
                name = self._names.get(name_b)
                if name is None:
                    name = self._intern_name(name_b, pos + 1)
                self._pos = match.end()
                tags.append(name)
                if match.group(3):
                    self._pending_end = (name, self._base + pos)
                return (EVENT_START, name, None, None)
            if text.startswith(b"<!--", pos):
                self._skip_comment()
                continue
            if text.startswith(b"<![CDATA[", pos):
                token = self._scan_cdata()
                if not keep_ws and not token.content.strip():
                    continue
                return (EVENT_TEXT, None, None, token.content)
            if text.startswith(b"<?", pos):
                self._skip_pi()
                continue
            if text.startswith(b"<!DOCTYPE", pos):
                self._skip_doctype()
                continue
            if not self._closed and len(text) - pos < _LONGEST_PREFIX:
                rest = text[pos:]
                if any(p.startswith(rest) for p in _MARKUP_PREFIXES_B):
                    # Could still become a comment/CDATA/PI/DOCTYPE/end
                    # tag once more input arrives.
                    raise self._starved(None)
            # Unicode names, unusual spacing, malformed or incomplete
            # markup: the exact character-level scanner decides.
            token = self._scan_start_tag()
            attrs = tuple((a.name, a.value) for a in token.attributes)
            return (EVENT_START, token.name, attrs or None, None)

    def _event_from_start_match(self, match: re.Match) -> tuple:
        """Commit a regex-recognised (complete) start tag as an event."""
        offset = self._base + self._pos
        names_get = self._names.get
        name_b = match.group(1)
        name = names_get(name_b)
        if name is None:
            name = self._intern_name(name_b, match.start(1))
        astart, aend = match.span(2)
        if aend > astart:
            attrs = []
            seen: set[str] = set()
            buf = self._buf
            for attr in _ATTR_RE_B.finditer(buf, astart, aend):
                raw_name = attr.group(1)
                attr_name = names_get(raw_name)
                if attr_name is None:
                    attr_name = self._intern_name(raw_name, attr.start(1))
                raw = attr.group(2)
                vstart = attr.start(2)
                if raw is None:
                    raw = attr.group(3)
                    vstart = attr.start(3)
                if attr_name in seen:
                    raise XmlSyntaxError(
                        f"duplicate attribute {attr_name!r} in <{name}>", offset
                    )
                seen.add(attr_name)
                try:
                    value = raw.decode("utf-8")
                except UnicodeDecodeError:
                    value = self._decode(raw, self._base + vstart)  # raises
                if "&" in value:
                    value = resolve_entities_text(value, offset)
                attrs.append((attr_name, value))
            attrs = tuple(attrs)
        else:
            attrs = None
        self._pos = match.end()
        self._check_single_root(offset)
        self._open_tags.append(name)
        if match.group(3):
            self._pending_end = (name, offset)
        return (EVENT_START, name, attrs, None)

    def _skip_once(self) -> int:
        """Consume one token's worth of input without building it;
        returns how many significant tokens it accounted for."""
        if self._pending_end is not None:
            self._pending_end = None
            self._open_tags.pop()
            return 1
        text = self._buf
        pos = self._pos
        if pos >= len(text):
            if not self._closed:
                raise self._starved(None)
            raise XmlSyntaxError(
                f"unexpected end of input; unclosed element "
                f"<{self._open_tags[-1]}>",
                self._base + pos,
            )
        if text[pos] != 0x3C:  # "<"
            end = text.find(b"<", pos + self._resume)
            if end == -1:
                if not self._closed:
                    self._resume = len(text) - pos
                    raise self._starved(b"<")
                end = len(text)
            self._resume = 0
            significant = self._skipped_text_significant(text, pos, end)
            self._pos = end
            return 1 if significant else 0
        match = _START_TAG_RE_B.match(text, pos)
        if match is not None:
            attrs_start, attrs_end = match.span(2)
            if attrs_end > attrs_start:
                self._validate_skipped_attrs(match, attrs_start, attrs_end)
            name = self._intern_name(match.group(1), match.start(1))
            self._pos = match.end()
            if match.group(3):
                return 2  # self-closing: start + synthetic end
            self._open_tags.append(name)
            return 1
        if text.startswith(b"</", pos):
            tags = self._open_tags
            expected = self._name_bytes[tags[-1]]
            end = pos + 2 + len(expected)
            if (
                text.startswith(expected, pos + 2)
                and end < len(text)
                and text[end] == 0x3E  # ">"
            ):
                tags.pop()
                self._pos = end + 1
                return 1
            match = _END_TAG_RE_B.match(text, pos)
            if match is not None:
                self._pos = match.end()
                self._close_tag(self._intern_name(match.group(1), pos + 2), pos)
                return 1
            self._scan_end_tag()  # exact scan: errors / starvation
            return 1
        if text.startswith(b"<!--", pos):
            self._skip_comment()
            return 0
        if text.startswith(b"<![CDATA[", pos):
            cstart, cend = self._scan_cdata_span()
            return 1 if self._cdata_significant(cstart, cend) else 0
        if text.startswith(b"<?", pos):
            self._skip_pi()
            return 0
        if text.startswith(b"<!DOCTYPE", pos):
            self._skip_doctype()
            return 0
        if not self._closed and len(text) - pos < _LONGEST_PREFIX:
            rest = text[pos:]
            if any(p.startswith(rest) for p in _MARKUP_PREFIXES_B):
                raise self._starved(None)
        token = self._scan_start_tag()
        if token.self_closing:
            # _scan_start_tag queued the synthetic end: consume it here
            # so both halves are accounted in one step.
            self._pending_end = None
            self._open_tags.pop()
            return 2
        return 1

    # ------------------------------------------------------------------
    # scanning
    # ------------------------------------------------------------------

    def _starved(self, need: bytes | None) -> _Starved:
        """Record what the pending construct needs before signalling
        starvation (None = any new input could complete it)."""
        self._need = need
        return _Starved()

    def _decode(self, raw: bytes, offset: int) -> str:
        """UTF-8 decode with byte-exact error positions.

        Every decode in this lexer funnels through here, so malformed
        wire bytes always surface as :class:`XmlSyntaxError` (mapped to
        an ERROR frame by the server), never as a loose
        ``UnicodeDecodeError`` escaping from an internal slice.
        """
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise XmlSyntaxError(
                f"invalid UTF-8: {exc.reason}", offset + exc.start
            ) from None

    def _char_at(self, pos: int) -> tuple[str, int]:
        """Decode the single character starting at byte *pos* (the
        exact-scanner path); returns ``(char, byte_width)``.

        Starves when a multi-byte sequence is cut by the end of the
        buffered input and the input is still open — the surrounding
        token rescans once more bytes arrive.
        """
        buf = self._buf
        lead = buf[pos]
        if lead < 0x80:
            return chr(lead), 1
        if 0xC2 <= lead <= 0xDF:
            width = 2
        elif 0xE0 <= lead <= 0xEF:
            width = 3
        elif 0xF0 <= lead <= 0xF4:
            width = 4
        else:
            raise XmlSyntaxError(
                "invalid UTF-8: invalid start byte", self._base + pos
            )
        if pos + width > len(buf) and not self._closed:
            raise self._starved(None)
        return self._decode(buf[pos : pos + width], self._base + pos), width

    def _intern_name(self, raw: bytes, pos: int) -> str:
        """Decode + intern a name at first sight; later sightings are
        one dict hit.  Also records the reverse mapping the skip fast
        path uses to compare expected end tags without re-encoding,
        and the per-name event tuples the fast paths append."""
        name = self._names.get(raw)
        if name is None:
            name = _intern(self._decode(raw, self._base + pos))
            self._names[raw] = name
            self._name_bytes.setdefault(name, raw)
            self._start_events.setdefault(raw, (EVENT_START, name, None, None))
            self._end_events.setdefault(name, (EVENT_END, name, None, None))
        return name

    def _pull_token(self) -> Token | None:
        while True:
            token = self._scan_once()
            if token is None:
                return None
            if (
                not self._keep_whitespace
                and token.kind is TokenKind.TEXT
                and not token.content.strip()
            ):
                continue
            return token

    def _scan_once(self) -> Token | None:
        if self._pending_end is not None:
            name, offset = self._pending_end
            self._pending_end = None
            popped = self._open_tags.pop()
            assert popped == name
            return EndTag(name, offset)
        while True:
            text = self._buf
            pos = self._pos
            if pos >= len(text):
                if not self._closed:
                    raise self._starved(None)
                if self._open_tags:
                    raise XmlSyntaxError(
                        f"unexpected end of input; unclosed element "
                        f"<{self._open_tags[-1]}>",
                        self._base + pos,
                    )
                return None
            if text[pos] != 0x3C:  # "<"
                return self._scan_text()
            # Markup.
            if text.startswith(b"<!--", pos):
                self._skip_comment()
                continue
            if text.startswith(b"<![CDATA[", pos):
                return self._scan_cdata()
            if text.startswith(b"<?", pos):
                self._skip_pi()
                continue
            if text.startswith(b"<!DOCTYPE", pos):
                self._skip_doctype()
                continue
            if text.startswith(b"</", pos):
                return self._scan_end_tag()
            if not self._closed and len(text) - pos < _LONGEST_PREFIX:
                rest = text[pos:]
                if any(p.startswith(rest) for p in _MARKUP_PREFIXES_B):
                    # Could still become a comment/CDATA/PI/DOCTYPE/end
                    # tag once more input arrives.
                    raise self._starved(None)
            return self._scan_start_tag()

    def _scan_text(self) -> Text:
        text = self._buf
        start = self._pos
        end = text.find(b"<", start + self._resume)
        if end == -1:
            if not self._closed:
                # A text run is maximal: it only ends at markup or at
                # the true end of input, never at a chunk boundary.
                self._resume = len(text) - start
                raise self._starved(b"<")
            end = len(text)
        self._resume = 0
        raw = self._decode(text[start:end], self._base + start)
        self._pos = end
        offset = self._base + start
        if not self._open_tags and raw.strip():
            raise XmlSyntaxError("character data outside the root element", offset)
        return Text(resolve_entities_text(raw, offset), offset)

    def _scan_cdata_span(self) -> tuple[int, int]:
        """Consume one CDATA section; returns the ``(start, end)`` byte
        span of its raw content in the current buffer (not decoded —
        the skip path classifies it as bytes)."""
        start = self._pos
        text = self._buf
        end = text.find(b"]]>", max(start + 9, start + self._resume))
        if end == -1:
            if not self._closed:
                # Keep the last 2 bytes rescannable: they may be the
                # head of a "]]>" split across the chunk boundary.
                self._resume = max(0, len(text) - start - 2)
                raise self._starved(b"]]>")
            raise XmlSyntaxError(
                "unterminated CDATA section", self._base + start
            )
        self._resume = 0
        self._pos = end + 3
        if not self._open_tags:
            raise XmlSyntaxError(
                "CDATA section outside the root element", self._base + start
            )
        return start + 9, end

    def _scan_cdata(self) -> Text:
        offset = self._base + self._pos
        cstart, cend = self._scan_cdata_span()
        content = self._decode(self._buf[cstart:cend], self._base + cstart)
        return Text(content, offset)

    def _cdata_significant(self, cstart: int, cend: int) -> bool:
        """Skip-path CDATA significance without decoding pure-ASCII
        content; mirrors the token path's ``content.strip()``."""
        if self._keep_whitespace:
            return True
        buf = self._buf
        match = _NON_WS_RE_B.search(buf, cstart, cend)
        if match is None:
            return False
        first = buf[match.start()]
        if first < 0x80 and not chr(first).isspace():
            return True
        return bool(self._decode(buf[cstart:cend], self._base + cstart).strip())

    def _skip_comment(self) -> None:
        start = self._pos
        text = self._buf
        end = text.find(b"-->", max(start + 4, start + self._resume))
        if end == -1:
            if not self._closed:
                self._resume = max(0, len(text) - start - 2)
                raise self._starved(b"-->")
            raise XmlSyntaxError("unterminated comment", self._base + start)
        self._resume = 0
        self._pos = end + 3

    def _skip_pi(self) -> None:
        start = self._pos
        text = self._buf
        end = text.find(b"?>", max(start + 2, start + self._resume))
        if end == -1:
            if not self._closed:
                self._resume = max(0, len(text) - start - 1)
                raise self._starved(b"?>")
            raise XmlSyntaxError(
                "unterminated processing instruction", self._base + start
            )
        self._resume = 0
        self._pos = end + 2

    def _skip_doctype(self) -> None:
        # <!DOCTYPE name [internal subset]? >
        start = self._pos
        pos = start + len(b"<!DOCTYPE")
        text = self._buf
        depth = 0
        subset_start = None
        while pos < len(text):
            ch = text[pos]
            if ch == 0x5B:  # "["
                if depth == 0:
                    subset_start = pos + 1
                depth += 1
            elif ch == 0x5D:  # "]"
                depth -= 1
                if depth == 0 and subset_start is not None:
                    self.internal_subset = self._decode(
                        text[subset_start:pos], self._base + subset_start
                    )
            elif ch == 0x3E and depth == 0:  # ">"
                self._pos = pos + 1
                return
            pos += 1
        if not self._closed:
            raise self._starved(b">")
        raise XmlSyntaxError(
            "unterminated DOCTYPE declaration", self._base + start
        )

    def _scan_start_tag(self) -> StartTag:
        text = self._buf
        start = self._pos
        match = _START_TAG_RE_B.match(text, start)
        if match is not None:
            return self._start_tag_from_match(match)
        # Exact character-level scan: Unicode names, unusual spacing,
        # malformed markup, or a tag still incomplete in the buffer.
        pos = start + 1
        if pos >= len(text):
            if not self._closed:
                raise self._starved(b">")
            raise XmlSyntaxError("malformed start tag", self._base + start)
        ch, _width = self._char_at(pos)
        if not _is_name_start(ch):
            raise XmlSyntaxError("malformed start tag", self._base + start)
        name, pos = self._scan_name(pos)
        attributes: list[Attribute] = []
        seen: set[str] = set()
        while True:
            pos = self._skip_ws(pos)
            if pos >= len(text):
                if not self._closed:
                    raise self._starved(None)
                raise XmlSyntaxError(
                    f"unterminated start tag <{name}", self._base + start
                )
            b = text[pos]
            if b == 0x3E:  # ">"
                self._pos = pos + 1
                self._check_single_root(self._base + start)
                self._open_tags.append(name)
                return StartTag(name, tuple(attributes), self._base + start)
            if b == 0x2F:  # "/"
                if pos + 1 >= len(text) and not self._closed:
                    raise self._starved(b">")
                if not text.startswith(b"/>", pos):
                    raise XmlSyntaxError(
                        f"malformed start tag <{name}", self._base + pos
                    )
                self._pos = pos + 2
                self._check_single_root(self._base + start)
                self._open_tags.append(name)
                self._pending_end = (name, self._base + start)
                return StartTag(
                    name, tuple(attributes), self._base + start, self_closing=True
                )
            ch, _width = self._char_at(pos)
            if not _is_name_start(ch):
                raise XmlSyntaxError(
                    f"unexpected character {ch!r} in start tag <{name}",
                    self._base + pos,
                )
            attr_name, pos = self._scan_name(pos)
            pos = self._skip_ws(pos)
            if pos >= len(text):
                if not self._closed:
                    raise self._starved(None)
            if pos >= len(text) or text[pos] != 0x3D:  # "="
                raise XmlSyntaxError(
                    f"attribute {attr_name!r} without value in <{name}>",
                    self._base + pos,
                )
            pos = self._skip_ws(pos + 1)
            if pos >= len(text):
                if not self._closed:
                    raise self._starved(None)
            if pos >= len(text) or text[pos] not in b"\"'":
                raise XmlSyntaxError(
                    f"unquoted value for attribute {attr_name!r} in <{name}>",
                    self._base + pos,
                )
            quote = text[pos : pos + 1]
            value_end = text.find(quote, pos + 1)
            if value_end == -1:
                if not self._closed:
                    raise self._starved(b">")
                raise XmlSyntaxError(
                    f"unterminated value for attribute {attr_name!r}",
                    self._base + pos,
                )
            raw_value = self._decode(
                text[pos + 1 : value_end], self._base + pos + 1
            )
            if attr_name in seen:
                raise XmlSyntaxError(
                    f"duplicate attribute {attr_name!r} in <{name}>",
                    self._base + pos,
                )
            seen.add(attr_name)
            attributes.append(
                Attribute(
                    attr_name,
                    resolve_entities_text(raw_value, self._base + pos),
                )
            )
            pos = value_end + 1

    def _start_tag_from_match(self, match: re.Match) -> StartTag:
        """Commit a regex-recognised (complete) start tag."""
        start = self._pos
        offset = self._base + start
        name = self._intern_name(match.group(1), match.start(1))
        astart, aend = match.span(2)
        attributes: tuple[Attribute, ...] = ()
        if aend > astart:
            attrs = []
            seen: set[str] = set()
            for attr in _ATTR_RE_B.finditer(self._buf, astart, aend):
                attr_name = self._intern_name(attr.group(1), attr.start(1))
                raw_value = attr.group(2)
                vstart = attr.start(2)
                if raw_value is None:
                    raw_value = attr.group(3)
                    vstart = attr.start(3)
                if attr_name in seen:
                    raise XmlSyntaxError(
                        f"duplicate attribute {attr_name!r} in <{name}>", offset
                    )
                seen.add(attr_name)
                attrs.append(
                    Attribute(
                        attr_name,
                        resolve_entities_text(
                            self._decode(raw_value, self._base + vstart), offset
                        ),
                    )
                )
            attributes = tuple(attrs)
        self._pos = match.end()
        self._check_single_root(offset)
        self._open_tags.append(name)
        if match.group(3):
            self._pending_end = (name, offset)
            return StartTag(name, attributes, offset, self_closing=True)
        return StartTag(name, attributes, offset)

    def _scan_end_tag(self) -> EndTag:
        text = self._buf
        start = self._pos
        match = _END_TAG_RE_B.match(text, start)
        if match is not None:
            self._pos = match.end()
            return self._close_tag(
                self._intern_name(match.group(1), start + 2), start
            )
        pos = start + 2
        if pos >= len(text):
            if not self._closed:
                raise self._starved(b">")
            raise XmlSyntaxError("malformed end tag", self._base + start)
        ch, _width = self._char_at(pos)
        if not _is_name_start(ch):
            raise XmlSyntaxError("malformed end tag", self._base + start)
        name, pos = self._scan_name(pos)
        pos = self._skip_ws(pos)
        if pos >= len(text):
            if not self._closed:
                raise self._starved(b">")
            raise XmlSyntaxError(
                f"malformed end tag </{name}", self._base + start
            )
        if text[pos] != 0x3E:  # ">"
            raise XmlSyntaxError(
                f"malformed end tag </{name}", self._base + start
            )
        self._pos = pos + 1
        return self._close_tag(name, start)

    def _close_tag(self, name: str, start: int) -> EndTag:
        offset = self._base + start
        if not self._open_tags:
            raise XmlSyntaxError(
                f"end tag </{name}> with no open element", offset
            )
        expected = self._open_tags.pop()
        if expected != name:
            raise XmlSyntaxError(
                f"mismatched end tag: expected </{expected}>, got </{name}>",
                offset,
            )
        return EndTag(name, offset)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _check_single_root(self, offset: int) -> None:
        if self._started and not self._open_tags:
            raise XmlSyntaxError("multiple root elements", offset)
        self._started = True

    def _scan_name(self, pos: int) -> tuple[str, int]:
        """Scan a name starting at *pos* (first character validated by
        the caller); ASCII name bytes ride a table lookup, characters
        ``>= 0x80`` are decoded one at a time and classified with the
        oracle's Unicode predicate."""
        text = self._buf
        size = len(text)
        start = pos
        is_ascii_name = _ASCII_NAME_CHAR
        while pos < size:
            b = text[pos]
            if b < 0x80:
                if not is_ascii_name[b]:
                    break
                pos += 1
                continue
            ch, width = self._char_at(pos)
            if not _is_name_char(ch):
                break
            pos += width
        return self._intern_name(text[start:pos], start), pos

    def _skip_ws(self, pos: int) -> int:
        text = self._buf
        while pos < len(text) and text[pos] in b" \t\r\n":
            pos += 1
        return pos
