"""Truly incremental, restartable XML tokenizer.

This is the lowest layer of the reproduction: a from-scratch streaming
lexer that turns XML input into the token stream consumed by the GCX
stream pre-projector.  Input can arrive three ways:

* a complete document string,
* an iterable of string chunks, pulled lazily as tokens are requested
  (the raw input is never joined into one string),
* push mode: no source at construction time, the caller supplies data
  with :meth:`XmlLexer.feed` and ends it with :meth:`XmlLexer.close`.

All tokenizer state — half-read tags, entities, CDATA sections and
comments split across chunk boundaries — survives between chunks: a
scan that reaches the end of the buffered input mid-token leaves no
partial state behind and resumes from the token start once more data
arrives, so the token stream is byte-for-byte identical to tokenizing
the concatenated document in one piece.

The supported XML subset covers the paper's workloads plus the common
conveniences one meets in real documents:

* elements with attributes (single- or double-quoted),
* self-closing tags (normalised to start + end token pairs),
* character data with the five predefined entities
  (``&lt; &gt; &amp; &apos; &quot;``) and numeric character references,
* CDATA sections,
* comments and processing instructions (skipped),
* an XML declaration and a DOCTYPE with an optional internal DTD subset
  (the subset text is preserved for :mod:`repro.xmlio.dtd`).

Two fast paths keep the hot loop cheap: complete start/end tags are
recognised with precompiled regexes (falling back to the exact
character-level scanner for Unicode names, unusual spacing, or
incomplete input), and tag/attribute names are interned so the matcher
and buffer compare pointers instead of strings.

On top of the classic token objects the lexer exposes a slotted event
fast path (DESIGN.md §9): :meth:`XmlLexer.next_event` yields plain
``(kind, name, attrs, text)`` tuples — no ``StartTag``/``Attribute``
allocation for the common no-attribute tag — :meth:`XmlLexer.tokens_into`
batches them into a caller-supplied list, and
:meth:`XmlLexer.skip_subtree` fast-forwards over an entire irrelevant
subtree without building events at all, returning only the significant
token count the statistics need.  All three produce byte-identical
classification (and raise the identical errors) as ``next_token``; the
compiled projector is their primary consumer.

Namespace processing is intentionally out of scope: GCX's fragment and
the XMark workloads are namespace-free, and prefixed names pass through
verbatim as part of the tag name.

This str-domain lexer is also the **oracle** of the bytes-domain
scanner (:mod:`repro.xmlio.lexer_bytes`, DESIGN.md §11): the hot
production path scans raw UTF-8 bytes and decodes text lazily, and a
differential suite holds it byte-identical — same tokens, events,
errors and significance decisions at every byte-level chunk split — to
this implementation.  :func:`make_lexer` / :func:`tokenize` dispatch on
the input representation, so callers pick the domain simply by handing
over ``bytes`` or ``str``.
"""

from __future__ import annotations

import itertools
import re
import sys
from collections.abc import Callable, Iterable, Iterator

from repro.xmlio.errors import XmlStarvedError, XmlSyntaxError
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

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME_START_EXTRA = "_:"
_NAME_EXTRA = "_:.-"

#: Markup constructs other than start tags, by their literal prefix.
#: When the buffered input ends inside one of these prefixes the
#: construct cannot be classified yet — the lexer must wait for more
#: data instead of misreading e.g. ``<!`` as a malformed start tag.
_MARKUP_PREFIXES = ("<!--", "<![CDATA[", "<?", "<!DOCTYPE", "</")
_LONGEST_PREFIX = max(len(p) for p in _MARKUP_PREFIXES)

# Fast-path recognisers for complete tags.  The name and whitespace
# classes are the exact subsets the character-level scanner accepts
# (ASCII names, XML's four whitespace chars — NOT Python's Unicode
# \s); anything the regexes do not match (Unicode names, missing
# inter-attribute space, malformed or incomplete markup) falls back to
# the exact scanner, so a regex match can never disagree with it.
# The pattern *sources* are module constants because the bytes-domain
# lexer (repro.xmlio.lexer_bytes) compiles the identical patterns over
# bytes — one source of truth, two regex domains.
_NAME_RE_SRC = r"[A-Za-z_:][A-Za-z0-9_:.\-]*"
_WS_RE_SRC = r"[ \t\r\n]"
START_TAG_SRC = (
    r"<(" + _NAME_RE_SRC + r")"
    r"((?:" + _WS_RE_SRC + r"+" + _NAME_RE_SRC
    + _WS_RE_SRC + r"*=" + _WS_RE_SRC + r"*(?:\"[^\"]*\"|'[^']*'))*)"
    + _WS_RE_SRC + r"*(/?)>"
)
ATTR_SRC = (
    _WS_RE_SRC + r"+(" + _NAME_RE_SRC + r")"
    + _WS_RE_SRC + r"*=" + _WS_RE_SRC + r"*(?:\"([^\"]*)\"|'([^']*)')"
)
END_TAG_SRC = r"</(" + _NAME_RE_SRC + r")" + _WS_RE_SRC + r"*>"
#: first significant (non-whitespace) character of a text run — used by
#: the skip fast path to classify runs without slicing them out.
NON_WS_SRC = r"[^ \t\r\n]"

_START_TAG_RE = re.compile(START_TAG_SRC)
_ATTR_RE = re.compile(ATTR_SRC)
_END_TAG_RE = re.compile(END_TAG_SRC)
_NON_WS_RE = re.compile(NON_WS_SRC)

_intern = sys.intern

#: XML 1.0 ``CharRef``: decimal digits, or a lowercase ``x`` and hex
#: digits (no sign, no spaces, no ``X`` — what ``int()`` would forgive).
_CHAR_REF_RE = re.compile(r"#(?:([0-9]+)|x([0-9a-fA-F]+))")


def _char_ref(entity: str, offset: int) -> str:
    """The character a ``&#...;`` reference names, which must match
    XML's ``Char`` production (no NUL, no other C0 control but tab/LF/
    CR, no surrogate, no U+FFFE/U+FFFF, nothing past U+10FFFF)."""
    match = _CHAR_REF_RE.fullmatch(entity)
    code = -1
    if match is not None:
        decimal, hexadecimal = match.groups()
        digits = (decimal or hexadecimal).lstrip("0") or "0"
        if len(digits) <= 7:  # longer is out of range either way
            code = int(digits, 10 if decimal else 16)
    if not (
        0x20 <= code <= 0xD7FF
        or code in (0x9, 0xA, 0xD)
        or 0xE000 <= code <= 0xFFFD
        or 0x10000 <= code <= 0x10FFFF
    ):
        raise XmlSyntaxError(f"invalid character reference &{entity};", offset)
    return chr(code)


def resolve_entities_text(raw: str, offset: int) -> str:
    """Resolve the predefined entities and character references in
    *raw* (both lexer domains share this — character data is ``str``
    by the time entities are resolved).

    Raises:
        XmlSyntaxError: on an unterminated or unknown reference, or a
            character reference outside XML's ``Char`` production; the
            reported position is *offset* plus the index of the ``&``
            within *raw*.
    """
    if "&" not in raw:
        return raw
    out: list[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = raw.find(";", i + 1)
        if end == -1:
            raise XmlSyntaxError("unterminated entity reference", offset + i)
        entity = raw[i + 1 : end]
        if entity.startswith("#"):
            out.append(_char_ref(entity, offset + i))
        elif entity in _PREDEFINED_ENTITIES:
            out.append(_PREDEFINED_ENTITIES[entity])
        else:
            raise XmlSyntaxError(
                f"unknown entity reference &{entity};", offset + i
            )
        i = end + 1
    return "".join(out)


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch in _NAME_START_EXTRA


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in _NAME_EXTRA


class _Starved(Exception):
    """Internal signal: the buffer ended mid-token and input is open."""


class XmlLexer:
    """Pull-based tokenizer with incremental (chunked) input.

    Tokens are produced strictly on demand (:meth:`next_token`), which
    is what gives the GCX projector its one-token-lookahead discipline.
    Consumed input is discarded as chunks arrive, so memory is bounded
    by one chunk plus the longest in-flight token — the raw input is
    never retained behind the scan position.

    Args:
        source: a complete document string, an iterable of string
            chunks (pulled lazily), or ``None`` for push mode
            (``feed()`` / ``close()``).
        keep_whitespace: emit whitespace-only text tokens instead of
            dropping them.
        refill: optional zero-argument callable returning the next
            chunk (or ``None``/``""`` at end of input); called whenever
            the lexer runs out of buffered data.  Mutually exclusive
            with an iterable *source*.
    """

    def __init__(
        self,
        source: str | Iterable[str] | None = None,
        keep_whitespace: bool = False,
        refill: Callable[[], str | None] | None = None,
    ):
        self._buf = ""
        self._pos = 0
        #: absolute document offset of ``self._buf[0]`` (consumed input
        #: is compacted away; token offsets stay absolute).
        self._base = 0
        self._keep_whitespace = keep_whitespace
        self._open_tags: list[str] = []
        self._started = False
        # Synthetic end tag queued by a self-closing start tag, as a
        # ``(name, offset)`` pair (the event fast path must not pay for
        # an EndTag allocation it would immediately unwrap).
        self._pending_end: tuple[str, int] | None = None
        #: chars (relative to the pending construct's start) already
        #: searched without finding its terminator — lets a text/CDATA/
        #: comment/PI scan that starved resume where it left off
        #: instead of rescanning the whole run on every refill.
        self._resume = 0
        #: substring the starved construct cannot complete without
        #: (e.g. "<" for a text run, "]]>" for CDATA); refill chunks
        #: that do not contain it are parked in ``_pending_chunks``
        #: instead of being merged, so one huge token arriving in many
        #: chunks costs one join, not one buffer copy per chunk.
        self._need: str | None = None
        self._pending_chunks: list[str] = []
        #: last 2 chars of all accumulated input (buffer + parked
        #: chunks) — covers terminators straddling a chunk boundary.
        self._joint = ""
        #: raw text of the internal DTD subset, if a DOCTYPE carried one.
        self.internal_subset: str | None = None
        self._closed = False
        self._refill: Callable[[], str | None] | None = None
        if isinstance(source, str):
            self._buf = source
        elif source is not None:
            chunks = iter(source)

            def _next_nonempty() -> str | None:
                # Empty chunks are legitimate (e.g. a producer with
                # nothing to say this round) and must not read as end
                # of input — only iterator exhaustion does.
                for chunk in chunks:
                    if chunk:
                        return chunk
                return None

            self._refill = _next_nonempty
        if refill is not None:
            if self._refill is not None:
                raise TypeError(
                    "pass either an iterable source or refill=, not both"
                )
            self._refill = refill
        # A plain string with no refill source is complete input.
        if isinstance(source, str) and self._refill is None:
            self._closed = True
        self._joint = self._buf[-2:]

    # ------------------------------------------------------------------
    # incremental input
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once end of input has been signalled."""
        return self._closed

    def feed(self, chunk: str) -> "XmlLexer":
        """Append *chunk* to the pending input (push mode)."""
        if self._closed:
            raise ValueError("cannot feed a closed lexer")
        if chunk:
            self._append(chunk)
        return self

    def close(self) -> "XmlLexer":
        """Signal end of input; pending partial tokens become errors."""
        self._closed = True
        return self

    def _append(self, chunk: str) -> None:
        """Merge parked chunks + *chunk* into the scan buffer,
        compacting consumed text out of it."""
        if self._pos:
            self._base += self._pos
            self._buf = self._buf[self._pos :]
            self._pos = 0
        if self._pending_chunks:
            self._pending_chunks.append(chunk)
            self._buf += "".join(self._pending_chunks)
            self._pending_chunks.clear()
        else:
            self._buf += chunk
        self._joint = self._buf[-2:]
        self._need = None

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Complete restart state as a dict of primitives — the str
        twin of :meth:`ByteXmlLexer.snapshot_state` (same fields minus
        the bytes-domain name caches; offsets are characters).  Safe
        whenever the lexer is quiescent between pulls (including
        starved)."""
        return {
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
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a :meth:`snapshot_state` dict; the lexer then
        continues character-identically to the one it was taken from."""
        self._buf = state["buf"]
        self._pos = 0
        self._base = state["base"]
        self._keep_whitespace = state["keep_whitespace"]
        self._open_tags = list(state["open_tags"])
        self._started = state["started"]
        self._closed = state["closed"]
        self._pending_end = state["pending_end"]
        self._resume = state["resume"]
        self._need = state["need"]
        self._pending_chunks = list(state["pending_chunks"])
        self._joint = state["joint"]
        self.internal_subset = state["internal_subset"]

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def next_token(self) -> Token | None:
        """Return the next token, or ``None`` at end of input.

        Raises:
            XmlSyntaxError: on malformed markup or mismatched tags.
            XmlStarvedError: in push mode, when no complete token is
                buffered and the lexer has not been closed.
        """
        while True:
            try:
                return self._pull_token()
            except _Starved:
                self._handle_starvation()

    def _handle_starvation(self) -> None:
        """Refill the buffer after a mid-token starvation signal.

        Shared by every pull surface (``next_token``, ``next_event``,
        ``skip_subtree``) so the chunk-parking strategy stays in one
        place.  Raises :class:`XmlStarvedError` when the lexer has no
        refill source (push mode without buffered data).
        """
        if self._refill is None:
            raise XmlStarvedError(
                "no complete token buffered; feed() more input "
                "or close() the lexer"
            ) from None
        while True:
            chunk = self._refill()
            if not chunk:
                self._closed = True
                self._append("")  # merge any parked chunks
                return
            if (
                self._need is not None
                and self._need not in self._joint + chunk
            ):
                # The construct's terminator is not in this
                # chunk (nor straddling the boundary): park it
                # without paying for a buffer merge or rescan.
                self._pending_chunks.append(chunk)
                self._joint = (self._joint + chunk)[-2:]
                continue
            self._append(chunk)
            return

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
        ``None`` at end of input.

        The allocation-light twin of :meth:`next_token`: ``kind`` is
        one of :data:`~repro.xmlio.tokens.EVENT_START` /
        :data:`~repro.xmlio.tokens.EVENT_END` /
        :data:`~repro.xmlio.tokens.EVENT_TEXT`, ``attrs`` is a tuple of
        ``(name, value)`` pairs or ``None``, and ``text`` carries the
        entity-resolved character data of a text event.  Token
        classification, whitespace policy and every error are identical
        to :meth:`next_token`; only the representation differs (no
        ``StartTag``/``Attribute``/``Text`` objects, no offsets).

        Raises:
            XmlSyntaxError: on malformed markup or mismatched tags.
            XmlStarvedError: in push mode, when no complete token is
                buffered and the lexer has not been closed.
        """
        while True:
            try:
                return self._scan_event()
            except _Starved:
                self._handle_starvation()

    def tokens_into(self, sink: list, limit: int = 4096) -> int:
        """Append up to *limit* events (see :meth:`next_event`) to
        *sink*; returns the number appended — ``0`` at end of input.

        The batch surface of the fast path: one call amortizes the
        per-token method dispatch for consumers that do not need the
        projector's one-token-at-a-time pull discipline (DOM loading,
        token counting, benchmarks).
        """
        append = sink.append
        count = 0
        while count < limit:
            event = self.next_event()
            if event is None:
                break
            append(event)
            count += 1
        return count

    def skip_subtree(self) -> int:
        """Fast-forward to (and through) the end tag of the innermost
        open element; returns the number of significant tokens consumed.

        The projector calls this for subtrees that can contain no match:
        tags are still validated (well-formedness, duplicate attributes,
        entity references — the identical errors ``next_token`` would
        raise) but no token or event objects are built, attribute values
        are not materialized, and text runs are classified without being
        sliced out of the buffer.  "Significant" counts exactly the
        tokens ``next_token`` would have emitted under this lexer's
        whitespace policy, so statistics stay byte-identical.
        """
        target = len(self._open_tags) - 1
        if target < 0:
            raise ValueError("skip_subtree() requires an open element")
        count = 0
        tags = self._open_tags
        match_start = _START_TAG_RE.match
        # One fused scan loop: buffer state lives in locals and is only
        # flushed back to the instance around the careful fallbacks
        # (rare markup, starvation) — the common tag/text tokens cost no
        # attribute writes and no per-token method calls.
        while len(tags) > target:
            text = self._buf
            size = len(text)
            pos = self._pos
            try:
                while len(tags) > target:
                    if self._pending_end is not None or pos >= size:
                        self._pos = pos
                        count += self._skip_once()
                        pos = self._pos
                        continue
                    if text[pos] != "<":
                        end = text.find("<", pos + self._resume)
                        if end == -1:
                            if not self._closed:
                                self._resume = size - pos
                                self._pos = pos
                                raise self._starved("<")
                            end = size
                        self._resume = 0
                        if self._skipped_text_significant(text, pos, end):
                            count += 1
                        pos = end
                        continue
                    if pos + 1 < size and text[pos + 1] == "/":
                        # End tag: compare directly against the tag we
                        # know must close (no regex, no name slice).
                        expected = tags[-1]
                        end = pos + 2 + len(expected)
                        if (
                            text.startswith(expected, pos + 2)
                            and end < size
                            and text[end] == ">"
                        ):
                            tags.pop()
                            pos = end + 1
                            count += 1
                            continue
                    else:
                        match = match_start(text, pos)
                        if match is not None:
                            attrs_start, attrs_end = match.span(2)
                            if attrs_end > attrs_start:
                                self._pos = pos
                                self._validate_skipped_attrs(
                                    match, attrs_start, attrs_end
                                )
                            pos = match.end()
                            if match.end(3) > match.start(3):
                                count += 2  # self-closing: start + end
                            else:
                                tags.append(match.group(1))
                                count += 1
                            continue
                    # Rare or malformed markup: the careful path.
                    self._pos = pos
                    count += self._skip_once()
                    pos = self._pos
            except _Starved:
                self._handle_starvation()
            else:
                self._pos = pos
        return count

    def _skipped_text_significant(self, text: str, pos: int, end: int) -> bool:
        """Would the token path have emitted ``text[pos:end]``?

        Must agree exactly with ``next_token``: entity references are
        resolved (and validated) first, and significance is the
        post-resolution Unicode ``strip()`` — the XML-whitespace regex
        is only a shortcut for the overwhelmingly common all-ASCII
        runs.  Under ``keep_whitespace`` every run is significant, but
        entities are still validated.
        """
        match = _NON_WS_RE.search(text, pos, end)
        if match is None:
            return self._keep_whitespace
        amp = text.find("&", pos, end)
        if amp == -1 and not text[match.start()].isspace():
            return True
        raw = text[pos:end]
        if amp != -1:
            # Entities are validated even though the resolved text is
            # discarded.
            raw = self._resolve_entities(raw, self._base + pos)
        return True if self._keep_whitespace else bool(raw.strip())

    def _validate_skipped_attrs(self, match: re.Match, start: int, end: int) -> None:
        """Well-formedness checks of a skipped start tag's attributes —
        duplicate names and entity references raise exactly as they
        would on the building path; values are never materialized
        unless an entity reference forces resolution."""
        text = self._buf
        seen: set[str] = set()
        offset = self._base + match.start()
        for attr in _ATTR_RE.finditer(text, start, end):
            attr_name = attr.group(1)
            if attr_name in seen:
                raise XmlSyntaxError(
                    f"duplicate attribute {attr_name!r} "
                    f"in <{match.group(1)}>",
                    offset,
                )
            seen.add(attr_name)
        if text.find("&", start, end) != -1:
            for attr in _ATTR_RE.finditer(text, start, end):
                value = attr.group(2)
                if value is None:
                    value = attr.group(3)
                if "&" in value:
                    self._resolve_entities(value, offset)

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
            if text[pos] != "<":
                # Text run.  Whitespace-only runs are classified (and
                # dropped) without slicing them out of the buffer.
                end = text.find("<", pos + self._resume)
                if end == -1:
                    if not self._closed:
                        self._resume = len(text) - pos
                        raise self._starved("<")
                    end = len(text)
                self._resume = 0
                if not keep_ws and _NON_WS_RE.search(text, pos, end) is None:
                    self._pos = end
                    continue
                raw = text[pos:end]
                self._pos = end
                offset = self._base + pos
                if not self._open_tags and raw.strip():
                    raise XmlSyntaxError(
                        "character data outside the root element", offset
                    )
                if "&" in raw:
                    raw = self._resolve_entities(raw, offset)
                if not keep_ws and not raw.strip():
                    # the XML-whitespace regex above is only a shortcut:
                    # runs of *Unicode* whitespace (or entities that
                    # resolve to whitespace) are dropped here, exactly
                    # like the token path's post-resolution strip()
                    continue
                return (EVENT_TEXT, None, None, raw)
            # Start tag (the regex cannot match any other markup: the
            # character after "<" must be a name-start character).
            match = _START_TAG_RE.match(text, pos)
            if match is not None:
                return self._event_from_start_match(match)
            if text.startswith("</", pos):
                match = _END_TAG_RE.match(text, pos)
                if match is None:
                    token = self._scan_end_tag()  # exact scan / starvation
                    return (EVENT_END, token.name, None, None)
                name = match.group(1)
                tags = self._open_tags
                if not tags or tags[-1] != name:
                    self._close_tag(_intern(name), pos)  # raises
                tags.pop()
                self._pos = match.end()
                return (EVENT_END, name, None, None)
            if text.startswith("<!--", pos):
                self._skip_comment()
                continue
            if text.startswith("<![CDATA[", pos):
                token = self._scan_cdata()
                if not keep_ws and not token.content.strip():
                    continue
                return (EVENT_TEXT, None, None, token.content)
            if text.startswith("<?", pos):
                self._skip_pi()
                continue
            if text.startswith("<!DOCTYPE", pos):
                self._skip_doctype()
                continue
            if not self._closed and len(text) - pos < _LONGEST_PREFIX:
                rest = text[pos:]
                if any(p.startswith(rest) for p in _MARKUP_PREFIXES):
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
        name = _intern(match.group(1))
        attr_src = match.group(2)
        if attr_src:
            attrs = []
            seen: set[str] = set()
            for attr in _ATTR_RE.finditer(attr_src):
                attr_name = _intern(attr.group(1))
                value = attr.group(2)
                if value is None:
                    value = attr.group(3)
                if attr_name in seen:
                    raise XmlSyntaxError(
                        f"duplicate attribute {attr_name!r} in <{name}>", offset
                    )
                seen.add(attr_name)
                if "&" in value:
                    value = self._resolve_entities(value, offset)
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
        if text[pos] != "<":
            end = text.find("<", pos + self._resume)
            if end == -1:
                if not self._closed:
                    self._resume = len(text) - pos
                    raise self._starved("<")
                end = len(text)
            self._resume = 0
            significant = self._skipped_text_significant(text, pos, end)
            self._pos = end
            return 1 if significant else 0
        match = _START_TAG_RE.match(text, pos)
        if match is not None:
            attrs_start, attrs_end = match.span(2)
            if attrs_end > attrs_start:
                self._validate_skipped_attrs(match, attrs_start, attrs_end)
            self._pos = match.end()
            if match.group(3):
                return 2  # self-closing: start + synthetic end
            self._open_tags.append(match.group(1))
            return 1
        if text.startswith("</", pos):
            tags = self._open_tags
            expected = tags[-1]
            end = pos + 2 + len(expected)
            if (
                text.startswith(expected, pos + 2)
                and end < len(text)
                and text[end] == ">"
            ):
                tags.pop()
                self._pos = end + 1
                return 1
            match = _END_TAG_RE.match(text, pos)
            if match is not None:
                self._pos = match.end()
                self._close_tag(_intern(match.group(1)), pos)
                return 1
            self._scan_end_tag()  # exact scan: errors / starvation
            return 1
        if text.startswith("<!--", pos):
            self._skip_comment()
            return 0
        if text.startswith("<![CDATA[", pos):
            token = self._scan_cdata()
            return 1 if self._keep_whitespace or token.content.strip() else 0
        if text.startswith("<?", pos):
            self._skip_pi()
            return 0
        if text.startswith("<!DOCTYPE", pos):
            self._skip_doctype()
            return 0
        if not self._closed and len(text) - pos < _LONGEST_PREFIX:
            rest = text[pos:]
            if any(p.startswith(rest) for p in _MARKUP_PREFIXES):
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

    def _starved(self, need: str | None) -> _Starved:
        """Record what the pending construct needs before signalling
        starvation (None = any new input could complete it)."""
        self._need = need
        return _Starved()

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
            if text[pos] != "<":
                return self._scan_text()
            # Markup.  Dispatch on the character after "<": start and
            # end tags dominate every real document, and neither can be
            # confused with the "<!"/"<?" constructs, so the common
            # cases pay no prefix chain — and, crucially for chunked
            # input, no could-this-become-a-comment guard (a start tag
            # cut at the chunk boundary starves inside
            # ``_scan_start_tag`` exactly as before).
            nxt = text[pos + 1 : pos + 2]
            if nxt == "/":
                return self._scan_end_tag()
            if nxt and nxt != "!" and nxt != "?":
                return self._scan_start_tag()
            if not nxt:
                # Lone "<" at the end of the buffer: any construct
                # could follow.
                if not self._closed:
                    raise self._starved(None)
                return self._scan_start_tag()  # exact scan raises
            if text.startswith("<!--", pos):
                self._skip_comment()
                continue
            if text.startswith("<![CDATA[", pos):
                return self._scan_cdata()
            if nxt == "?":
                self._skip_pi()
                continue
            if text.startswith("<!DOCTYPE", pos):
                self._skip_doctype()
                continue
            if not self._closed and len(text) - pos < _LONGEST_PREFIX:
                rest = text[pos:]
                if any(p.startswith(rest) for p in _MARKUP_PREFIXES):
                    # Could still become a comment/CDATA/DOCTYPE once
                    # more input arrives.
                    raise self._starved(None)
            return self._scan_start_tag()

    def _scan_text(self) -> Text:
        text = self._buf
        start = self._pos
        end = text.find("<", start + self._resume)
        if end == -1:
            if not self._closed:
                # A text run is maximal: it only ends at markup or at
                # the true end of input, never at a chunk boundary.
                self._resume = len(text) - start
                raise self._starved("<")
            end = len(text)
        self._resume = 0
        raw = text[start:end]
        self._pos = end
        offset = self._base + start
        if not self._open_tags and raw.strip():
            raise XmlSyntaxError("character data outside the root element", offset)
        return Text(self._resolve_entities(raw, offset), offset)

    def _scan_cdata(self) -> Text:
        start = self._pos
        text = self._buf
        end = text.find("]]>", max(start + 9, start + self._resume))
        if end == -1:
            if not self._closed:
                # Keep the last 2 chars rescannable: they may be the
                # head of a "]]>" split across the chunk boundary.
                self._resume = max(0, len(text) - start - 2)
                raise self._starved("]]>")
            raise XmlSyntaxError(
                "unterminated CDATA section", self._base + start
            )
        self._resume = 0
        content = text[start + 9 : end]
        self._pos = end + 3
        if not self._open_tags:
            raise XmlSyntaxError(
                "CDATA section outside the root element", self._base + start
            )
        return Text(content, self._base + start)

    def _skip_comment(self) -> None:
        start = self._pos
        text = self._buf
        end = text.find("-->", max(start + 4, start + self._resume))
        if end == -1:
            if not self._closed:
                self._resume = max(0, len(text) - start - 2)
                raise self._starved("-->")
            raise XmlSyntaxError("unterminated comment", self._base + start)
        self._resume = 0
        self._pos = end + 3

    def _skip_pi(self) -> None:
        start = self._pos
        text = self._buf
        end = text.find("?>", max(start + 2, start + self._resume))
        if end == -1:
            if not self._closed:
                self._resume = max(0, len(text) - start - 1)
                raise self._starved("?>")
            raise XmlSyntaxError(
                "unterminated processing instruction", self._base + start
            )
        self._resume = 0
        self._pos = end + 2

    def _skip_doctype(self) -> None:
        # <!DOCTYPE name [internal subset]? >
        start = self._pos
        pos = start + len("<!DOCTYPE")
        text = self._buf
        depth = 0
        subset_start = None
        while pos < len(text):
            ch = text[pos]
            if ch == "[":
                if depth == 0:
                    subset_start = pos + 1
                depth += 1
            elif ch == "]":
                depth -= 1
                if depth == 0 and subset_start is not None:
                    self.internal_subset = text[subset_start:pos]
            elif ch == ">" and depth == 0:
                self._pos = pos + 1
                return
            pos += 1
        if not self._closed:
            raise self._starved(">")
        raise XmlSyntaxError(
            "unterminated DOCTYPE declaration", self._base + start
        )

    def _scan_start_tag(self) -> StartTag:
        text = self._buf
        start = self._pos
        match = _START_TAG_RE.match(text, start)
        if match is not None:
            return self._start_tag_from_match(match)
        # Exact character-level scan: Unicode names, unusual spacing,
        # malformed markup, or a tag still incomplete in the buffer.
        pos = start + 1
        if pos >= len(text):
            if not self._closed:
                raise self._starved(">")
            raise XmlSyntaxError("malformed start tag", self._base + start)
        if not _is_name_start(text[pos]):
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
            ch = text[pos]
            if ch == ">":
                self._pos = pos + 1
                self._check_single_root(self._base + start)
                self._open_tags.append(name)
                return StartTag(name, tuple(attributes), self._base + start)
            if ch == "/":
                if pos + 1 >= len(text) and not self._closed:
                    raise self._starved(">")
                if not text.startswith("/>", pos):
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
            if pos >= len(text) or text[pos] != "=":
                raise XmlSyntaxError(
                    f"attribute {attr_name!r} without value in <{name}>",
                    self._base + pos,
                )
            pos = self._skip_ws(pos + 1)
            if pos >= len(text):
                if not self._closed:
                    raise self._starved(None)
            if pos >= len(text) or text[pos] not in "\"'":
                raise XmlSyntaxError(
                    f"unquoted value for attribute {attr_name!r} in <{name}>",
                    self._base + pos,
                )
            quote = text[pos]
            value_end = text.find(quote, pos + 1)
            if value_end == -1:
                if not self._closed:
                    raise self._starved(">")
                raise XmlSyntaxError(
                    f"unterminated value for attribute {attr_name!r}",
                    self._base + pos,
                )
            raw_value = text[pos + 1 : value_end]
            if attr_name in seen:
                raise XmlSyntaxError(
                    f"duplicate attribute {attr_name!r} in <{name}>",
                    self._base + pos,
                )
            seen.add(attr_name)
            attributes.append(
                Attribute(
                    attr_name, self._resolve_entities(raw_value, self._base + pos)
                )
            )
            pos = value_end + 1

    def _start_tag_from_match(self, match: re.Match) -> StartTag:
        """Commit a regex-recognised (complete) start tag."""
        start = self._pos
        offset = self._base + start
        name = _intern(match.group(1))
        attr_src = match.group(2)
        attributes: tuple[Attribute, ...] = ()
        if attr_src:
            attrs = []
            seen: set[str] = set()
            for attr in _ATTR_RE.finditer(attr_src):
                attr_name = _intern(attr.group(1))
                raw_value = attr.group(2)
                if raw_value is None:
                    raw_value = attr.group(3)
                if attr_name in seen:
                    raise XmlSyntaxError(
                        f"duplicate attribute {attr_name!r} in <{name}>", offset
                    )
                seen.add(attr_name)
                attrs.append(
                    Attribute(attr_name, self._resolve_entities(raw_value, offset))
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
        match = _END_TAG_RE.match(text, start)
        if match is not None:
            self._pos = match.end()
            return self._close_tag(_intern(match.group(1)), start)
        pos = start + 2
        if pos >= len(text):
            if not self._closed:
                raise self._starved(">")
            raise XmlSyntaxError("malformed end tag", self._base + start)
        if not _is_name_start(text[pos]):
            raise XmlSyntaxError("malformed end tag", self._base + start)
        name, pos = self._scan_name(pos)
        pos = self._skip_ws(pos)
        if pos >= len(text):
            if not self._closed:
                raise self._starved(">")
            raise XmlSyntaxError(
                f"malformed end tag </{name}", self._base + start
            )
        if text[pos] != ">":
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
        text = self._buf
        start = pos
        pos += 1
        while pos < len(text) and _is_name_char(text[pos]):
            pos += 1
        return _intern(text[start:pos]), pos

    def _skip_ws(self, pos: int) -> int:
        text = self._buf
        while pos < len(text) and text[pos] in " \t\r\n":
            pos += 1
        return pos

    def _resolve_entities(self, raw: str, offset: int) -> str:
        return resolve_entities_text(raw, offset)


def tokenize(source, keep_whitespace: bool = False) -> Iterator[Token]:
    """Tokenize *source* into a stream of XML tokens.

    Args:
        source: a complete document (``str`` or UTF-8 ``bytes``), or an
            iterable of chunks — consumed lazily, one chunk at a time,
            as tokens are pulled (the raw input is never joined; only
            the token being scanned is ever buffered).  Bytes sources
            run through the bytes-domain lexer
            (:class:`~repro.xmlio.lexer_bytes.ByteXmlLexer`) — wire
            bytes are scanned directly, text decoded lazily.
        keep_whitespace: emit whitespace-only text tokens instead of
            dropping them.

    Yields:
        ``StartTag`` / ``EndTag`` / ``Text`` tokens in document order.
    """
    yield from make_lexer(source, keep_whitespace)


def make_lexer(
    source=None,
    keep_whitespace: bool = False,
    refill: Callable[[], str | None] | None = None,
):
    """Return a pull-based lexer over *source*, choosing the scanning
    domain from the input representation.

    ``str`` sources get the classic :class:`XmlLexer`; ``bytes`` (or
    ``bytearray``/``memoryview``) sources get the zero-copy
    :class:`~repro.xmlio.lexer_bytes.ByteXmlLexer` (DESIGN.md §11),
    which scans the raw bytes and decodes text lazily.  For an
    iterable the *first non-empty chunk* decides the domain — it is
    pulled eagerly at construction (leading empty chunks are skipped,
    but their type still picks the domain if the iterable holds
    nothing else); later chunks stay lazy.

    Args:
        source: a complete document (``str`` or ``bytes``), an
            iterable of same-typed chunks, or ``None`` for a push-mode
            lexer driven by ``feed()`` / ``close()`` (str domain; use
            :class:`ByteXmlLexer` directly for bytes push mode).
        keep_whitespace: emit whitespace-only text tokens.
        refill: optional callable supplying the next chunk on demand
            (see :class:`XmlLexer`).
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        from repro.xmlio.lexer_bytes import ByteXmlLexer

        return ByteXmlLexer(bytes(source), keep_whitespace, refill=refill)
    if source is None or isinstance(source, str):
        return XmlLexer(source, keep_whitespace, refill=refill)
    # An iterable of chunks: peek at the first non-empty chunk to pick
    # the domain, then hand first + remainder back as an iterable
    # source (each lexer already consumes those lazily).
    if refill is not None:
        raise TypeError("pass either an iterable source or refill=, not both")
    chunks = iter(source)
    first = None
    empty = None
    for chunk in chunks:
        if chunk:
            first = chunk
            break
        # Remember the type of leading empty chunks: an all-empty bytes
        # iterable must still get the bytes-domain lexer.
        empty = chunk
    if first is None:
        if isinstance(empty, (bytes, bytearray, memoryview)):
            from repro.xmlio.lexer_bytes import ByteXmlLexer

            return ByteXmlLexer(b"", keep_whitespace)
        return XmlLexer("", keep_whitespace)
    rest = itertools.chain((first,), chunks)
    if isinstance(first, (bytes, bytearray, memoryview)):
        from repro.xmlio.lexer_bytes import ByteXmlLexer

        return ByteXmlLexer(rest, keep_whitespace)
    return XmlLexer(rest, keep_whitespace)
