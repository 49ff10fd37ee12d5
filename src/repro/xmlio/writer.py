"""XML serialization for query results and DOM subtrees."""

from __future__ import annotations

from repro.xmlio.tokens import Token, TokenKind


def escape_text(value: str) -> str:
    """Escape character data for element content.

    A raw ``\r`` would reach a reparse as ``\n`` (end-of-line
    normalization), so it is written as a character reference
    (XSLT and XQuery Serialization 3.1, §7.1)."""
    value = value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    if "\r" in value:
        value = value.replace("\r", "&#13;")
    return value


def escape_attribute(value: str) -> str:
    """Escape character data for a double-quoted attribute value.

    Tab, newline and ``\r`` are written as character references: a
    reparse would normalize them to spaces (attribute-value
    normalization)."""
    value = value.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")
    if "\t" in value:
        value = value.replace("\t", "&#9;")
    if "\n" in value:
        value = value.replace("\n", "&#10;")
    if "\r" in value:
        value = value.replace("\r", "&#13;")
    return value


class XmlWriter:
    """Serialized XML output sink.

    By default output accumulates in memory (``getvalue``).  Passing a
    *stream* (any object with ``write``) turns the writer into a true
    streaming sink: the engine then emits results incrementally and
    never holds the serialized output — the output side of GCX's
    "evaluate the query on-the-fly" pipeline.
    """

    def __init__(self, stream=None):
        self._parts: list[str] = []
        self._stream = stream
        #: characters written so far (maintained in both modes)
        self.chars_written = 0

    def _emit(self, chunk: str) -> None:
        self.chars_written += len(chunk)
        if self._stream is not None:
            self._stream.write(chunk)
        else:
            self._parts.append(chunk)

    def start_element(self, tag: str, attributes=None) -> None:
        """Emit an opening tag; *attributes* is an iterable of pairs."""
        if attributes:
            attrs = "".join(
                f' {name}="{escape_attribute(value)}"' for name, value in attributes
            )
            self._emit(f"<{tag}{attrs}>")
        else:
            self._emit(f"<{tag}>")

    def end_element(self, tag: str) -> None:
        """Emit a closing tag."""
        self._emit(f"</{tag}>")

    def text(self, content: str) -> None:
        """Emit escaped character data."""
        self._emit(escape_text(content))

    def raw(self, content: str) -> None:
        """Emit pre-serialized markup verbatim."""
        self._emit(content)

    def token(self, token: Token) -> None:
        """Emit a streaming token."""
        if token.kind is TokenKind.START:
            self.start_element(
                token.name, [(a.name, a.value) for a in token.attributes]
            )
        elif token.kind is TokenKind.END:
            self.end_element(token.name)
        else:
            self.text(token.content)

    def getvalue(self) -> str:
        """Everything written so far (empty in streaming mode — the
        output went to the stream)."""
        return "".join(self._parts)

    def __len__(self) -> int:
        return self.chars_written


def serialize_dom(node, writer: XmlWriter | None = None) -> str:
    """Serialize a DOM node (and subtree) to markup.

    The synthetic ``#document`` node serializes as its children.
    """
    own = writer is None
    if writer is None:
        writer = XmlWriter()
    if node.is_text:
        writer.text(node.text or "")
    elif node.is_document:
        for child in node.children:
            serialize_dom(child, writer)
    else:
        writer.start_element(node.tag, sorted(node.attributes.items()))
        for child in node.children:
            serialize_dom(child, writer)
        writer.end_element(node.tag)
    return writer.getvalue() if own else ""
