"""The stream pre-projector.

"The stream preprojector reads the input until a token is matched by a
projection path.  The token is copied directly into the buffer, and
roles are assigned." (paper, Section 3)

The projector owns the lexer and maintains a stack of open elements,
each carrying its matcher states.  Elements are materialized into the
buffer *lazily*: a node enters the buffer when it receives a role, or
retroactively when one of its descendants does (the role-less spine
that preserves tree structure).  Subtrees whose root receives neither
states nor roles cannot contain any match and are skipped token by
token without touching the buffer.

``advance()`` processes exactly one token (a skipped subtree counts its
tokens individually in the statistics) and is the single place the
input moves forward — the pull chain of the paper's Figure 2:
evaluator → buffer manager → projector.

Three implementations share that contract:

* :class:`StreamProjector` — the reference interpreter: classic token
  objects in, one NFA instance-list interpretation per token.  It is
  the oracle the compiled kernel is differentially tested against.
* :class:`CompiledStreamProjector` — the compiled kernel (DESIGN.md
  §9): the open-element stack holds :class:`~repro.core.matcher.PathDFA`
  state *integers* instead of instance lists, tokens arrive as slotted
  event tuples from the lexer fast path, and one fused dispatch loop
  performs lexer advance + DFA transition + buffer/skip decision with
  no per-token method chaining.  Dead subtrees are fast-forwarded by
  the lexer itself (:meth:`~repro.xmlio.lexer.XmlLexer.skip_subtree`)
  without building tokens at all.  Outputs, watermarks, per-token
  series and role statistics are byte-identical to the interpreter at
  every chunking.
* :class:`FusedStreamProjector` — the same dispatch fed in batches by
  the bytes lexer's ``project_into``, with the plan's tag alphabet
  fused into the scan (DESIGN.md §15); the production tier.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.buffer import Buffer, BufferNode
from repro.core.matcher import PathDFA, PathMatcher
from repro.core.stats import BufferStats
from repro.xmlio.errors import FreezeSignal
from repro.xmlio.lexer import XmlLexer
from repro.xmlio.tokens import TokenKind


class _OpenElement:
    """Stack entry for one open element (or the document)."""

    __slots__ = ("tag", "attributes", "states", "node", "parent")

    def __init__(self, tag, attributes, states, node, parent):
        self.tag = tag
        self.attributes = attributes
        self.states = states
        self.node: BufferNode | None = node
        self.parent: _OpenElement | None = parent


class StreamProjector:
    """Projects the token stream into the buffer, one token at a time."""

    def __init__(
        self,
        lexer: XmlLexer,
        matcher: PathMatcher,
        buffer: Buffer,
        stats: BufferStats | None = None,
    ):
        self._lexer = lexer
        self._matcher = matcher
        self._buffer = buffer
        self._stats = stats if stats is not None else buffer.stats
        states, counts = matcher.initial()
        self._stack = _OpenElement(None, None, states, buffer.root, None)
        if counts:
            buffer.add_roles(buffer.root, counts)
        self.exhausted = False

    # ------------------------------------------------------------------

    def advance(self) -> bool:
        """Process the next input token; False when input is exhausted."""
        if self.exhausted:
            return False
        token = self._lexer.next_token()
        if token is None:
            self.exhausted = True
            self._buffer.close(self._buffer.root)
            return False
        if token.kind is TokenKind.START:
            self._on_start(token)
        elif token.kind is TokenKind.END:
            self._on_end()
        else:
            self._on_text(token)
        return True

    def run_to_end(self) -> None:
        """Drain the remaining input (records the tail of the series)."""
        while self.advance():
            pass

    # ------------------------------------------------------------------

    def _record(self) -> None:
        self._stats.record_token(self._buffer.live_count)

    def _on_start(self, token) -> None:
        top = self._stack
        states, counts = self._matcher.enter_element(top.states, token.name)
        entry = _OpenElement(token.name, token.attributes, states, None, top)
        if counts:
            self._materialize(entry)
            self._buffer.add_roles(entry.node, counts)
        self._record()
        if not states:
            # Nothing below this element can match any projection path.
            self._skip_subtree(entry)
            return
        self._stack = entry

    def _on_end(self) -> None:
        entry = self._stack
        self._stack = entry.parent
        if entry.node is not None:
            self._buffer.close(entry.node)
        self._record()

    def _on_text(self, token) -> None:
        top = self._stack
        _, counts = self._matcher.enter_text(top.states)
        if counts:
            self._materialize(top)
            node = self._buffer.new_text(top.node, token.content)
            self._buffer.add_roles(node, counts)
        self._record()

    def _materialize(self, entry: _OpenElement) -> None:
        """Create buffer nodes for *entry* and any unmaterialized
        ancestors (outermost first, preserving document order).
        Iterative so arbitrarily deep spines cannot exhaust the
        Python stack."""
        if entry.node is not None:
            return
        pending = []
        current = entry
        while current.node is None:
            pending.append(current)
            current = current.parent
        for item in reversed(pending):
            item.node = self._buffer.new_element(
                item.parent.node,
                item.tag,
                {a.name: a.value for a in item.attributes or ()},
            )

    def _skip_subtree(self, entry: _OpenElement) -> None:
        """Consume tokens up to and including the end tag matching the
        just-opened *entry*, bypassing matcher and buffer entirely."""
        if entry.node is None:
            # Only fully irrelevant subtrees count as "skipped"; a
            # buffered leaf whose content cannot match is routine.
            self._stats.subtrees_skipped += 1
        depth = 1
        while depth:
            token = self._lexer.next_token()
            if token is None:  # pragma: no cover - lexer raises first
                self.exhausted = True
                return
            if token.kind is TokenKind.START:
                depth += 1
            elif token.kind is TokenKind.END:
                depth -= 1
            self._record()
        if entry.node is not None:
            self._buffer.close(entry.node)


class _DFAStackProjector:
    """State of the two DFA-driven projectors: the open-element stack as
    four parallel lists (tag, attrs, DFA state, buffer node), the parked
    half of a frozen subtree skip, and the checkpoint state — one
    format, so a blob from either subclass restores into the other."""

    __slots__ = (
        "_lexer",
        "_dfa",
        "_buffer",
        "_stats",
        "_tags",
        "_attrs",
        "_states",
        "_nodes",
        "_pending_skip",
        "exhausted",
    )

    def __init__(self, lexer, dfa: PathDFA, buffer: Buffer, stats=None):
        self._lexer = lexer
        self._dfa = dfa
        self._buffer = buffer
        self._stats = stats if stats is not None else buffer.stats
        # The open-element stack, root (document) at index 0.  The four
        # lists are never reassigned (restore refills them in place),
        # so hot loops may bind them once.
        self._tags: list = [None]
        self._attrs: list = [None]
        self._states: list[int] = [dfa.start]
        self._nodes: list[BufferNode | None] = [buffer.root]
        #: a subtree skip a freeze interrupted: ``(node,)`` where
        #: *node* is the element being closed by the skip (or None for
        #: a fully irrelevant subtree).  The lexer parks its own half.
        self._pending_skip: tuple[BufferNode | None] | None = None
        if dfa.start_roles:
            buffer.add_roles(buffer.root, dfa.start_roles)
        self.exhausted = False

    def _materialize(self, index: int) -> BufferNode:
        """Create buffer nodes for the stack entry at *index* and any
        unmaterialized ancestors (outermost first, preserving document
        order) — the role-less spine that holds the tree shape."""
        nodes = self._nodes
        depth = index
        while nodes[depth] is None:
            depth -= 1
        tags = self._tags
        attrs = self._attrs
        new_element = self._buffer.new_element
        while depth < index:
            depth += 1
            nodes[depth] = new_element(nodes[depth - 1], tags[depth], attrs[depth])
        return nodes[index]

    def _resume_skip(self) -> None:
        """Finish the subtree skip a freeze interrupted — the tail of
        the very ``advance()`` call that was unwound, so its bulk token
        record lands before any other buffer activity."""
        (node,) = self._pending_skip
        count = self._lexer.skip_subtree()
        self._pending_skip = None
        self._stats.record_tokens(count, self._buffer.live_count)
        if node is not None:
            self._buffer.close(node)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Match state as a dict of primitives plus BufferNode refs.

        DFA state *ids* are process-local (lazily interned); the
        snapshot stores each stack level's canonical NFA-instance
        multiset — ``((role, step, count), ...)`` — which is stable
        across processes and re-interned on restore.
        """
        dfa_states = self._dfa._states
        return {
            "tags": list(self._tags),
            "attrs": [
                None if attrs is None else tuple(dict(attrs).items())
                for attrs in self._attrs
            ],
            "states": [dfa_states[state] for state in self._states],
            "nodes": list(self._nodes),
            "exhausted": self.exhausted,
            "pending_skip": self._pending_skip,
        }

    def restore_state(self, state: dict, resolve) -> None:
        """Adopt a :meth:`snapshot_state` dict; *resolve* maps decoded
        node references back to buffer nodes."""
        self._tags[:] = state["tags"]
        self._attrs[:] = state["attrs"]
        intern_state = self._dfa.intern_state
        self._states[:] = [intern_state(key) for key in state["states"]]
        self._nodes[:] = [resolve(ref) for ref in state["nodes"]]
        self.exhausted = state["exhausted"]
        pending = state["pending_skip"]
        self._pending_skip = None if pending is None else (resolve(pending[0]),)


class CompiledStreamProjector(_DFAStackProjector):
    """The fused dispatch loop over DFA states, one event per call (the
    table-driven kernel).

    Drop-in replacement for :class:`StreamProjector` with the same
    ``advance()`` / ``run_to_end()`` / ``exhausted`` contract and
    byte-identical observable behaviour; only the per-token machinery
    differs:

    * the lexer side is the event fast path — slotted tuples, no token
      objects — and irrelevant subtrees are consumed by
      :meth:`~repro.xmlio.lexer.XmlLexer.skip_subtree` in one call;
    * the matcher side is one memo-dict lookup per token against the
      plan's shared :class:`~repro.core.matcher.PathDFA` (the oracle
      NFA only runs on a memo miss, once per ``(state, tag)`` ever).
    """

    __slots__ = ("_next_event", "_element_memo", "_text_memo")

    def __init__(self, lexer: XmlLexer, dfa: PathDFA, buffer: Buffer, stats=None):
        super().__init__(lexer, dfa, buffer, stats)
        # Hot-path bindings: the memo lists are append-only and shared
        # (never reassigned) by every session of the plan.
        self._next_event = lexer.next_event
        self._element_memo = dfa._element_memo
        self._text_memo = dfa._text_memo

    # ------------------------------------------------------------------

    def advance(self) -> bool:
        """Process the next input token; False when input is exhausted."""
        if self.exhausted:
            return False
        if self._pending_skip is not None:
            self._resume_skip()
            return True
        event = self._next_event()
        if event is None:
            self.exhausted = True
            self._buffer.close(self._buffer.root)
            return False
        buffer = self._buffer
        kind = event[0]
        states = self._states
        if kind == 0:  # EVENT_START
            name = event[1]
            state = states[-1]
            entry = self._element_memo[state].get(name)
            if entry is None:
                entry = self._dfa.compute_element(state, name)
            child, parent, counts = entry
            if parent != state:
                # a first-witness [1] step of the parent just exhausted
                states[-1] = parent
            if counts is not None:
                node = self._materialize_child(name, event[2])
                buffer.add_roles(node, counts)
            else:
                node = None
            self._stats.record_token(buffer.live_count)
            if child:  # live state: descend
                self._tags.append(name)
                self._attrs.append(event[2])
                states.append(child)
                self._nodes.append(node)
            else:  # dead state: nothing below this element can match
                self._skip_subtree(node)
        elif kind == 1:  # EVENT_END
            self._tags.pop()
            self._attrs.pop()
            states.pop()
            node = self._nodes.pop()
            if node is not None:
                buffer.close(node)
            self._stats.record_token(buffer.live_count)
        else:  # EVENT_TEXT
            state = states[-1]
            entry = self._text_memo[state]
            if entry is None:
                entry = self._dfa.text(state)
            counts, parent = entry
            if counts is not None:
                top = len(states) - 1
                parent_node = self._nodes[top]
                if parent_node is None:
                    parent_node = self._materialize(top)
                node = buffer.new_text(parent_node, event[3])
                buffer.add_roles(node, counts)
            if parent != state:
                states[-1] = parent
            self._stats.record_token(buffer.live_count)
        return True

    def run_to_end(self) -> None:
        """Drain the remaining input (records the tail of the series)."""
        advance = self.advance
        while advance():
            pass

    # ------------------------------------------------------------------

    def _materialize_child(self, tag, attrs) -> BufferNode:
        """Materialize the arriving element (plus its spine)."""
        top = len(self._nodes) - 1
        parent = self._nodes[top]
        if parent is None:
            parent = self._materialize(top)
        return self._buffer.new_element(parent, tag, attrs)

    def _skip_subtree(self, node: BufferNode | None) -> None:
        """Fast-forward over the just-opened element's subtree: the
        lexer consumes it without building tokens, and the statistics
        record the significant-token count in one bulk step."""
        if node is None:
            # Only fully irrelevant subtrees count as "skipped"; a
            # buffered leaf whose content cannot match is routine.
            self._stats.subtrees_skipped += 1
        try:
            count = self._lexer.skip_subtree()
        except FreezeSignal:
            # already counted in subtrees_skipped; park the node being
            # closed so the resumed advance() must not re-count it
            self._pending_skip = (node,)
            raise
        self._stats.record_tokens(count, self._buffer.live_count)
        if node is not None:
            self._buffer.close(node)


# ---------------------------------------------------------------------------
# the fused front-end's plan data
# ---------------------------------------------------------------------------

#: The certification walk stops enumerating the DFA closure past this
#: many states: the plan still fuses, uncertified (per-tag dispatch).
MAX_CERTIFIED_STATES = 192


@dataclass(frozen=True)
class LexerKernel:
    """Plan data of the fused lexer front-end, the input of
    :class:`FusedStreamProjector`: ``live_tags`` is the closed tag
    alphabet fused into the scan; ``certified`` means the oracle NFA
    proved every tag outside it dead in every reachable state
    (``probed_states`` states passed the probe before the walk
    stopped)."""

    dfa: PathDFA
    live_tags: tuple
    probed_states: int
    certified: bool = True


def _projection_tags(analysis) -> list[str]:
    """All tag names the plan's projection paths can ever match by
    name — the closed tag alphabet fused into the lexer's scan."""
    tags: set[str] = set()
    for role in getattr(analysis, "roles", ()):
        path = getattr(role, "path", None)
        if path is None:
            continue
        for step in path.steps:
            test = step.test
            if getattr(test, "kind", None) == "name" and test.name:
                tags.add(test.name)
    return sorted(tags)


#: The certification probe tag: NUL can never start an XML name, so no
#: document tag collides with it, and pushing it through the oracle NFA
#: answers "what happens to a tag name outside the plan's alphabet?"
#: for one state in one call.
_SENTINEL_TAG = "\x00"


def _probe_fusible(dfa: PathDFA, state: int) -> bool:
    """Is a tag name outside the plan's alphabet fully inert in
    *state*?  The :data:`_SENTINEL_TAG` is pushed through the oracle
    NFA on freshly materialized instances (no shared memo is touched):
    inert means it binds no roles, enters the dead state, and leaves
    the parent state unchanged.  Wildcard and ``node()`` element tests
    match the sentinel and fail the probe; descendant self-loops keep
    it live and fail the probe — exactly the situations where a skip
    cannot be decided by name alone.
    """
    instances = dfa._instances(state)
    child_instances, counts = dfa.matcher.enter_element(
        instances, _SENTINEL_TAG
    )
    if counts:
        return False
    if dfa._canonical(child_instances):
        return False
    return dfa._canonical(instances) == dfa._states[state]


def _certify_live_alphabet(dfa: PathDFA, tags: list[str]) -> tuple | None:
    """Decide how much of the fused-skip decision can be baked;
    returns ``(certified, probed_states)``, or ``None`` when even the
    start state keeps unknown tags live (wildcard or descendant steps
    at the root): fusion could never skip anything, so the plan keeps
    the DFA tables.

    The state closure is walked breadth-first over the alphabet
    *including* text-driven parent adjustments (a fused run can sit in
    a state only reachable through a text event exhausting a ``[1]``
    step), and each state is probed with :func:`_probe_fusible` as the
    walk dequeues it.  ``certified=True`` means the probe passed in
    *every* closure state — an out-of-alphabet tag is dead everywhere,
    so the fused loop may bulk-skip it without touching the DFA at all.
    The walk stops at the first state that fails (``probed_states``
    passed before it), or past :data:`MAX_CERTIFIED_STATES`:
    ``certified=False`` (some state keeps unknown tags live, e.g. a
    trailing ``descendant-or-self::node()`` subtree-copy role or a
    descendant self-loop) still permits fusion — the batch boundary at
    an unknown tag is harmless — but the skip decision must go through
    the shared DFA dispatch per tag.  Stopping early matters: the
    closure of a descendant chain grows with the number of NFA
    derivations, and it is never needed once one state has failed.
    """
    seen: list[int] = [dfa.start]
    seen_set = {dfa.start, PathDFA.dead}
    probed = 0
    while probed < len(seen):
        state = seen[probed]
        if not _probe_fusible(dfa, state):
            return None if probed == 0 else (False, probed)
        probed += 1
        nxt = [dfa.text(state)[1]]
        for tag in tags:
            child, parent, _counts = dfa.element(state, tag)
            nxt.append(child)
            nxt.append(parent)
        for candidate in nxt:
            if candidate not in seen_set:
                seen_set.add(candidate)
                seen.append(candidate)
        if len(seen) > MAX_CERTIFIED_STATES:
            return (False, probed)
    return (True, probed)


def generate_lexer_kernel(dfa: PathDFA | None, analysis) -> LexerKernel | None:
    """The fused front-end's plan data: the alphabet and its
    certificate (:func:`_certify_live_alphabet`), computed once per plan
    compile.  ``None`` when the plan cannot profit from fusion at all —
    no DFA, no named projection tags, or unknown tags stay live even at
    the root (wildcard steps, descendant axes from the root)."""
    if dfa is None:
        return None
    tags = _projection_tags(analysis)
    if not tags:
        return None
    verdict = _certify_live_alphabet(dfa, tags)
    if verdict is None:
        return None
    certified, probed = verdict
    return LexerKernel(
        dfa=dfa,
        live_tags=tuple(tags),
        probed_states=probed,
        certified=certified,
    )


#: Events per ``project_into`` refill: enough to amortize the call over
#: a C-scanned run; a ceiling, not a latency floor (the lexer returns
#: early rather than block while it holds events).
_LEXER_BATCH = 512


class FusedStreamProjector(_DFAStackProjector):
    """The fused lexer front-end (DESIGN.md §15): the
    :class:`CompiledStreamProjector` dispatch, fed in batches.

    ``advance`` refills a queue with
    :meth:`~repro.xmlio.lexer_bytes.ByteXmlLexer.project_into`, which
    stops the batch right behind a start tag outside the plan's alphabet
    — that subtree is never tokenized but consumed by one bulk
    ``skip_subtree``.  *kernel* is the plan's
    :class:`LexerKernel` (alphabet, DFA, and whether
    the alphabet is ``certified``: the flagged tail is then skipped
    without a DFA transition).  ``advance``/``run_to_end`` are closures
    built once per instance, every hot binding in a cell.  Behaviour is
    byte-identical to :class:`CompiledStreamProjector`.

    Freeze-safe: ``project_into`` blocks for input (the only source of
    a ``FreezeSignal``) only while it has appended nothing, and both
    skip sites count the queued events before their one lexer skip, so
    a freeze always leaves the queue empty and parks the shared
    ``_pending_skip = (node,)`` state.
    """

    __slots__ = ("advance", "run_to_end", "_queued")

    def __init__(self, kernel, lexer, buffer: Buffer, stats=None):
        dfa = kernel.dfa
        super().__init__(lexer, dfa, buffer, stats)
        P = self
        project_into = lexer.project_into
        skip_subtree = lexer.skip_subtree
        live = dict.fromkeys(kernel.live_tags)
        certified = kernel.certified
        stats = self._stats
        series = stats.series
        new_element = buffer.new_element
        new_text = buffer.new_text
        add_roles = buffer.add_roles
        close = buffer.close
        EM = dfa._element_memo
        TM = dfa._text_memo
        compute_element = dfa.compute_element
        compute_text = dfa.text
        materialize = self._materialize
        tags = self._tags
        attrs = self._attrs
        states = self._states
        nodes = self._nodes
        queue: list = []
        qi = 0
        qlen = 0
        tail_dead = False
        pending_error = None

        def advance():
            nonlocal qi, qlen, tail_dead, pending_error
            if qi >= qlen:
                if P.exhausted:
                    return False
                if pending_error is not None:
                    # tokenize-ahead hit this error while earlier events
                    # were still queued; those have all been dispatched
                    # now, so the error surfaces on the advance() call
                    # the per-event path would use
                    error = pending_error
                    pending_error = None
                    raise error
                if P._pending_skip is not None:
                    P._resume_skip()
                    return True
                del queue[:]
                try:
                    got = project_into(queue, live, _LEXER_BATCH)
                except Exception as error:
                    if not queue:
                        raise
                    pending_error = error
                    got = len(queue)
                if got == 0:
                    P.exhausted = True
                    close(buffer.root)
                    return False
                if got < 0:
                    tail_dead = certified
                    qlen = -got
                else:
                    tail_dead = False
                    qlen = got
                qi = 0
            event = queue[qi]
            qi += 1
            kind = event[0]
            if kind == 0:
                name = event[1]
                if tail_dead and qi == qlen:
                    # the flagged tail: a start whose name is outside the
                    # certified alphabet — dead in every reachable state,
                    # parent unchanged, no roles; the cursor sits right
                    # behind the start tag
                    tail_dead = False
                    stats.tokens += 1
                    stats.subtrees_skipped += 1
                    lc = buffer.live_count
                    if lc > stats.watermark:
                        stats.watermark = lc
                    if stats.record_series:
                        series.append(lc)
                    try:
                        cnt = skip_subtree()
                    except FreezeSignal:
                        P._pending_skip = (None,)
                        raise
                    if cnt > 0:
                        stats.tokens += cnt
                        if stats.record_series:
                            series.extend([lc] * cnt)
                    return True
                state = states[-1]
                entry = EM[state].get(name)
                if entry is None:
                    entry = compute_element(state, name)
                child, parent, counts = entry
                if parent != state:
                    states[-1] = parent
                if counts is not None:
                    top = len(nodes) - 1
                    pnode = nodes[top]
                    if pnode is None:
                        pnode = materialize(top)
                    node = new_element(pnode, name, event[2])
                    add_roles(node, counts)
                else:
                    node = None
                stats.tokens += 1
                lc = buffer.live_count
                if lc > stats.watermark:
                    stats.watermark = lc
                if stats.record_series:
                    series.append(lc)
                if child:
                    tags.append(name)
                    attrs.append(event[2])
                    states.append(child)
                    nodes.append(node)
                    return True
                # a live-alphabet tag entering the dead state: its
                # subtree may be partly tokenized into the queue already
                # — count those events, then skip every still-open level
                # in one lexer call
                if node is None:
                    stats.subtrees_skipped += 1
                depth = 1
                cnt = 0
                while qi < qlen:
                    k = queue[qi][0]
                    qi += 1
                    cnt += 1
                    if k == 0:
                        depth += 1
                    elif k == 1:
                        depth -= 1
                        if not depth:
                            break
                if depth:
                    stats.tokens += cnt
                    if stats.record_series:
                        series.extend([lc] * cnt)
                    try:
                        cnt = skip_subtree(depth)
                    except FreezeSignal:
                        P._pending_skip = (node,)
                        raise
                if cnt > 0:
                    stats.tokens += cnt
                    if stats.record_series:
                        series.extend([lc] * cnt)
                if node is not None:
                    close(node)
            elif kind == 1:
                tags.pop()
                attrs.pop()
                states.pop()
                node = nodes.pop()
                if node is not None:
                    close(node)
                stats.tokens += 1
                lc = buffer.live_count
                if lc > stats.watermark:
                    stats.watermark = lc
                if stats.record_series:
                    series.append(lc)
            else:
                state = states[-1]
                entry = TM[state]
                if entry is None:
                    entry = compute_text(state)
                counts, parent = entry
                if counts is not None:
                    top = len(states) - 1
                    pnode = nodes[top]
                    if pnode is None:
                        pnode = materialize(top)
                    node = new_text(pnode, event[3])
                    add_roles(node, counts)
                if parent != state:
                    states[-1] = parent
                stats.tokens += 1
                lc = buffer.live_count
                if lc > stats.watermark:
                    stats.watermark = lc
                if stats.record_series:
                    series.append(lc)
            return True

        def run_to_end():
            while advance():
                pass

        def queued():
            return qlen - qi, pending_error

        self.advance = advance
        self.run_to_end = run_to_end
        self._queued = queued

    def snapshot_state(self) -> dict:
        """The shared checkpoint state; refused while events sit in the
        queue or a tokenize-ahead error is pending — neither exists at a
        freeze (see the class docstring), so this guards misuse."""
        queued, error = self._queued()
        if queued or error is not None:
            from repro.core.session import SessionStateError  # import cycle

            raise SessionStateError(
                "fused projector is not quiescent: "
                f"{queued} queued event(s), pending error {error!r}"
            )
        return super().snapshot_state()
