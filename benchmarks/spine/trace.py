"""In-memory span recorder for the spine's traced runs.

Spans are recorded by the benchmark's own files, around the public
calls into each layer (spans inside the program are a later change).
A span is ``name, start, end, parent, session`` plus the CPU time its
thread used meanwhile (so ``1 - cpu / duration`` is the share of the
span spent waiting, wherever the wait happened): all spans of one
session share the session id and nest under one root span.  Spans stay
in memory and are appended to a JSONL file when the run ends.

Untraced runs use :data:`OFF`, whose ``span()`` costs one call and a
shared no-op context manager, so the drivers have a single code path.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import time


class Span:
    """One open or closed span; ``with`` closes it."""

    __slots__ = ("id", "name", "parent", "session", "start", "end", "cpu")

    def __init__(self, span_id, name, parent, session):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.session = session
        self.cpu = time.thread_time_ns()
        self.start = time.perf_counter_ns()
        self.end = None

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.end = time.perf_counter_ns()
        self.cpu = time.thread_time_ns() - self.cpu

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9

    @property
    def waiting_share(self) -> float:
        """Share of the span its thread spent off the CPU."""
        return 1.0 - self.cpu / (self.end - self.start)


class Tracer:
    """Collects spans; ids are unique across the threads and processes
    of one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()  # next() is atomic; len(spans) is not

    def span(self, name: str, parent: Span | None) -> Span:
        span_id = f"{os.getpid()}-{next(self._ids)}"
        span = Span(
            span_id, name,
            parent.id if parent else None,
            parent.session if parent else span_id,
        )
        self.spans.append(span)
        return span

    def root(self, name: str) -> Span:
        """Open a session: a root span whose id is the session id."""
        return self.span(name, None)

    def child_seconds(self, root: Span, name: str) -> float:
        """Total duration of *root*'s direct children called *name*."""
        return sum(
            s.seconds for s in self.spans if s.parent == root.id and s.name == name
        )

    def write(self, path: str) -> None:
        """Append every closed span to *path*, one JSON object a line."""
        with open(path, "a", encoding="utf-8") as handle:
            for s in self.spans:
                if s.end is None:
                    continue
                handle.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "parent": s.parent,
                            "session": s.session,
                            "start_ns": s.start,
                            "end_ns": s.end,
                            "cpu_ns": s.cpu,
                        }
                    )
                    + "\n"
                )


class _Off:
    """The tracing-off recorder: every span is the same no-op."""

    _noop = contextlib.nullcontext()

    def root(self, name):
        return self._noop

    def span(self, name, parent):
        return self._noop


OFF = _Off()
