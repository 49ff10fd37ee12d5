"""Lock-safe service metrics: what the STATS frame and ``gcx stats`` report.

The registry is written from three kinds of threads at once — the
asyncio event loop (admission, rejection), the feed/finish executor
threads, and indirectly the per-session workers whose results are
recorded at finish — so every update takes one short lock.  Latencies
are kept in a bounded window; p50/p99 are computed on snapshot, never
on the hot path.
"""

from __future__ import annotations

import threading
import time
from collections import deque


#: snapshot keys that aggregate as a maximum across workers rather
#: than a sum: peaks are fleet-wide peaks, percentile estimates merge
#: conservatively (the fleet p99 is at most the worst worker's p99 —
#: reported as exactly that, since raw windows never cross the
#: process boundary), and uptime is the oldest worker's
_MAX_KEYS = frozenset(
    {"peak_buffer_watermark", "peak_fanout", "p50", "p99", "uptime_s"}
)


def aggregate_snapshots(snapshots: list[dict]) -> dict:
    """Merge per-worker metrics snapshots into fleet-wide totals.

    The aggregation protocol of DESIGN.md §14: numeric leaves are
    summed, except the peak/percentile/uptime keys in ``_MAX_KEYS``
    which take the maximum (a fleet peak is the worst worker's peak;
    percentiles are upper-bounded by the worst worker because the raw
    latency windows stay in their processes).  Nested dicts merge
    recursively; lists and strings keep the first worker's value
    (they are descriptive, not additive).  Derived ratios
    (``plan_cache.hit_rate``) are recomputed from the summed counters
    so the fleet rate is not a meaningless average of averages.
    """
    snapshots = [snap for snap in snapshots if isinstance(snap, dict)]
    if not snapshots:
        return {}

    def merge(values: list, key: str):
        values = [value for value in values if value is not None]
        if not values:
            return None
        first = values[0]
        if isinstance(first, dict):
            merged = {}
            for sub_key in first:
                merged[sub_key] = merge(
                    [value.get(sub_key) for value in values if isinstance(value, dict)],
                    sub_key,
                )
            return merged
        if isinstance(first, bool) or not isinstance(first, (int, float)):
            return first
        numbers = [value for value in values if isinstance(value, (int, float))]
        if key in _MAX_KEYS:
            return max(numbers)
        total = sum(numbers)
        return round(total, 6) if isinstance(total, float) else total

    totals = {
        key: merge([snap.get(key) for snap in snapshots], key)
        for key in snapshots[0]
    }
    plan_cache = totals.get("plan_cache")
    if isinstance(plan_cache, dict):
        lookups = plan_cache.get("hits", 0) + plan_cache.get("misses", 0)
        plan_cache["hit_rate"] = (
            round(plan_cache.get("hits", 0) / lookups, 4) if lookups else 0.0
        )
    return totals


def _percentile(sorted_values: list[float], quantile: float) -> float:
    """Nearest-rank percentile of an already-sorted list (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, round(quantile * (len(sorted_values) - 1)))
    return sorted_values[index]


class ServerMetrics:
    """Counters and latency window of one running service."""

    def __init__(self, latency_window: int = 2048):
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._sessions_opened = 0
        self._sessions_active = 0
        self._sessions_completed = 0
        self._sessions_failed = 0
        self._sessions_rejected = 0
        self._bytes_in = 0
        self._bytes_out = 0
        self._peak_watermark = 0
        #: most recent session latencies, seconds (bounded window so a
        #: long-lived server cannot grow without bound)
        self._latencies: deque[float] = deque(maxlen=latency_window)
        #: most recent times-to-first-result, seconds — how long after
        #: OPEN the first serialized output fragment existed.  Sessions
        #: with empty results record nothing here.
        self._ttfrs: deque[float] = deque(maxlen=latency_window)
        # shared-stream (multiplex) accounting: streams are the
        # published documents, subscribers the queries riding them
        # (each subscriber also holds a session slot and is therefore
        # counted in the session counters above).
        self._streams_opened = 0
        self._streams_active = 0
        self._streams_completed = 0
        self._streams_failed = 0
        self._subscribers_opened = 0
        self._subscribers_active = 0
        self._subscribers_completed = 0
        self._subscribers_failed = 0
        self._peak_fanout = 0
        # checkpoint/resume accounting (DESIGN.md §16): snapshot sizes
        # share the bounded-window discipline of the latency deques
        self._checkpoints_taken = 0
        self._sessions_resumed = 0
        self._snapshot_bytes: deque[int] = deque(maxlen=latency_window)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def session_opened(self) -> None:
        with self._lock:
            self._sessions_opened += 1
            self._sessions_active += 1

    def session_finished(
        self,
        latency_seconds: float,
        watermark: int,
        time_to_first_result: float | None = None,
    ) -> None:
        with self._lock:
            self._sessions_active -= 1
            self._sessions_completed += 1
            self._latencies.append(latency_seconds)
            if time_to_first_result is not None:
                self._ttfrs.append(time_to_first_result)
            if watermark > self._peak_watermark:
                self._peak_watermark = watermark

    def session_failed(self) -> None:
        with self._lock:
            self._sessions_active -= 1
            self._sessions_failed += 1

    def session_rejected(self) -> None:
        with self._lock:
            self._sessions_rejected += 1

    def stream_opened(self) -> None:
        with self._lock:
            self._streams_opened += 1
            self._streams_active += 1

    def stream_finished(self, fanout: int) -> None:
        with self._lock:
            self._streams_active -= 1
            self._streams_completed += 1
            if fanout > self._peak_fanout:
                self._peak_fanout = fanout

    def stream_failed(self) -> None:
        with self._lock:
            self._streams_active -= 1
            self._streams_failed += 1

    def subscriber_opened(self, fanout: int) -> None:
        """*fanout* is the stream's subscriber count including this one."""
        with self._lock:
            self._subscribers_opened += 1
            self._subscribers_active += 1
            if fanout > self._peak_fanout:
                self._peak_fanout = fanout

    def subscriber_finished(self) -> None:
        with self._lock:
            self._subscribers_active -= 1
            self._subscribers_completed += 1

    def subscriber_failed(self) -> None:
        with self._lock:
            self._subscribers_active -= 1
            self._subscribers_failed += 1

    def checkpoint_taken(self, snapshot_bytes: int) -> None:
        with self._lock:
            self._checkpoints_taken += 1
            self._snapshot_bytes.append(snapshot_bytes)

    def session_resumed(self) -> None:
        """A RESUME rebuilt a session here (also counted as opened)."""
        with self._lock:
            self._sessions_resumed += 1

    def add_bytes_in(self, count: int) -> None:
        with self._lock:
            self._bytes_in += count

    def add_bytes_out(self, count: int) -> None:
        with self._lock:
            self._bytes_out += count

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def snapshot(self, plan_cache=None, dfa=None, programs=None,
                 multiplex=None) -> dict:
        """A JSON-ready view of the registry.

        *plan_cache* takes a :class:`~repro.core.plan.PlanCacheStats`;
        when given, the snapshot includes the compile-once counters and
        the hit rate the service's shared cache achieves.  *dfa* takes
        the aggregate returned by
        :meth:`~repro.core.plan.PlanCache.dfa_stats` — the occupancy of
        the compiled kernels' shared transition memos (how much of the
        per-token work the connections have amortized away).
        *programs* takes
        :meth:`~repro.core.plan.PlanCache.program_stats` — the compiled
        operator programs backing the evaluation side.  *multiplex* takes the
        scheduler's live shared-stream occupancy (DESIGN.md §13); the
        stream/subscriber counters recorded here are merged into it.
        """
        with self._lock:
            latencies = sorted(self._latencies)
            ttfrs = sorted(self._ttfrs)
            snapshot_sizes = sorted(self._snapshot_bytes)
            snap = {
                "uptime_s": round(time.monotonic() - self._started, 3),
                "sessions": {
                    "opened": self._sessions_opened,
                    "active": self._sessions_active,
                    "completed": self._sessions_completed,
                    "failed": self._sessions_failed,
                    "rejected": self._sessions_rejected,
                },
                "bytes": {"in": self._bytes_in, "out": self._bytes_out},
                "peak_buffer_watermark": self._peak_watermark,
                "latency_ms": {
                    "count": len(latencies),
                    "p50": round(_percentile(latencies, 0.50) * 1000, 3),
                    "p99": round(_percentile(latencies, 0.99) * 1000, 3),
                },
                "ttfr_ms": {
                    "count": len(ttfrs),
                    "p50": round(_percentile(ttfrs, 0.50) * 1000, 3),
                    "p99": round(_percentile(ttfrs, 0.99) * 1000, 3),
                },
                "checkpoints": {
                    "taken": self._checkpoints_taken,
                    "sessions_resumed": self._sessions_resumed,
                    "snapshot_bytes": {
                        "count": len(snapshot_sizes),
                        "p50": _percentile(snapshot_sizes, 0.50),
                        "p99": _percentile(snapshot_sizes, 0.99),
                    },
                },
            }
        if plan_cache is not None:
            lookups = plan_cache.hits + plan_cache.misses
            snap["plan_cache"] = {
                "hits": plan_cache.hits,
                "misses": plan_cache.misses,
                "canonical_reuses": plan_cache.canonical_reuses,
                "size": plan_cache.size,
                "capacity": plan_cache.capacity,
                "hit_rate": round(plan_cache.hits / lookups, 4) if lookups else 0.0,
            }
        if dfa is not None:
            snap["dfa"] = dict(dfa)
        if programs is not None:
            snap["programs"] = dict(programs)
        if multiplex is not None:
            with self._lock:
                snap["multiplex"] = {
                    "streams": {
                        "opened": self._streams_opened,
                        "active": self._streams_active,
                        "completed": self._streams_completed,
                        "failed": self._streams_failed,
                    },
                    "subscribers": {
                        "opened": self._subscribers_opened,
                        "active": self._subscribers_active,
                        "completed": self._subscribers_completed,
                        "failed": self._subscribers_failed,
                    },
                    "peak_fanout": self._peak_fanout,
                    **dict(multiplex),
                }
        return snap
