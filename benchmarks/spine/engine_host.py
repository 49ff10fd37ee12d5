"""The in-process side of the spine: runs in a fresh child process.

The child never holds the document — it streams the temp file in
64 KiB binary chunks — so its ``VmHWM`` is the engine's memory, not the
generator's or the DOM reference's (those live in the parent).

Only public entry points are called: ``GCXEngine(record_series=False)``
(the engine the server itself builds; the per-token plot series would
make memory linear in the input), ``compile/run/session/
restore_session``, ``StreamSession.feed/finish/snapshot``,
``make_lexer(...).tokens_into`` and the wire codec.  No tier switch is
ever passed, so the numbers follow whatever the production path is.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import sys
import time

from repro import GCXEngine
from repro.server.protocol import FrameDecoder, FrameType, encode_frame
from repro.xmlio.lexer import make_lexer

from spine import trace

CHUNK = 64 * 1024


def file_chunks(path: str, tracer=trace.OFF, root=None):
    """Stream *path* in 64 KiB binary reads (the load generator)."""
    with open(path, "rb") as handle:
        while True:
            with tracer.span("input.read", root):
                chunk = handle.read(CHUNK)
            if not chunk:
                return
            yield chunk


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process in 10^6 bytes (0.0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return 0.0


def summary(samples: list[float]) -> dict:
    """Median, quartiles and count of one timing's samples."""
    if not samples:
        return {"value": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(samples) == 1:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {
        "value": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "n": len(samples),
    }


def repeat(fn, budget_s: float, min_reps: int = 1):
    """Call ``fn() -> seconds`` with a ``gc.collect()`` between calls
    until *budget_s* of wall time and *min_reps* calls are used up."""
    samples = []
    started = time.perf_counter()
    while len(samples) < min_reps or time.perf_counter() - started < budget_s:
        gc.collect()
        samples.append(fn())
    return samples


class Observed:
    """What one pass over a workload's queries produced."""

    def __init__(self):
        #: (SHA-256, length) of each query's output, in query order
        self.outputs: list[tuple[str, int]] = []
        self.watermark = 0
        self.stats = None

    def add(self, result) -> None:
        data = result.output.encode("utf-8")
        self.outputs.append((hashlib.sha256(data).hexdigest(), len(data)))
        self.watermark = max(self.watermark, result.stats.watermark)
        self.stats = result.stats

    @property
    def output_bytes(self) -> int:
        return sum(length for _, length in self.outputs)

    def key(self) -> tuple:
        return (tuple(self.outputs), self.watermark)


def push_session(engine, plan, path, tracer=trace.OFF, checkpointable=False):
    """One ``StreamSession`` over the file: open → feed* → finish."""
    with tracer.root("core.session") as root:
        with tracer.span("core.session.open", root):
            session = engine.session(plan, checkpointable=checkpointable)
        try:
            for chunk in file_chunks(path, tracer, root):
                with tracer.span("core.session.feed", root):
                    session.feed(chunk)
            with tracer.span("core.session.finish", root):
                result = session.finish()
        except BaseException:
            session.abort()
            raise
    return result, root


class Host:
    """One engine, the workload's compiled plans and its files."""

    def __init__(self, job: dict):
        self.job = job
        self.engine = GCXEngine(record_series=False)
        self.plans = [self.engine.compile(text) for text in job["queries"]]

    # -- drivers: each returns (seconds, Observed) for one pass ---------

    def push_pass(self, path, tracer=trace.OFF, checkpointable=False):
        seen = Observed()
        roots = []
        started = time.perf_counter()
        for plan in self.plans:
            result, root = push_session(
                self.engine, plan, path, tracer, checkpointable
            )
            seen.add(result)
            roots.append(root)
        return time.perf_counter() - started, seen, roots

    def pull_pass(self, path):
        seen = Observed()
        started = time.perf_counter()
        for plan in self.plans:
            with open(path, "rb") as handle:
                seen.add(self.engine.run(plan, handle))
        return time.perf_counter() - started, seen

    # -- set-up: the twin through this host's own driver ----------------

    def check_twin(self) -> dict:
        """Warm every cache on the twin and compare its outputs, byte
        for byte, with the reference the parent computed on a DOM."""
        watermark = 0
        equal = True
        for plan, reference in zip(self.plans, self.job["twin_refs"]):
            result, _ = push_session(self.engine, plan, self.job["twin"])
            equal = equal and result.output == reference
            watermark = max(watermark, result.stats.watermark)
        return {"twin_ok": equal, "twin_watermark": watermark}

    # -- the primary measurement ----------------------------------------

    def measure(self, twin: dict) -> dict:
        job = self.job
        first: tuple | None = None
        latencies: list[float] = []
        failed = 0

        def one_pass():
            nonlocal first, failed
            try:
                seconds, seen, _ = self.push_pass(job["doc"])
            except Exception as exc:  # a failed pass is measured, not fatal
                print(f"spine: pass failed: {exc!r}", file=sys.stderr)
                failed += len(self.plans)
                return 0.0
            if first is None:
                first = seen.key()
            if seen.key() != first or (
                job["flat_buffer"] and seen.watermark != twin["twin_watermark"]
            ):
                failed += len(self.plans)
            latencies.append(seconds / len(self.plans))
            return seconds

        passes = repeat(one_pass, job["seconds"], job["min_reps"])
        return {
            "pass_seconds": [s for s in passes if s > 0.0],
            "latencies": latencies,
            "attempted": len(passes) * len(self.plans),
            "failed": failed,
            "watermark": first[1] if first else 0,
            "rss_mb": peak_rss_mb(),
        }

    # -- the traced run's in-process waterfall --------------------------

    def waterfall(self, twin: dict, tracer) -> dict:
        """Every in-process layer on this workload's own (document,
        queries), outside in.  Time rows are ns per input byte so they
        subtract; counts must repeat exactly."""
        job = self.job
        doc = job["doc"]
        passes = len(self.plans)
        budget = job["layer_seconds"]
        layers: dict[str, float] = {}

        def ns_per_byte(samples, sessions=passes):
            return statistics.median(samples) * 1e9 / (job["doc_bytes"] * sessions)

        def read():
            for _ in file_chunks(doc):
                pass

        events = 0

        def tokenize():
            nonlocal events
            lexer = make_lexer(file_chunks(doc))
            sink: list = []
            events = 0
            while count := lexer.tokens_into(sink):
                events += count
                sink.clear()

        layers["input.read_ns_per_byte"] = ns_per_byte(
            repeat(_timed(read), budget), 1
        )
        tokenize_ns = ns_per_byte(repeat(_timed(tokenize), budget), 1)
        layers["xmlio.tokenize_ns_per_byte"] = tokenize_ns
        layers["xmlio.events"] = events

        compile_s, hit_s = [], []
        for text in job["queries"]:
            fresh = GCXEngine(record_series=False)
            compile_s.append(_timed(lambda: fresh.compile(text))())
            hit_s.extend(repeat(_timed(lambda: fresh.compile(text)), 0.0, 200))
        layers["core.plan.compile_ms"] = statistics.median(compile_s) * 1e3
        layers["core.plan.cache_hit_us"] = statistics.median(hit_s) * 1e6

        #: every driver's (outputs, watermark) on the document: pull,
        #: push, durable push and restore must agree on one
        keys = set()
        pulled: list[Observed] = []

        def keyed(driver, keep=None):
            def run():
                seconds, seen, *_ = driver()
                keys.add(seen.key())
                if keep is not None:
                    keep.append(seen)
                return seconds
            return run

        run_ns = ns_per_byte(
            repeat(keyed(lambda: self.pull_pass(doc), pulled), budget)
        )
        pull_seen = pulled[-1]
        stats = pull_seen.stats
        layers["core.engine.run_ns_per_byte"] = run_ns
        layers["core.engine.delta_ns_per_byte"] = run_ns - tokenize_ns
        layers["core.projector.tokens"] = stats.tokens
        layers["core.projector.subtrees_skipped"] = stats.subtrees_skipped
        layers["core.projector.buffered_share"] = (
            stats.nodes_buffered / events if events else 0.0
        )
        layers["core.buffer.nodes_buffered"] = stats.nodes_buffered
        layers["core.buffer.nodes_purged"] = stats.nodes_purged
        layers["core.buffer.roles_assigned"] = stats.roles_assigned
        layers["core.buffer.roles_removed"] = stats.roles_removed
        layers["core.buffer.peak_nodes"] = pull_seen.watermark
        layers["core.buffer.peak_nodes_twin"] = twin["twin_watermark"]
        layers["core.evaluator.output_bytes"] = pull_seen.output_bytes

        # push: untraced and traced passes alternate, so both see the
        # same machine; the traced ones supply the span shares
        plain, traced, blocked, finish_ms = [], [], [], []
        push = keyed(lambda: self.push_pass(doc))
        started = time.perf_counter()
        while not plain or time.perf_counter() - started < max(
            budget, job["seconds"]
        ):
            gc.collect()
            plain.append(push())
            gc.collect()
            seconds, seen, roots = self.push_pass(doc, tracer)
            traced.append(seconds)
            keys.add(seen.key())
            for root in roots:
                blocked.append(root.waiting_share)
                finish_ms.append(
                    tracer.child_seconds(root, "core.session.finish") * 1e3
                )
        push_ns = ns_per_byte(plain)
        layers["core.session.push_ns_per_byte"] = push_ns
        layers["core.session.delta_ns_per_byte"] = push_ns - run_ns
        layers["core.session.feed_blocked_share"] = statistics.median(blocked)
        layers["core.session.finish_ms"] = statistics.median(finish_ms)

        durable = keyed(lambda: self.push_pass(doc, checkpointable=True))
        layers["core.session.durable_delta_ns_per_byte"] = (
            ns_per_byte(repeat(durable, budget)) - push_ns
        )
        keys.add(self._snapshot_layers(layers).key())

        def codec():
            decoder = FrameDecoder()
            for chunk in file_chunks(doc):
                decoder.feed(encode_frame(FrameType.CHUNK, chunk))

        layers["server.protocol.codec_ns_per_byte"] = ns_per_byte(
            repeat(_timed(codec), budget), 1
        )

        # fixed per-session cost: on the small document the per-byte
        # work is the same for run and push, so the difference is the
        # session machinery (channels, worker thread, hand-off)
        small = job["small"]
        run_small = statistics.median(
            repeat(lambda: self.pull_pass(small)[0], budget, 20)
        ) / passes
        push_small = statistics.median(
            repeat(lambda: self.push_pass(small)[0], budget, 20)
        ) / passes
        layers["core.session.fixed_us"] = (push_small - run_small) * 1e6

        return {
            "layers": layers,
            "run_small_s": run_small,
            "overhead_share": 1.0
            - statistics.median(plain) / statistics.median(traced),
            "drivers_agree": len(keys) == 1,
            "outputs": pull_seen.outputs,
        }

    def _snapshot_layers(self, layers: dict) -> Observed:
        """Checkpoint each session mid-document, restore it from the
        blob and finish on the restored session."""
        snapshot_ms, restore_ms, blob_bytes = [], [], []
        seen = Observed()
        half = self.job["doc_bytes"] // CHUNK // 2
        for plan in self.plans:
            session = self.engine.session(plan, checkpointable=True)
            try:
                for index, chunk in enumerate(file_chunks(self.job["doc"])):
                    session.feed(chunk)
                    if index == half:
                        started = time.perf_counter()
                        blob = session.snapshot()
                        snapshot_ms.append((time.perf_counter() - started) * 1e3)
                        session.abort()
                        started = time.perf_counter()
                        session = self.engine.restore_session(blob)
                        restore_ms.append((time.perf_counter() - started) * 1e3)
                        blob_bytes.append(len(blob))
                seen.add(session.finish())
            except BaseException:
                session.abort()
                raise
        layers["core.snapshot.snapshot_ms"] = statistics.median(snapshot_ms)
        layers["core.snapshot.restore_ms"] = statistics.median(restore_ms)
        layers["core.snapshot.blob_bytes"] = statistics.median(blob_bytes)
        return seen


def _timed(fn):
    def run():
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started
    return run


def main(job_path: str) -> int:
    """Child entry: twin check, ``ready`` line, then the measurement."""
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    host = Host(job)
    twin = host.check_twin()
    print(json.dumps({"ready": True, **twin}), flush=True)
    if not job["measure"]:
        return 0
    if job["traced"]:
        tracer = trace.Tracer()
        result = host.waterfall(twin, tracer)
        tracer.write(job["trace_out"])
    else:
        result = host.measure(twin)
    print(json.dumps(result), flush=True)
    return 0
