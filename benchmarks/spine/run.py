#!/usr/bin/env python3
"""The measurement spine's one command.

    python benchmarks/spine/run.py [--seed N] [--workload NAME]...
                                   [--seconds S] [--traced] [--smoke]
                                   [--out FILE]

Generates every input from the seed, runs the named workloads (default:
all seven), checks every output, prints every metric by name with its
unit, writes the results to ``results/`` and appends one line to
``history.jsonl``.  The last line of standard output is the JSON object
``BENCHMARK.json``'s contract asks for (``--trace 0|1`` is the
contract's spelling of ``--traced``).  README.md in this directory is
the specification: workloads, metrics, bounds and how they interact.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: the C scanner is built on first use; keep the build inside the checkout
CSCAN_CACHE = os.path.join(HERE, ".build", "cscan")

if __name__ == "__main__":
    # Run as a script (imported, the importer has set the paths up).
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"spine: nothing to measure: {ROOT}/src/repro is missing")
    os.environ["GCX_CSCAN_CACHE"] = CSCAN_CACHE
    # The spine is the package ``spine``; the script's own directory
    # must not be importable, or its ``trace.py`` would shadow the
    # standard library's.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(HERE)]

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

from repro.baselines import FullDomEngine  # noqa: E402
from repro.xmlio import cscan  # noqa: E402

from spine import engine_host, served, trace  # noqa: E402
from spine.workloads import SMALL_BYTES, WORKLOADS, Workload, smoke_variant  # noqa: E402

RESULTS = os.path.join(HERE, "results")
HISTORY = os.path.join(HERE, "history.jsonl")
#: a child that has not answered by then is killed and its workload failed
CHILD_TIMEOUT_S = 150.0


def load_spec() -> dict:
    """``BENCHMARK.json``: the one place that names every metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def units(spec: dict, traced: bool) -> dict[str, str]:
    """Name → unit of the metrics a run of this kind must report."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


@dataclasses.dataclass(frozen=True)
class Options:
    #: run length of one workload's timed region (``run_seconds`` of
    #: ``BENCHMARK.json`` unless ``--seconds`` says otherwise)
    seconds: float
    seed: int = 42
    traced: bool = False
    #: complete set-ups per run; ``setup_s`` is their median
    setup_rounds: int = 3
    #: fewest repetitions of a workload's timed region
    min_reps: int = 3
    #: wall budget of one row of the traced waterfall
    layer_seconds: float = 0.5
    #: fewest small-document sessions behind a fixed-cost row
    small_sessions: int = 200


SMOKE = Options(
    seconds=0.2, setup_rounds=1, min_reps=1, layer_seconds=0.02,
    small_sessions=20,
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["GCX_CSCAN_CACHE"] = CSCAN_CACHE
    return env


def percentile(samples: list[float], share: float) -> float:
    """Nearest-rank percentile (the sample at or above the share)."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# set-up: inputs from the seed, reference from a DOM
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Inputs:
    doc: str
    doc_bytes: int
    twin: str
    #: ``FullDomEngine`` output per query over the twin — correctness
    #: never comes from the code under test
    twin_refs: list[str]
    small: str


def _write(path: str, data: bytes) -> str:
    with open(path, "wb") as handle:
        handle.write(data)
    return path


def make_inputs(workload: Workload, opts: Options, tmp: str) -> Inputs:
    data = workload.document(opts.seed)
    doc = _write(os.path.join(tmp, "doc.xml"), data)
    doc_bytes = len(data)
    twin = doc
    if workload.twin_bytes:
        data = workload.document(opts.seed, workload.twin_bytes)
        twin = _write(os.path.join(tmp, "twin.xml"), data)
    dom = FullDomEngine(record_series=False)
    refs = [dom.run(dom.compile(text), data).output for text in workload.queries]
    small = doc
    if opts.traced and doc_bytes > 2 * SMALL_BYTES:
        small = _write(
            os.path.join(tmp, "small.xml"),
            workload.document(opts.seed, SMALL_BYTES),
        )
    return Inputs(doc, doc_bytes, twin, refs, small)


class EngineChild:
    """The fresh child process that hosts the engine for one round."""

    def __init__(self, workload, files: Inputs, opts: Options, tmp: str,
                 measure: bool, seconds: float, trace_out: str = ""):
        job = {
            "queries": workload.queries,
            "doc": files.doc,
            "doc_bytes": files.doc_bytes,
            "twin": files.twin,
            "twin_refs": files.twin_refs,
            "small": files.small,
            "flat_buffer": workload.flat_buffer,
            "seconds": seconds,
            "min_reps": opts.min_reps,
            "layer_seconds": opts.layer_seconds,
            "measure": measure,
            "traced": opts.traced,
            "trace_out": trace_out,
        }
        job_path = os.path.join(tmp, "job.json")
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--child", job_path],
            stdout=subprocess.PIPE, env=child_env(), text=True,
        )
        self._watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def line(self) -> dict:
        """The child's next answer: ``ready`` first, then the result."""
        text = self.proc.stdout.readline()
        if not text:
            raise RuntimeError(
                f"engine child ended without an answer (exit {self.proc.wait()})"
            )
        return json.loads(text)

    def stop(self) -> None:
        self._watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def check_twin_served(server, workload, files: Inputs) -> dict:
    """The twin through the served driver, byte-equal to the DOM
    reference; also fills the server's plan cache (one miss a query)."""
    equal = True
    watermark = 0
    for text, reference in zip(workload.queries, files.twin_refs):
        sample, _ = served.run_session(server, text, files.twin, keep_output=True)
        equal = equal and sample.output == reference
        watermark = max(watermark, sample.watermark)
        if sample.error:  # do not wait out a hung server once per query
            print(f"spine: twin session failed: {sample.error}", file=sys.stderr)
            break
    return {"twin_ok": equal, "twin_watermark": watermark}


def start_server(workload, tmp: str) -> served.Server:
    return served.Server(
        workload.server_args, child_env(), os.path.join(tmp, "server.log")
    )


# ---------------------------------------------------------------------------
# the untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


class Tally:
    """Operations attempted and failed, and why the first one failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note and len(self.notes) < 5:
            self.notes.append(note)

    def twin(self, workload, twin: dict) -> None:
        count = len(workload.queries)
        self.add(count, 0 if twin["twin_ok"] else count,
                 "twin output differs from the DOM reference")


def measure_push(child: EngineChild, workload, files, twin, tally) -> dict:
    result = child.line()
    tally.add(result["attempted"], result["failed"],
              "pass failed, or output/peak_buffer_nodes did not repeat")
    sessions = len(workload.queries)
    wall = sum(result["pass_seconds"])
    done = result["attempted"] - result["failed"]
    return {
        "throughput_mb_s": engine_host.summary(
            [files.doc_bytes * sessions / s / 1e6 for s in result["pass_seconds"]]
        ),
        "sessions_per_s": {"value": done / wall if wall else 0.0},
        "latencies": result["latencies"],
        "peak_buffer_nodes": {"value": result["watermark"]},
        "peak_rss_mb": {"value": result["rss_mb"]},
    }


class ServedCheck:
    """Output checks of served sessions: every session of a query must
    return the first one's bytes, and on a flat-buffer workload the
    twin's ``peak_buffer_nodes``."""

    def __init__(self, workload, twin: dict):
        self._expect: dict[int, tuple] = {}
        self._watermark = twin["twin_watermark"] if workload.flat_buffer else None
        self.peak_buffer_nodes = 0

    def why_failed(self, index: int, sample) -> str:
        """Why this session counts as failed, or ``""``."""
        if sample.error:
            return sample.error
        key = (sample.digest, sample.output_bytes)
        if self._expect.setdefault(index, key) != key:
            return "output differs from the first session's"
        self.peak_buffer_nodes = max(self.peak_buffer_nodes, sample.watermark)
        if self._watermark is not None and sample.watermark > self._watermark:
            return "peak_buffer_nodes above the twin's"
        return ""


@dataclasses.dataclass
class Rep:
    """One closed-loop repetition: what its correct sessions did."""

    throughput_mb_s: float
    latencies: list[float]
    wall: float
    roots: list


def served_rep(server, workload, files, check, tally, deadline: float,
               tracer=trace.OFF) -> Rep | None:
    """``sessions_per_rep`` sessions a client, or — when that is 0 —
    sessions until the ``perf_counter`` *deadline*; ``None`` once the
    server is gone."""
    wall, entries = served.closed_loop(
        server, workload.queries, files.doc,
        sessions_each=workload.sessions_per_rep, deadline=deadline, tracer=tracer,
    )
    if not entries:
        return None
    good_bytes = 0
    latencies, roots = [], []
    for index, sample, root in entries:
        why = check.why_failed(index, sample)
        tally.add(1, 1 if why else 0, why)
        if not why:
            good_bytes += sample.bytes_in
            latencies.append(sample.seconds)
            roots.append(root)
    return Rep(good_bytes / wall / 1e6, latencies, wall, roots)


def measure_served(server, workload, files, opts, twin, tally) -> dict:
    check = ServedCheck(workload, twin)
    reps: list[Rep] = []
    started = time.perf_counter()
    while rep := served_rep(
        server, workload, files, check, tally, started + opts.seconds
    ):
        reps.append(rep)
        if not workload.sessions_per_rep or (
            len(reps) >= opts.min_reps
            and time.perf_counter() - started >= opts.seconds
        ):
            break
    if not server.alive:
        tally.add(1, 1, "server process died")
    latencies = [s for rep in reps for s in rep.latencies]
    wall = sum(rep.wall for rep in reps)
    return {
        "throughput_mb_s": engine_host.summary([rep.throughput_mb_s for rep in reps]),
        "sessions_per_s": {"value": len(latencies) / wall if wall else 0.0},
        "latencies": latencies,
        "peak_buffer_nodes": {"value": check.peak_buffer_nodes},
        "peak_rss_mb": {"value": server.peak_rss_mb()},
    }


def run_workload(workload: Workload, opts: Options) -> tuple[Tally, dict]:
    """Set up *setup_rounds* times, measure on the last set-up; returns
    the tally and the end-to-end metrics."""
    tally = Tally()
    setups: list[float] = []
    measured: dict = {}
    os.makedirs(RESULTS, exist_ok=True)
    for round_index in range(opts.setup_rounds):
        last = round_index == opts.setup_rounds - 1
        tmp = tempfile.mkdtemp(prefix="tmp-", dir=RESULTS)
        host = None
        try:
            started = time.perf_counter()
            files = make_inputs(workload, opts, tmp)
            if workload.driver == "push":
                host = EngineChild(
                    workload, files, opts, tmp, measure=last, seconds=opts.seconds
                )
                twin = host.line()
            else:
                host = start_server(workload, tmp)
                twin = check_twin_served(host, workload, files)
            setups.append(time.perf_counter() - started)
            if last:
                tally.twin(workload, twin)
                if workload.driver == "push":
                    measured = measure_push(host, workload, files, twin, tally)
                else:
                    measured = measure_served(
                        host, workload, files, opts, twin, tally
                    )
        finally:
            if host is not None:
                host.stop()
            shutil.rmtree(tmp, ignore_errors=True)
    latencies = [s * 1e3 for s in measured.pop("latencies")]
    metrics = {
        **measured,
        "latency_p50_ms": engine_host.summary(latencies),
        "latency_p90_ms": {"value": percentile(latencies, 0.9) if latencies else 0.0},
        "correct_share": {
            "value": (tally.attempted - tally.failed) / tally.attempted
        },
        "setup_s": engine_host.summary(setups),
    }
    return tally, metrics


def finish_result(tally: Tally, metrics: dict, units: dict) -> dict:
    """The workload's report: every metric *units* names, with its
    unit; one the run could not measure reads 0 and fails the run."""
    missing = sorted(set(units) - set(metrics))
    if missing:
        tally.add(len(missing), len(missing), f"not measured: {missing}")
    metrics = {
        name: {**metrics.get(name, {"value": 0.0}), "unit": unit}
        for name, unit in units.items()
    }
    attempted = max(1, tally.attempted)
    failed = tally.failed if tally.attempted else 1
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "notes": tally.notes,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# the traced run: per-layer metrics, outside in
# ---------------------------------------------------------------------------


def _stat(stats: dict, *path, default=0):
    for key in path:
        stats = stats.get(key, {}) if isinstance(stats, dict) else {}
    return stats if isinstance(stats, (int, float)) else default


def served_layers(server, workload, files, opts, twin, engine, tally, tracer) -> dict:
    """The served rows of the waterfall on this workload's own
    (document, queries); *engine* is the in-process child's result."""
    layers: dict[str, float] = {}
    check = ServedCheck(workload, twin)
    before = server.stats()
    cpu_before = (served.cpu_seconds(server.proc.pid), served.cpu_seconds())
    region_started = time.perf_counter()

    # loopback, one client, one session at a time
    seconds, open_ms, blocked, finish_ms = [], [], [], []
    started = time.perf_counter()
    while len(seconds) < opts.min_reps or (
        time.perf_counter() - started < opts.layer_seconds
    ):
        for index, text in enumerate(workload.queries):
            sample, root = served.run_session(server, text, files.doc, tracer)
            why = check.why_failed(index, sample)
            tally.add(1, 1 if why else 0, why)
            if why:
                continue
            if (sample.digest, sample.output_bytes) != tuple(engine["outputs"][index]):
                tally.add(1, 1, "served output differs from the in-process drivers'")
            seconds.append(sample.seconds)
            open_ms.append(tracer.child_seconds(root, "server.open") * 1e3)
            blocked.append(root.waiting_share)
            finish_ms.append(tracer.child_seconds(root, "server.finish") * 1e3)
        if not server.alive:
            break
    if seconds:
        loopback_ns = statistics.median(seconds) * 1e9 / files.doc_bytes
        layers["server.open_ms"] = statistics.median(open_ms)
        layers["server.send_blocked_share"] = statistics.median(blocked)
        layers["server.finish_ms"] = statistics.median(finish_ms)
        layers["server.loopback1_ns_per_byte"] = loopback_ns
        layers["server.delta_ns_per_byte"] = (
            loopback_ns - engine["layers"]["core.session.push_ns_per_byte"]
        )

    # fixed per-session cost: small-document sessions, one at a time
    small = []
    while server.alive and len(small) < opts.small_sessions:
        index = len(small) % len(workload.queries)
        sample, _ = served.run_session(server, workload.queries[index], files.small)
        tally.add(1, 1 if sample.error else 0, sample.error)
        if sample.error:
            break
        small.append(sample.seconds)
    if small:
        layers["server.session_fixed_us"] = (
            statistics.median(small) - engine["run_small_s"]
        ) * 1e6
        layers["server.latency_p99_ms"] = percentile(small, 0.99) * 1e3

    # served workloads: their own closed loop, untraced and traced in
    # turn, for the overhead of tracing itself
    if workload.driver == "served":
        plain, traced = [], []
        slice_s = opts.seconds / (4 * opts.min_reps)
        started = time.perf_counter()
        while len(traced) < opts.min_reps or (
            time.perf_counter() - started < opts.seconds / 2
        ):
            pair = [
                served_rep(server, workload, files, check, tally,
                           time.perf_counter() + slice_s, recorder)
                for recorder in (trace.OFF, tracer)
            ]
            if None in pair:
                break
            plain.append(pair[0].throughput_mb_s)
            traced.append(pair[1].throughput_mb_s)
        if plain:
            layers["trace.overhead_share"] = 1.0 - statistics.median(
                traced
            ) / statistics.median(plain)
    else:
        layers["trace.overhead_share"] = engine["overhead_share"]
    if not server.alive:
        tally.add(1, 1, "server process died")

    wall = time.perf_counter() - region_started
    layers["server.cpu_share"] = (
        served.cpu_seconds(server.proc.pid) - cpu_before[0]
    ) / wall
    layers["client.cpu_share"] = (served.cpu_seconds() - cpu_before[1]) / wall
    if server.alive:
        after = server.stats()

        def delta(*path):
            return _stat(after, *path) - _stat(before, *path)

        layers["server.sessions_completed"] = delta("sessions", "completed")
        layers["server.sessions_failed"] = delta("sessions", "failed")
        layers["server.sessions_rejected"] = delta("sessions", "rejected")
        layers["server.bytes_in"] = delta("bytes", "in")
        layers["server.bytes_out"] = delta("bytes", "out")
        lookups = delta("plan_cache", "hits") + delta("plan_cache", "misses")
        layers["server.plan_cache_hit_rate"] = (
            delta("plan_cache", "hits") / lookups if lookups else 0.0
        )
        layers["server.ttfr_p50_ms"] = _stat(after, "ttfr_ms", "p50")
        layers["server.checkpoints_taken"] = delta("checkpoints", "taken")
        layers["server.snapshot_bytes_p50"] = _stat(
            after, "checkpoints", "snapshot_bytes", "p50"
        )
    return layers


def trace_workload(workload: Workload, opts: Options) -> tuple[Tally, dict]:
    """One set-up; the in-process waterfall in a fresh child, then the
    served rows against a fresh server, one after the other so the two
    never compete for the cores.  The workload's own driver alternates
    untraced and traced for half the run length (the waterfall's other
    rows take about the other half)."""
    tally = Tally()
    tracer = trace.Tracer()
    os.makedirs(RESULTS, exist_ok=True)
    trace_out = os.path.join(RESULTS, f"trace-{workload.name}.jsonl")
    if os.path.exists(trace_out):
        os.remove(trace_out)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=RESULTS)
    layers: dict[str, float] = {}
    try:
        files = make_inputs(workload, opts, tmp)
        child = EngineChild(
            workload, files, opts, tmp, measure=True, trace_out=trace_out,
            seconds=opts.seconds / 2 if workload.driver == "push" else 0.0,
        )
        try:
            twin = child.line()
            tally.twin(workload, twin)
            engine = child.line()
        finally:
            child.stop()
        tally.add(1, 0 if engine["drivers_agree"] else 1,
                  "pull, push, durable push and restore disagree on the output")
        layers.update(engine["layers"])
        server = start_server(workload, tmp)
        try:
            served_twin = check_twin_served(server, workload, files)
            tally.twin(workload, served_twin)
            layers.update(
                served_layers(
                    server, workload, files, opts, served_twin, engine, tally, tracer
                )
            )
        finally:
            server.stop()
    finally:
        tracer.write(trace_out)
        shutil.rmtree(tmp, ignore_errors=True)
    return tally, {name: {"value": value} for name, value in layers.items()}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def print_result(name: str, result: dict) -> None:
    print(f"== {name}: {result['attempted']} attempted, {result['failed']} failed, "
          f"failed_share {result['failed_share']:.4f}")
    for note in result["notes"]:
        print(f"   ! {note}")
    for metric, entry in result["metrics"].items():
        spread = ""
        if "n" in entry:
            spread = f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n {entry['n']}]"
        print(f"   {metric:<42} {entry['value']:>14.6g} {entry['unit']}{spread}")


def contract_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in result["metrics"].items()
            },
        }
    )


def commit_id() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(names: list[str], opts: Options, smoke: bool = False,
        out: str | None = None) -> dict:
    """Run the named workloads; returns the report that was written."""
    report = {
        "meta": {
            "commit": commit_id(),
            "seed": opts.seed,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "scanner": cscan.status,
            "seconds": opts.seconds,
            "traced": opts.traced,
            "smoke": smoke,
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "workloads": {},
    }
    names_units = units(load_spec(), opts.traced)
    for name in names:
        workload = smoke_variant(WORKLOADS[name]) if smoke else WORKLOADS[name]
        try:
            tally, metrics = (trace_workload if opts.traced else run_workload)(
                workload, opts
            )
        except Exception as exc:  # measured, not fatal: report and go on
            tally, metrics = Tally(), {}
            tally.add(1, 1, f"{type(exc).__name__}: {exc}")
        result = finish_result(tally, metrics, names_units)
        report["workloads"][name] = result
        print_result(name, result)
        print(contract_line(result), flush=True)
    os.makedirs(RESULTS, exist_ok=True)
    out = out or os.path.join(
        RESULTS, "spine-traced.json" if opts.traced else "spine.json"
    )
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    if not smoke:
        with open(HISTORY, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {
                        **report["meta"],
                        "workloads": {
                            name: {
                                metric: entry["value"]
                                for metric, entry in result["metrics"].items()
                            }
                            for name, result in report["workloads"].items()
                        },
                    }
                )
                + "\n"
            )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; default: all seven")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length of one workload's timed region")
    parser.add_argument("--traced", action="store_true",
                        help="per-layer metrics instead of end-to-end ones")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="--trace 1 is --traced")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny documents, one repetition: a harness check")
    parser.add_argument("--out", default=None, help="result file")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return engine_host.main(args.child)
    opts = SMOKE if args.smoke else Options(float(load_spec()["run_seconds"]))
    traced = args.traced or bool(args.trace)
    opts = dataclasses.replace(
        opts, seed=args.seed, traced=traced,
        seconds=opts.seconds if args.seconds is None else args.seconds,
        setup_rounds=1 if traced else opts.setup_rounds,
    )
    report = run(args.workload or list(WORKLOADS), opts, args.smoke, args.out)
    ok = all(result["correct"] for result in report["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
