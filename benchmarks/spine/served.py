"""The served side of the spine: ``gcx serve`` as its own process and a
closed-loop load generator in this one.

Two processes for the two cores of the box: the server hosts the
engine, this process runs at most two client threads, each sending its
next session only when the previous one finished.  Every session is a
fresh connection (connect → OPEN → CHUNK* → FINISH), timed from the
client side.  A dead or hung server (30 s per-session timeout), a BUSY
or ERROR frame, or an output mismatch fails that session and nothing
else.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import threading
import time

from repro.server.client import GCXClient

from spine import trace
from spine.engine_host import file_chunks, peak_rss_mb

SESSION_TIMEOUT_S = 30.0
#: client connections of the closed loop: with the server, the 2 cores
CLIENTS = 2
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int | str = "self") -> float:
    """User + system CPU seconds of a process so far."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


class Server:
    """``python -m repro.cli serve --port 0 --max-sessions 8 ...`` as a
    child process; the port is parsed from its "listening on" line."""

    def __init__(self, extra_args, env: dict, log_path: str):
        self._log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--max-sessions", "8", *extra_args,
            ],
            stdout=subprocess.DEVNULL,
            stderr=self._log,
            env=env,
        )
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise
        self.host = "127.0.0.1"

    def _await_port(self, timeout_s: float = 60.0) -> int:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with open(self._log_path, encoding="utf-8", errors="replace") as log:
                text = log.read()
            match = re.search(r"listening on \S+:(\d+)", text)
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited at start-up: {text.strip()}")
            time.sleep(0.01)
        raise TimeoutError("server did not report its port")

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stats(self) -> dict:
        with GCXClient(self.host, self.port, timeout=SESSION_TIMEOUT_S) as client:
            return client.stats()

    def stop(self) -> None:
        """Stop the server and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class Sample:
    """One client-side session: latency and what came back."""

    __slots__ = ("seconds", "bytes_in", "digest", "output_bytes", "watermark",
                 "error", "output")

    def __init__(self):
        self.seconds = 0.0
        self.bytes_in = 0
        self.digest = ""
        self.output_bytes = 0
        self.watermark = 0
        self.error = ""
        #: the output itself, only when the caller asked to keep it
        self.output: str | None = None


def run_session(server: Server, query: str, path: str, tracer=trace.OFF,
                keep_output: bool = False):
    """One session over a fresh connection, connect → FINISH received;
    returns the sample and its root span.  Never raises: a failure is
    recorded on the sample."""
    sample = Sample()
    with tracer.root("server.session") as root:
        started = time.perf_counter()
        try:
            with tracer.span("server.connect", root):
                client = GCXClient(
                    server.host, server.port, timeout=SESSION_TIMEOUT_S
                )
            with client:
                with tracer.span("server.open", root):
                    client.open(query)
                for chunk in file_chunks(path, tracer, root):
                    sample.bytes_in += len(chunk)
                    with tracer.span("server.send_chunk", root):
                        client.send_chunk(chunk)
                with tracer.span("server.finish", root):
                    outcome = client.finish()
            data = outcome.output.encode("utf-8")
            sample.digest = hashlib.sha256(data).hexdigest()
            sample.output_bytes = len(data)
            sample.watermark = int(outcome.session.get("watermark", 0))
            if keep_output:
                sample.output = outcome.output
        except Exception as exc:  # BUSY, ERROR, timeout, dead server
            sample.error = f"{type(exc).__name__}: {exc}"
        sample.seconds = time.perf_counter() - started
    return sample, root


def closed_loop(server: Server, queries, path: str,
                sessions_each: int = 0, deadline: float = 0.0,
                tracer=trace.OFF):
    """``CLIENTS`` threads, each running sessions back to back over its
    own round-robin of *queries*: *sessions_each* of them, or until the
    ``perf_counter`` *deadline*.  Returns the wall seconds and one
    ``(query index, sample, root span)`` per session."""
    results: list[list] = [[] for _ in range(CLIENTS)]

    def client_loop(slot: int) -> None:
        done = 0
        while server.alive and (
            done < sessions_each if sessions_each
            else time.perf_counter() < deadline
        ):
            index = (slot + done) % len(queries)
            sample, root = run_session(server, queries[index], path, tracer)
            results[slot].append((index, sample, root))
            done += 1
            if sample.error:
                time.sleep(0.01)  # a refusing or dying server is not spun on

    threads = [
        threading.Thread(target=client_loop, args=(slot,), daemon=True)
        for slot in range(CLIENTS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return wall, [entry for slot in results for entry in slot]
