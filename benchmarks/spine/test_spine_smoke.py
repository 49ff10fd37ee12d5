"""Smoke test of the measurement spine (collected by the plain tier-1
``pytest -x -q``): ``--smoke`` on every workload reports every metric
``BENCHMARK.json`` names, fails nothing and leaves nothing behind — no
server process, no temp file — also after a workload that failed.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import math
import os
import subprocess
import sys

import pytest

from spine import compare, run, served
from spine.workloads import WORKLOADS, smoke_variant

SPEC = run.load_spec()


def _leftovers() -> list[str]:
    return glob.glob(os.path.join(run.RESULTS, "tmp-*"))


def _assert_complete(result: dict, traced: bool) -> None:
    expected = run.units(SPEC, traced)
    assert list(result["metrics"]) == list(expected)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == expected[name]
        assert math.isfinite(entry["value"]), name


@pytest.mark.parametrize("traced", [False, True], ids=["end_to_end", "per_layer"])
def test_smoke_reports_every_metric(tmp_path, traced):
    out = tmp_path / "spine.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--smoke",
         "--trace", str(int(traced)), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    report = json.loads(out.read_text())
    assert list(report["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, result in report["workloads"].items():
        assert result["failed_share"] == 0, (name, result["notes"])
        _assert_complete(result, traced)
    # the contract's last line is the last workload's result
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    assert not _leftovers()
    if traced:
        _assert_spans_nest(os.path.join(run.RESULTS, "trace-served_small.jsonl"))
        _assert_spans_nest(os.path.join(run.RESULTS, "trace-xmark_join.jsonl"))
    # a run agrees with itself, and is not compared across settings
    rows, regressed = compare.compare(report, report, SPEC)
    assert rows and regressed == 0
    other = tmp_path / "other.json"
    report["meta"]["seed"] += 1
    other.write_text(json.dumps(report))
    assert compare.main([str(out), str(other)]) == 2


def _assert_spans_nest(path: str) -> None:
    """Spans of one session share its id and nest under one root."""
    with open(path, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    by_id = {span["id"]: span for span in spans}
    assert len(by_id) == len(spans) > 0
    for span in spans:
        if span["parent"] is None:
            assert span["session"] == span["id"]
            continue
        root = by_id[span["parent"]]
        assert root["parent"] is None and span["session"] == root["id"]
        assert root["start_ns"] <= span["start_ns"] <= span["end_ns"] <= root["end_ns"]


@pytest.mark.parametrize(
    "server_args",
    [("--max-sessions", "1"), ("--fault-plan", "seed=1,kill_at=400000")],
    ids=["busy_frames", "dead_server"],
)
def test_failures_are_measured_not_fatal(monkeypatch, server_args):
    started: list[served.Server] = []

    class Recorded(served.Server):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(served, "Server", Recorded)
    workload = dataclasses.replace(
        smoke_variant(WORKLOADS["served_small"]), server_args=server_args
    )
    result = run.finish_result(
        *run.run_workload(workload, run.SMOKE), run.units(SPEC, False)
    )
    assert not result["correct"] and 0 < result["failed"] <= result["attempted"]
    _assert_complete(result, traced=False)
    assert started and all(not server.alive for server in started)
    assert not _leftovers()
