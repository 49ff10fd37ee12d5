"""CI gate over ``BENCH_throughput.json``: the compiled kernels must win.

Run after ``benchmarks/bench_throughput.py`` has refreshed the JSON.
Fails (exit 1) whenever a compiled kernel would silently regress below
the machinery it exists to replace:

* ``engine_q1_compiled`` (lazy-DFA projector + VM, the default) vs the
  interpreting-oracle baseline ``engine_q1_pull``;
* ``evaluator_vm`` (operator-program VM) vs ``evaluator_interp`` (the
  AST-walking pull evaluator behind the same DFA projector) — the
  evaluation side in isolation;
* ``lexer_bytes`` (the bytes-domain scanner, DESIGN.md §11) vs
  ``lexer_events`` (the str event fast path it replaces on the wire
  path) — the tokenizer in isolation;
* ``lexer_bytes_fused`` (the plan-fused batch scan, DESIGN.md §15:
  ``project_into`` + bulk ``skip_subtree``) vs ``lexer_bytes`` (the
  same scanner tokenizing everything) — fusing the plan's alphabet
  into the scan must stay at least near the unfused scan it
  specializes, whichever batch backend both sides ran on.  The floor
  is 0.85, not 1.0: XMark's dead forest is fine-grained (~780 dead
  subtrees averaging a few hundred bytes in the fig-4 document), so
  with the C scanner active each stop's Python round trip costs about
  what the skipped bytes save and the pair sits at parity (~0.9–1.0);
  on the pure-Python backend the same pair shows the fused win
  directly (~1.1x).  The fused tier's real margin is gated where it
  accrues — ``engine_q1_fused``, whose default tier it now is —
  and ``bench_throughput.py`` separately asserts the fused drain
  actually *skipped* (a fused path that silently stops skipping
  stays at parity here and would pass this ratio);
* ``engine_q1_fused`` (the default pipeline: fused front-end and the
  VM, DESIGN.md §15) vs ``engine_q1_compiled_bytes`` (the same plan
  without its lexer kernel: the DFA tables and the VM) — end to end;
* ``server_8queries_shared`` (8 distinct queries multiplexed over one
  published stream, DESIGN.md §13) vs ``server_8queries_independent``
  (the 8 separate sessions they replace) — the shared lex+project
  pass must keep its fan-out win.

The fused pair carries a tolerance floor (0.85) instead of a
strict ``>=``: on Q1 the tokenizer's ``skip_subtree`` is the
ceiling, so the fused front-end's margin at engine level is smaller than the
run-to-run timing noise of a shared machine — even with both sides
of the pair measured interleaved in one GC-paused window, a strict
gate flaps.  The floor still catches the regression class it exists
for: a kernel silently falling off its fast path (back to the
interpreter) costs far more than 15%.

``lexer_bytes`` additionally carries an **absolute** floor
(:data:`MIN_LEXER_BYTES_MB_S`): the batch-scan rewrite (§15) holds
the tokenizer far above it with the C scanner active (> 25 MB/s
here) *and* with the pure-Python batch loops (~15 MB/s on the dev
container), so the floor is set at roughly half the slowest backend
— low enough that a compiler-less, noisy CI runner passes honestly,
high enough that losing the batch loops entirely (falling back to
per-byte scanning under a heavy interpreter regression) trips it.

The multiplex pair targets a 3x aggregate-throughput win (measured
3.0–3.3x across machines and scales) but gates at 2.7: the two
sides are separate wall-clock measurements of an 8-thread TCP
workload, whose run-to-run spread is ~10% even on a quiet machine.
The floor still catches the real regression class — a driver that
stops skipping, re-lexes per subscriber, or serializes the fan-out
lands near 1x, nowhere near 2.7.

The worker-pool pair (``server_q1_8clients_4workers`` vs the
single-process ``server_q1_8clients``, DESIGN.md §14) targets the
4-core acceptance bar of >= 3x but gates at 2.5: the pool's win is
bounded by the host's cores, and two multi-process TCP wall-clocks
carry the same ~10% spread as the multiplex pair, compounded by CI
runners' neighbours.  A pool that silently stops sharding —
workers contending on one socket, or every connection landing on
one process — sits at 1x, far below 2.5.  The pair is enforced
only when the recording host had at least 4 CPUs (the benchmark
records ``cpu_count``): on fewer cores 4 workers *cannot* beat one
process by 3x, so the honest reading there is the curve itself,
not a ratio gate.

Usage::

    python benchmarks/check_throughput_gate.py [path/to/BENCH_throughput.json]
"""

from __future__ import annotations

import json
import os
import sys

DEFAULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_throughput.json",
)

#: (compiled entry, oracle entry, floor) triples the gate enforces:
#: fail when compiled < floor * oracle.  1.0 is strict; the sub-1.0
#: floors are documented in the module docstring.
GATED_PAIRS = (
    ("engine_q1_compiled", "engine_q1_pull", 1.0),
    ("evaluator_vm", "evaluator_interp", 1.0),
    ("lexer_bytes", "lexer_events", 1.0),
    ("lexer_bytes_fused", "lexer_bytes", 0.85),
    ("engine_q1_fused", "engine_q1_compiled_bytes", 0.85),
    ("server_8queries_shared", "server_8queries_independent", 2.7),
)

#: the worker-pool scaling pair: enforced like GATED_PAIRS, but only
#: when the compiled entry was recorded on a host with at least
#: MIN_POOL_CPUS cores (the ratio is core-bound, see the docstring)
POOL_PAIR = ("server_q1_8clients_4workers", "server_q1_8clients", 2.5)
MIN_POOL_CPUS = 4

#: absolute tokenizer floor in MB/s (see the module docstring): the
#: batch-scan ``lexer_bytes`` clears this on either backend with wide
#: margin; a fall back to per-byte scanning does not
MIN_LEXER_BYTES_MB_S = 8.0


def check(path: str) -> str:
    """Return a success message, or raise SystemExit with the failure."""
    try:
        with open(path, encoding="utf-8") as handle:
            entries = json.load(handle).get("entries", {})
    except (OSError, ValueError) as exc:
        raise SystemExit(f"gate: cannot read {path}: {exc}")
    needed = sorted(
        {name for pair in GATED_PAIRS for name in pair[:2]}
        | set(POOL_PAIR[:2])
    )
    missing = [name for name in needed if name not in entries]
    if missing:
        raise SystemExit(
            f"gate: {path} lacks {', '.join(missing)} — did the "
            "throughput benchmark run?"
        )
    lines = []
    for compiled_name, oracle_name, floor in GATED_PAIRS:
        compiled = entries[compiled_name].get("mb_per_s", 0.0)
        oracle = entries[oracle_name].get("mb_per_s", 0.0)
        if not compiled:
            raise SystemExit(
                f"gate: {compiled_name} was not measured (0 MB/s)"
            )
        if compiled < floor * oracle:
            raise SystemExit(
                f"gate: compiled kernel regressed below its oracle: "
                f"{compiled_name} {compiled} MB/s < {floor} * "
                f"{oracle_name} {oracle} MB/s"
            )
        ratio = compiled / oracle if oracle else float("inf")
        lines.append(
            f"{compiled_name} {compiled} MB/s vs "
            f"{oracle_name} {oracle} MB/s ({ratio:.2f}x)"
        )
    tokenizer = entries["lexer_bytes"].get("mb_per_s", 0.0)
    if tokenizer < MIN_LEXER_BYTES_MB_S:
        raise SystemExit(
            f"gate: tokenizer lost its batch scan: lexer_bytes "
            f"{tokenizer} MB/s < {MIN_LEXER_BYTES_MB_S} MB/s absolute "
            "floor"
        )
    lines.append(
        f"lexer_bytes {tokenizer} MB/s >= {MIN_LEXER_BYTES_MB_S} MB/s "
        "absolute floor"
    )
    pool_name, single_name, floor = POOL_PAIR
    pool = entries[pool_name].get("mb_per_s", 0.0)
    single = entries[single_name].get("mb_per_s", 0.0)
    cpus = entries[pool_name].get("cpu_count") or 0
    if cpus >= MIN_POOL_CPUS:
        if not pool or pool < floor * single:
            raise SystemExit(
                f"gate: worker pool stopped scaling: {pool_name} "
                f"{pool} MB/s < {floor} * {single_name} {single} MB/s "
                f"on a {cpus}-core host"
            )
        lines.append(
            f"{pool_name} {pool} MB/s vs {single_name} {single} MB/s "
            f"({pool / single if single else float('inf'):.2f}x, "
            f"{cpus} cpus)"
        )
    else:
        lines.append(
            f"{pool_name} recorded on {cpus} cpu(s) — scaling ratio "
            f"not enforced (needs >= {MIN_POOL_CPUS})"
        )
    return "gate: ok — " + "; ".join(lines)


if __name__ == "__main__":
    print(check(sys.argv[1] if len(sys.argv) > 1 else DEFAULT_PATH))
