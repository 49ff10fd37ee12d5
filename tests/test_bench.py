"""Tests for the benchmark harness and reporting."""

import pytest

from repro.baselines import FluxLikeEngine
from repro.bench.harness import BenchResult, buffer_profile, compare_engines, run_engine
from repro.bench.reporting import ascii_plot, format_table
from repro.core.engine import GCXEngine
from repro.datasets.bib import BIB_QUERY, figure3c_document


class TestHarness:
    def test_run_engine_collects_measurements(self):
        result = run_engine(
            GCXEngine(), BIB_QUERY, figure3c_document(), "bib", "41 nodes"
        )
        assert result.engine == "gcx"
        assert result.watermark == 23
        assert result.tokens == 82
        assert result.seconds > 0

    def test_repeat_keeps_best_time(self):
        slow = run_engine(GCXEngine(), BIB_QUERY, figure3c_document(), repeat=3)
        assert slow.seconds > 0

    def test_buffer_profile_series(self):
        series = buffer_profile(GCXEngine(), BIB_QUERY, figure3c_document())
        assert len(series) == 82
        assert max(series) == 23

    def test_compare_engines_reports_na(self):
        results = compare_engines(
            [GCXEngine(), FluxLikeEngine(dtd=None)],
            "for $i in /a/descendant::b return $i",
            "<a><b></b></a>",
        )
        assert results[0].supported
        assert not results[1].supported
        assert results[1].cell() == "n/a"

    def test_cell_formatting(self):
        result = BenchResult("gcx", "q1", "10MB", 0.18, 11000, 100, 10)
        assert result.cell() == "0.18s / 1.23MB"

    def test_cell_formatting_small_memory_in_kb(self):
        result = BenchResult("gcx", "q1", "10MB", 0.18, 20, 100, 10)
        assert result.cell() == "0.18s / 2.2KB"

    def test_estimated_mb_scales_with_watermark(self):
        small = BenchResult("e", "q", "d", 1.0, 100, 1, 1)
        large = BenchResult("e", "q", "d", 1.0, 10000, 1, 1)
        assert large.estimated_mb == pytest.approx(100 * small.estimated_mb)


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(
            ["query", "gcx", "dom"],
            [["q1", "0.1s", "2.0s"], ["q8-long", "1.0s", "3.0s"]],
        )
        lines = table.splitlines()
        assert lines[0].startswith("query")
        assert len(lines) == 4
        # all rows equally wide (trailing spaces aside)
        assert len(set(len(line.rstrip()) for line in lines[2:])) <= 2

    def test_ascii_plot_contains_peak(self):
        plot = ascii_plot([0, 1, 5, 2, 0], title="demo")
        assert "demo" in plot
        assert "peak 5" in plot
        assert "*" in plot

    def test_ascii_plot_empty_series(self):
        assert "(empty series)" in ascii_plot([], title="t")

    def test_ascii_plot_downsamples(self):
        plot = ascii_plot(list(range(1000)), width=40, height=8)
        longest = max(len(line) for line in plot.splitlines())
        assert longest < 70

    def test_ascii_plot_flat_series(self):
        plot = ascii_plot([3, 3, 3], width=10, height=4)
        assert "peak 3" in plot


class TestThroughputGate:
    """The CI gate enforces compiled >= interpreting on every kernel
    pair (projector, evaluator, lexer, fused front-end)."""

    #: a payload that satisfies every gated pair, overridden per test.
    #: engine_q1_fused deliberately sits below engine_q1_compiled_bytes
    #: but above its 0.85 floor — the documented noise tolerance.
    PASSING = dict(
        engine_q1_compiled=10.0,
        engine_q1_pull=4.0,
        evaluator_vm=12.0,
        evaluator_interp=9.0,
        lexer_bytes=15.0,
        lexer_bytes_fused=14.0,
        lexer_events=10.0,
        engine_q1_fused=9.5,
        engine_q1_compiled_bytes=10.0,
        server_8queries_shared=24.0,
        server_8queries_independent=8.0,
        server_q1_8clients=8.0,
        server_q1_8clients_4workers={"mb_per_s": 24.0, "cpu_count": 4},
    )

    @staticmethod
    def _gate():
        import importlib.util
        import os

        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks",
            "check_throughput_gate.py",
        )
        spec = importlib.util.spec_from_file_location("throughput_gate", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def _entries(**mb_per_s):
        return {
            "entries": {
                name: value if isinstance(value, dict) else {"mb_per_s": value}
                for name, value in mb_per_s.items()
            }
        }

    def _write(self, tmp_path, payload):
        import json

        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_passes_when_compiled_wins_all_pairs(self, tmp_path):
        gate = self._gate()
        path = self._write(tmp_path, self._entries(**self.PASSING))
        message = gate.check(path)
        assert "evaluator_vm" in message and "ok" in message
        assert "lexer_bytes" in message
        assert "engine_q1_fused" in message
        assert "server_8queries_shared" in message

    def test_multiplex_pair_gates_at_its_documented_floor(self, tmp_path):
        """The shared/independent pair carries a 2.7x floor: 3.0x
        passes (PASSING encodes it), 2.0x is the regression class the
        gate exists for — a driver that stops sharing the pass."""
        gate = self._gate()
        path = self._write(
            tmp_path,
            self._entries(**{**self.PASSING, "server_8queries_shared": 16.0}),
        )
        with pytest.raises(SystemExit, match="server_8queries_shared"):
            gate.check(path)

    def test_pool_pair_gates_on_multicore_hosts(self, tmp_path):
        """On a >=4-core recording host the 4-worker pool must hold
        its 2.5x floor: 3.0x passes (PASSING encodes it), 1.2x is a
        pool that stopped sharding."""
        gate = self._gate()
        path = self._write(
            tmp_path,
            self._entries(
                **{
                    **self.PASSING,
                    "server_q1_8clients_4workers": {
                        "mb_per_s": 9.6,
                        "cpu_count": 4,
                    },
                }
            ),
        )
        with pytest.raises(SystemExit, match="stopped scaling"):
            gate.check(path)

    def test_pool_pair_not_enforced_on_few_cores(self, tmp_path):
        """Recorded on 1 cpu, 4 workers cannot beat one process 3x —
        the same 1.2x ratio passes with an honest 'not enforced'
        note instead of a false regression."""
        gate = self._gate()
        path = self._write(
            tmp_path,
            self._entries(
                **{
                    **self.PASSING,
                    "server_q1_8clients_4workers": {
                        "mb_per_s": 9.6,
                        "cpu_count": 1,
                    },
                }
            ),
        )
        message = gate.check(path)
        assert "not enforced" in message
        assert "server_q1_8clients_4workers" in message

    def test_fails_when_pool_entries_missing(self, tmp_path):
        gate = self._gate()
        payload = {
            name: value
            for name, value in self.PASSING.items()
            if name != "server_q1_8clients_4workers"
        }
        path = self._write(tmp_path, self._entries(**payload))
        with pytest.raises(SystemExit, match="server_q1_8clients_4workers"):
            gate.check(path)

    def test_fails_when_vm_regresses_below_interpreter(self, tmp_path):
        gate = self._gate()
        path = self._write(
            tmp_path, self._entries(**{**self.PASSING, "evaluator_vm": 8.0})
        )
        with pytest.raises(SystemExit, match="evaluator_vm"):
            gate.check(path)

    def test_fails_when_bytes_lexer_regresses_below_str(self, tmp_path):
        gate = self._gate()
        path = self._write(
            tmp_path, self._entries(**{**self.PASSING, "lexer_bytes": 9.0})
        )
        with pytest.raises(SystemExit, match="lexer_bytes"):
            gate.check(path)

    def test_fused_scan_pair_gates_at_its_documented_floor(self, tmp_path):
        """The fused/unfused scan pair carries a 0.85 parity floor
        (DESIGN.md §15): 14.0 vs 15.0 passes (PASSING encodes it),
        11.0 vs 15.0 is a fused path that lost its batch machinery."""
        gate = self._gate()
        path = self._write(
            tmp_path,
            self._entries(**{**self.PASSING, "lexer_bytes_fused": 11.0}),
        )
        with pytest.raises(SystemExit, match="lexer_bytes_fused"):
            gate.check(path)

    def test_tokenizer_absolute_floor(self, tmp_path):
        """``lexer_bytes`` also carries an absolute MB/s floor: a
        tokenizer that lost batch scanning entirely fails even if it
        still beats the str event path's ratio."""
        gate = self._gate()
        path = self._write(
            tmp_path,
            self._entries(
                **{
                    **self.PASSING,
                    "lexer_bytes": 7.0,
                    "lexer_events": 4.0,
                    "lexer_bytes_fused": 7.0,
                }
            ),
        )
        with pytest.raises(SystemExit, match="absolute"):
            gate.check(path)

    def test_engine_fused_pair_tolerates_noise_but_has_a_floor(
        self, tmp_path
    ):
        """End to end the tokenizer is the ceiling, so the fused/
        tables engine pair carries a 0.85 floor: 9.5 vs 10.0 passes
        (PASSING already encodes that), 8.0 vs 10.0 fails."""
        gate = self._gate()
        path = self._write(
            tmp_path,
            self._entries(**{**self.PASSING, "engine_q1_fused": 8.0}),
        )
        with pytest.raises(SystemExit, match="engine_q1_fused"):
            gate.check(path)

    def test_fails_when_evaluator_entries_missing(self, tmp_path):
        gate = self._gate()
        payload = {
            name: value
            for name, value in self.PASSING.items()
            if not name.startswith("evaluator")
        }
        path = self._write(tmp_path, self._entries(**payload))
        with pytest.raises(SystemExit, match="evaluator"):
            gate.check(path)


class TestProfileStages:
    def test_harness_runs_and_attributes_stages(self, capsys):
        import importlib.util
        import os

        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks",
            "profile_stages.py",
        )
        spec = importlib.util.spec_from_file_location("profile_stages", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.main(["--scale", "0.3", "--repeat", "1"]) == 0
        out = capsys.readouterr().out
        for stage in ("lexer_str", "lexer_bytes", "projector", "engine"):
            assert stage in out
        assert "MB/s" in out
