"""Experiment drivers (repro.evaluation)."""

import pytest

from repro.arch.config import ArchConfig
from repro.compiler import CompileOptions
from repro.evaluation import (
    compile_benchmark,
    format_table,
    run_grid,
    run_on_config,
)
from repro.workloads.suite import load_benchmark


@pytest.fixture(scope="module")
def bench():
    return load_benchmark("brill", num_res=3, num_chunks=1)


class TestCompileBenchmark:
    def test_programs_and_timings(self, bench):
        compiled = compile_benchmark(bench, "new", optimize=True)
        assert len(compiled.programs) == 3
        assert len(compiled.compile_seconds) == 3
        assert all(seconds > 0 for seconds in compiled.compile_seconds)

    def test_static_aggregates(self, bench):
        compiled = compile_benchmark(bench, "new", optimize=False)
        assert compiled.avg_code_size > 0
        assert compiled.avg_d_offset > 0
        assert compiled.avg_compile_seconds > 0

    def test_options_override(self, bench):
        options = CompileOptions(
            regex_pipeline=("regex-simplify-subregex", "regex-factorize-alternations")
        )
        custom = compile_benchmark(bench, "new", options=options)
        assert custom.compiler == "new"
        assert custom.label == "new-opt"

    def test_label_follows_the_passes_that_run(self, bench):
        """An options set that runs no pass is the "w/o optimizations"
        row whichever argument said so."""
        for compiled in (
            compile_benchmark(bench, "new", options=CompileOptions.none()),
            compile_benchmark(bench, "new", optimize=False, options=CompileOptions()),
        ):
            assert (compiled.optimized, compiled.label) == (False, "new-noopt")
            assert compiled.programs == compile_benchmark(
                bench, "new", optimize=False
            ).programs

    def test_old_compiler(self, bench):
        compiled = compile_benchmark(bench, "old", optimize=True)
        assert compiled.label == "old-opt"
        assert all(
            program.compiler == "old-single-ir" for program in compiled.programs
        )

    def test_unknown_compiler_rejected(self, bench):
        with pytest.raises(ValueError):
            compile_benchmark(bench, "gcc")

    def test_timing_repeats_take_best(self, bench):
        slow = compile_benchmark(bench, "new", timing_repeats=1)
        fast = compile_benchmark(bench, "new", timing_repeats=4)
        # best-of-4 can only be <= a single-shot measurement, modulo
        # noise; allow generous slack but catch systematic regressions.
        assert fast.avg_compile_seconds <= slow.avg_compile_seconds * 1.6


class TestRunOnConfig:
    def test_row_fields(self, bench):
        compiled = compile_benchmark(bench, "new")
        row = run_on_config(compiled, ArchConfig.new(8))
        assert row.benchmark == "brill"
        assert row.config_name == "NEW 8x1 CORES"
        assert row.runs == 3
        assert row.avg_time_us > 0
        assert row.avg_energy_w_us == pytest.approx(row.avg_time_us * row.power_w)
        assert row.instructions > 0

    def test_max_patterns_limits_work(self, bench):
        compiled = compile_benchmark(bench, "new")
        row = run_on_config(compiled, ArchConfig.new(8), max_patterns=1)
        assert row.runs == 1

    def test_grid_structure(self, bench):
        compiled = compile_benchmark(bench, "new")
        grid = run_grid([compiled], [ArchConfig.old(1), ArchConfig.new(8)])
        assert set(grid) == {"OLD 1x1 CORES", "NEW 8x1 CORES"}
        assert grid["OLD 1x1 CORES"]["brill"].total_cycles > 0


class TestFormatTable:
    def test_handles_mixed_types(self):
        text = format_table(["a", "b"], [(1, "x"), (2.5, None)])
        assert "2.5" in text and "None" in text

    def test_empty_rows(self):
        text = format_table(["col"], [])
        assert "col" in text
