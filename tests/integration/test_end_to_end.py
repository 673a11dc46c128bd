"""End-to-end flows exercising the public API across all layers."""

import re

import pytest

import repro
from repro import api
from repro.arch.config import ArchConfig
from repro.compiler import CompileOptions
from repro.evaluation import (
    compile_benchmark,
    format_table,
    run_grid,
    run_on_config,
)
from repro.runtime import Budget, ProgramSizeBudgetError
from repro.workloads import load_benchmark


class TestPublicApi:
    def test_compile_new(self):
        result = api.compile_pattern("th(is|at)")
        assert result.program.compiler == "new-mlir"
        assert result.metrics.code_size == len(result.program)

    def test_compile_old(self):
        result = api.compile_pattern("th(is|at)", compiler="old")
        assert result.program.compiler == "old-single-ir"

    def test_unknown_compiler(self):
        with pytest.raises(ValueError):
            api.compile_pattern("a", compiler="llvm")

    def test_match(self):
        assert api.match("th(is|at)", "say that")
        assert not api.match("th(is|at)", "nothing here")
        assert api.match("ab", "xxabyy", compiler="old")

    def test_simulate_default_config(self):
        result = api.simulate("ab|cd", "xxcdzz")
        assert result.matched
        assert result.config.name == "NEW 16x1 CORES"

    def test_simulate_explicit_config(self):
        result = api.simulate("ab", "xxab", config=ArchConfig.old(4))
        assert result.config.num_engines == 4

    def test_top_level_reexports(self):
        assert repro.compile_regex is not None
        assert repro.match("ab", "ab")


class TestOptimizeSwitch:
    def test_true_and_false_still_compile(self):
        for optimize in (True, False):
            result = api.compile_pattern("a(b|c)d", optimize=optimize)
            assert result.program.instructions

    def test_false_skips_optimization(self):
        optimized = api.compile_pattern("a(b|c)d", optimize=True)
        plain = api.compile_pattern("a(b|c)d", optimize=False)
        assert len(plain.program.instructions) >= len(
            optimized.program.instructions
        )

    def test_false_applies_to_given_options(self):
        """``optimize=False`` runs no pass whatever the options list, and
        keeps the options' other fields."""
        plain = api.compile_pattern("(ab|ac)d", optimize=False)
        assert len(plain.program) == 12
        dce_only = CompileOptions(cicero_pipeline=("cicero-dce",))
        for options in (CompileOptions(), dce_only):
            given = api.compile_pattern("(ab|ac)d", optimize=False, options=options)
            assert given.program.instructions == plain.program.instructions
            assert given.options.pipelines() == ((), ())
        # The options' budget still applies: 12 instructions trip it, the
        # optimized 10 would not.
        budget = Budget(max_program_length=11)
        with pytest.raises(ProgramSizeBudgetError):
            api.compile_pattern(
                "(ab|ac)d", optimize=False, options=CompileOptions(budget=budget)
            )

    def test_old_compiler_accepts_bools(self):
        assert api.compile_pattern(
            "a(b|c)d", compiler="old", optimize=True
        ).program.instructions

    def test_unknown_string_rejected(self):
        with pytest.raises(ValueError):
            api.compile_pattern("abc", optimize="fast")


class TestCompilerEvaluationFlow:
    @pytest.fixture(scope="class")
    def bench(self):
        return load_benchmark("protomata", num_res=3, num_chunks=1)

    def test_static_indicators(self, bench):
        new_opt = compile_benchmark(bench, "new", optimize=True)
        new_noopt = compile_benchmark(bench, "new", optimize=False)
        old_opt = compile_benchmark(bench, "old", optimize=True)
        assert new_opt.avg_code_size > 0
        assert new_opt.avg_compile_seconds > 0
        # Fig. 10 direction: the new compiler's optimized code has
        # better locality than the old compiler's.
        assert new_opt.avg_d_offset < old_opt.avg_d_offset
        assert new_opt.label == "new-opt"
        assert new_noopt.label == "new-noopt"

    def test_execution_row(self, bench):
        compiled = compile_benchmark(bench, "new")
        row = run_on_config(compiled, ArchConfig.new(8))
        assert row.avg_time_us > 0
        assert row.avg_energy_w_us == pytest.approx(
            row.avg_time_us * row.power_w
        )
        assert row.runs == len(bench.patterns) * len(bench.chunks)

    def test_grid(self, bench):
        compiled = compile_benchmark(bench, "new")
        grid = run_grid([compiled], [ArchConfig.old(1), ArchConfig.new(8)])
        assert set(grid) == {"OLD 1x1 CORES", "NEW 8x1 CORES"}
        assert "protomata" in grid["NEW 8x1 CORES"]


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "value"], [("a", 1), ("long-name", 22)], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "long-name" in lines[4]


class TestRealisticScenarios:
    def test_deep_packet_inspection_style(self):
        """Suricata-style content rule."""
        rule = r"GET /[a-z0-9]{1,8}\.php\?id="
        payload = "xxxx GET /admin.php?id=1 HTTP"
        assert api.match(rule, payload)
        assert not api.match(rule, "GET /verylongname.php?id=")

    def test_genomics_style(self):
        motif = "[LIVM][ST]x{0,2}[DE]"  # note: x is a literal here
        assert api.match("[LIVM][ST].{0,2}[DE]", "AALTQQDRR")

    def test_exact_vs_partial(self):
        assert api.match("^GET", "GET /")
        assert not api.match("^GET", "xGET /")
        assert api.match("php$", "index.php")
        assert not api.match("php$", "index.php5")

    def test_binary_payloads(self):
        assert api.match(r"\x00\x01", b"\xff\x00\x01\xff")
