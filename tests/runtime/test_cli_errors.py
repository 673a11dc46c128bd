"""CLI error handling: structured one-line errors, sysexits-style codes."""

import pytest

from repro.cli import EXIT_REPRO_ERROR, main


def test_good_compile_exits_zero(capsys):
    assert main(["compile", "a(b|c)d"]) == 0
    assert "MATCH" in capsys.readouterr().out


def test_syntax_error_exits_65_with_code(capsys):
    assert main(["compile", "((((("]) == EXIT_REPRO_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error[REPRO-SYNTAX]")
    assert captured.out == ""


def test_nesting_bomb_is_a_structured_error(capsys):
    pattern = "(" * 2000 + "a" + ")" * 2000
    assert main(["compile", pattern]) == EXIT_REPRO_ERROR
    assert "error[REPRO-BUDGET-NESTING]" in capsys.readouterr().err


def test_expansion_bomb_is_a_structured_error(capsys):
    assert main(["compile", "(((a{30}){30}){30}){30}"]) == EXIT_REPRO_ERROR
    assert "error[REPRO-BUDGET-EXPANSION]" in capsys.readouterr().err


def test_run_vm_step_budget_flag(capsys):
    code = main([
        "run", "--functional", "--max-vm-steps", "10",
        "(a|aa)*b", "a" * 50 + "c",
    ])
    assert code == EXIT_REPRO_ERROR
    assert "error[REPRO-BUDGET-VM-STEPS]" in capsys.readouterr().err


def test_run_max_cycles_flag(capsys):
    code = main(["run", "--max-cycles", "3", "a[bc]+d", "xxabcbcdyy"])
    assert code == EXIT_REPRO_ERROR
    assert "error[REPRO-BUDGET-SIM-CYCLES]" in capsys.readouterr().err


def test_unencodable_input_is_a_structured_error(capsys):
    assert main(["run", "ab", "a☃b"]) == EXIT_REPRO_ERROR
    assert "error[REPRO-INPUT-ENCODING]" in capsys.readouterr().err


def test_no_match_still_exits_one(capsys):
    assert main(["run", "--functional", "ab", "zzz"]) == 1


def test_invalid_architecture_config_is_structured(capsys):
    """--config validation errors surface as error[CODE], not tracebacks."""
    assert main(["run", "--config", "3x1", "ab", "ab"]) == EXIT_REPRO_ERROR
    assert "error[REPRO-ARCH-CONFIG]" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--timeout", "inf"), ("--timeout", "nan"),
    ("--wall-timeout", "nan"), ("--wall-timeout", "-inf"),
])
def test_non_finite_scan_timeout_is_a_structured_error(capsys, flag, value):
    code = main(["scan", "--jobs", "2", f"{flag}={value}", "--text", "abd",
                 "a(b|c)d"])
    assert code == EXIT_REPRO_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error[REPRO-ARCH-CONFIG]") and "Traceback" not in err
