"""The multi-oracle differential harness: agreement, skips, detection."""

import random

import pytest

from repro.compiler import compile_regex
from repro.fuzz import (
    DEFAULT_ORACLES,
    default_fault_for,
    derive_inputs,
    run_case,
)
from repro.fuzz.oracles import _guarded
from repro.frontend.parser import parse_regex
from repro.ir.diagnostics import BudgetExceeded, LoweringError
from repro.runtime.budget import DEFAULT_BUDGET
from repro.runtime.errors import InputEncodingError
from repro.runtime.faults import InstructionFault

AGREEMENT_PATTERNS = [
    "a",
    "ab|cd",
    "th(is|at|ose)",
    "a[bc]+d",
    "x.{2,4}y",
    "^abc$",
    "(a|b)(c|d)",
    "[^ab]x",
    "a{2,3}|b{4,5}",
]


@pytest.mark.parametrize("pattern", AGREEMENT_PATTERNS)
def test_all_oracles_agree_on_known_good_patterns(pattern):
    inputs = derive_inputs(parse_regex(pattern), random.Random(7))
    result = run_case(pattern, inputs)
    assert result.ok, [d.to_dict() for d in result.disagreements]
    assert result.error is None
    # Every input-level oracle produced a verdict or a recorded skip.
    assert set(result.oracles) == set(DEFAULT_ORACLES)


def test_budget_rejection_is_agreement_not_disagreement():
    """All oracles share the frontend: a structured rejection is one
    case-level code, never a differential signal."""
    result = run_case(
        "((a))",
        ["a"],
        budget=DEFAULT_BUDGET.replace(max_nesting_depth=1),
    )
    assert result.ok
    assert result.error == "REPRO-BUDGET-NESTING"


def test_rejection_by_the_optimizer_alone_is_a_disagreement(monkeypatch):
    """A typed, non-budget rejection that only the optimizing pipeline
    raises means a pass broke a valid pattern (the ``ga|gb$``
    factorization bug was waved through as ok=True,
    error="REPRO-LOWERING")."""
    from repro.fuzz import oracles

    real = oracles.NewCompiler.back

    def reject_when_optimizing(compiler, front, *args):
        if compiler.options.factorize_alternations:
            raise LoweringError("'$' is only supported at ...")
        return real(compiler, front, *args)

    monkeypatch.setattr(oracles.NewCompiler, "back", reject_when_optimizing)
    result = run_case("ga|gb", ["ga", "gb"])
    assert not result.ok
    assert result.error == "REPRO-LOWERING"
    (disagreement,) = result.disagreements
    assert disagreement.kind == "compile"
    assert disagreement.verdicts == {
        "opt": ("error", "REPRO-LOWERING"),
        "noopt": ("ok", True),
    }


def test_rejection_by_both_pipelines_is_agreement():
    # '$' inside a group is rejected by the frontend, so at every
    # optimization level alike.
    for pattern in ("(a$|b)", "(ga|gb$)"):
        result = run_case(pattern, ["a", "ga", "gb"])
        assert result.ok, pattern
        assert result.error == "REPRO-UNSUPPORTED", pattern


def test_dfa_blowup_is_a_skip():
    result = run_case("a.{2,4}y", ["axxy"], max_dfa_states=1)
    assert result.ok
    assert result.skips.get("dfa") == "dfa-size-limit"


def test_planted_instruction_fault_is_detected():
    pattern = "th(is|at)"
    result = run_case(pattern, ["this", "that", "those", ""],
                      fault=default_fault_for)
    assert not result.ok
    kinds = {d.kind for d in result.disagreements}
    assert "equivalence" in kinds or "validation" in kinds


def test_planted_fault_counterexample_reaches_input_diff():
    """The equivalence counterexample is replayed through every oracle,
    so the corrupted VM also disagrees at input level."""
    pattern = "abc"
    program = compile_regex(pattern).program
    fault = default_fault_for(program)
    assert isinstance(fault, InstructionFault)
    result = run_case(pattern, ["abc"], fault=fault)
    assert not result.ok
    input_level = [d for d in result.disagreements if d.kind == "input"]
    assert input_level, [d.to_dict() for d in result.disagreements]
    verdicts = input_level[0].verdicts
    # The corrupted oracles vote together, against the clean ones.
    assert verdicts["vm"] == verdicts["vm-ref"] == verdicts["sim"]
    assert verdicts["vm"] != verdicts["noopt"]


def test_oracle_subset_selection():
    result = run_case("ab", ["ab", "x"], oracles=("vm", "old", "pyre"))
    assert result.ok
    assert result.oracles == ("vm", "old", "pyre")


def test_guarded_verdicts_reuse_the_error_taxonomy():
    ok = _guarded(lambda text: True)("x")
    assert ok == ("ok", True)
    skip = _guarded(
        lambda text: (_ for _ in ()).throw(
            BudgetExceeded("too big", limit=1, spent=2)
        )
    )("x")
    assert skip == ("skip", "REPRO-BUDGET")
    error = _guarded(
        lambda text: (_ for _ in ()).throw(InputEncodingError("☃", 0))
    )("x")
    assert error == ("error", "REPRO-INPUT-ENCODING")
    crash = _guarded(lambda text: 1 / 0)("x")
    assert crash[0] == "crash"


def test_two_oracles_rejecting_with_same_code_agree():
    """Identical ('error', code) verdicts are not a disagreement."""
    snowman = "ab☃"
    result = run_case("ab", [snowman], oracles=("vm", "noopt", "old"))
    assert result.ok, [d.to_dict() for d in result.disagreements]


def test_pyre_catastrophic_backtracking_times_out_as_abstain():
    """Python's re is the only non-linear oracle; a backtracking bomb
    must abstain within PYRE_TIMEOUT_SECONDS, never stall the campaign
    (fixed after a fuzzed ``(a*a+..){3,4}`` case ran for minutes)."""
    import time

    from repro.fuzz import oracles as oracles_mod

    pattern = "(a+)+b"
    bomb = "a" * 34 + "c"
    started = time.monotonic()
    result = run_case(
        pattern, [bomb], oracles=("vm", "vm-ref", "pyre")
    )
    elapsed = time.monotonic() - started
    assert result.ok, [d.to_dict() for d in result.disagreements]
    assert elapsed < oracles_mod.PYRE_TIMEOUT_SECONDS * 4


def test_with_deadline_restores_signal_state():
    """The alarm guard must leave no timer or handler behind."""
    import signal
    import time

    from repro.fuzz.oracles import _OracleTimeout, _with_deadline

    before = signal.getsignal(signal.SIGALRM)
    timed = _with_deadline(lambda _t: True, seconds=5.0)
    assert timed("x") is True
    slow = _with_deadline(
        lambda _t: time.sleep(1.0) or True, seconds=0.05
    )
    with pytest.raises(_OracleTimeout):
        slow("x")
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
