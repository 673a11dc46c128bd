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
        if "regex-factorize-alternations" in compiler.options.pipelines()[0]:
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


def test_rejection_by_the_unoptimized_back_half_is_a_disagreement(
    monkeypatch,
):
    """Lowering that reuses one label fails IR verification in both
    pipelines; the frontend accepted the pattern, so that is a compile
    disagreement, not an agreeing frontend rejection (the seeded mutant
    ``self._label_counter += 0`` was waved through as frontend-rejected
    and the campaign exited 0)."""
    from repro.dialects.cicero.lowering import _Emitter
    from repro.fuzz import CampaignConfig, run_campaign
    from repro.ir.attributes import SymbolRefAttr

    monkeypatch.setattr(
        _Emitter, "fresh_label", lambda self, hint="L": SymbolRefAttr("L1")
    )
    result = run_case("a(b|c)+d", ["abd"])
    assert not result.ok
    (disagreement,) = result.disagreements
    assert disagreement.kind == "compile"
    assert disagreement.verdicts == {
        "noopt": ("error", result.error),
        "frontend": ("ok", True),
    }
    report = run_campaign(
        CampaignConfig(seconds=60, max_cases=6, seed=12648512, shrink=False)
    )
    assert not report.clean
    assert report.rejected_cases == 0


def test_unknown_oracle_names_are_rejected():
    with pytest.raises(ValueError, match="unknown oracle 'vmm'"):
        run_case("ab", ["ab"], oracles=("vmm",))


def test_rejection_by_both_pipelines_is_agreement():
    # '$' inside a group is rejected by the frontend, so at every
    # optimization level alike; '(a?)*' is an ISA limit that lowering
    # and the old compiler both reject.
    for pattern, code in (("(a$|b)", "REPRO-UNSUPPORTED"),
                          ("(ga|gb$)", "REPRO-UNSUPPORTED"),
                          ("(a?)*", "REPRO-LOWERING")):
        result = run_case(pattern, ["a", "ga", "gb"])
        assert result.ok, pattern
        assert result.error == code, pattern


def test_old_equivalence_check_runs_without_the_old_oracle(monkeypatch):
    from repro.fuzz import oracles

    class WrongOldCompiler(oracles.OldCompiler):
        def compile(self, pattern):
            return super().compile("ac")

    monkeypatch.setattr(oracles, "OldCompiler", WrongOldCompiler)
    result = run_case("ab", ["ab"], oracles=("vm-pre",))
    assert [d.kind for d in result.disagreements] == ["equivalence"]
    assert set(result.disagreements[0].verdicts) == {"equivalence-old"}


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
    assert verdicts["vm-pre"] == verdicts["sim"] == verdicts["stream"]
    assert verdicts["sim"] != verdicts["old"] == verdicts["multi"]


def test_each_counterexample_is_probed_once():
    """Both equivalence checks can return the same counterexample; it is
    replayed once, after the caller's inputs, in first-seen order."""
    pattern = "abc"
    fault = default_fault_for(compile_regex(pattern).program)
    result = run_case(pattern, ["abc"], fault=fault)
    found = [d.input for d in result.disagreements if d.kind == "equivalence"]
    assert found
    assert result.inputs[0] == "abc"
    assert len(result.inputs) == len(set(result.inputs))
    for text in found:
        assert result.inputs.count(text) == 1
    input_level = [d.input for d in result.disagreements if d.kind == "input"]
    assert len(input_level) == len(set(input_level))


def test_oracle_subset_selection():
    result = run_case("ab", ["ab", "x"], oracles=("sim", "old", "stream"))
    assert result.ok
    assert result.oracles == ("sim", "old", "stream")


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
    result = run_case("ab", [snowman], oracles=("vm-pre", "old", "sim"))
    assert result.ok, [d.to_dict() for d in result.disagreements]
