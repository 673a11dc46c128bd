"""Resource budgets: every guarded dimension trips with a typed error."""

import pytest

from repro import api
from repro.arch.config import ConfigurationError
from repro.compiler import DEFAULT_REGEX_PIPELINE, CompileOptions, NewCompiler
from repro.engine import Engine
from repro.frontend.errors import PatternNestingError
from repro.frontend.parser import parse_regex
from repro.ir.diagnostics import IRError
from repro.oldcompiler.compiler import OldCompiler
from repro.oldcompiler.frontend import parse_regex_old
from repro.runtime.budget import Budget, DEFAULT_BUDGET
from repro.runtime.errors import (
    ExpansionBudgetError,
    PassBudgetError,
    PatternLengthBudgetError,
    ProgramSizeBudgetError,
    VMStepBudgetError,
)
from repro.runtime.guards import estimate_expansion
from repro.vm.thompson import ThompsonVM

DEEP = "(" * 5000 + "a" + ")" * 5000


def test_budget_is_immutable():
    with pytest.raises(Exception):
        DEFAULT_BUDGET.max_vm_steps = 1


def test_unlimited_budget_disables_every_check():
    unlimited = Budget.unlimited()
    unlimited.check_pattern_length("a" * 1_000_000)
    unlimited.check_expansion(10**9, "a{9999}")
    unlimited.check_program_size(10**6, "a")
    unlimited.check_pass_time(10**6, "stage")
    unlimited.check_vm_steps(10**9)


def test_replace_overrides_one_limit():
    tight = DEFAULT_BUDGET.replace(max_vm_steps=7)
    assert tight.max_vm_steps == 7
    assert tight.max_pattern_length == DEFAULT_BUDGET.max_pattern_length


@pytest.mark.parametrize("name", [
    "max_pass_seconds", "max_task_seconds", "max_wall_seconds",
])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_seconds_are_rejected_when_built(name, value):
    # An infinite task timeout used to overflow the supervisor's
    # selector, and a NaN pass limit to disable its own check.
    with pytest.raises(ConfigurationError, match=name):
        Budget(**{name: value})
    with pytest.raises(ConfigurationError, match=name):
        DEFAULT_BUDGET.replace(**{name: value})
    assert getattr(DEFAULT_BUDGET.replace(**{name: 2.5}), name) == 2.5


def test_pattern_length_budget():
    with pytest.raises(PatternLengthBudgetError) as excinfo:
        Budget(max_pattern_length=4).check_pattern_length("abcde")
    assert excinfo.value.limit == 4
    assert excinfo.value.spent == 5


@pytest.mark.parametrize("parse", [parse_regex, parse_regex_old],
                         ids=["new-frontend", "old-frontend"])
def test_deep_nesting_is_a_typed_error_not_recursion(parse):
    """The ISSUE's canary: 5000 nested groups must never surface a raw
    RecursionError from the recursive-descent parsers."""
    with pytest.raises(PatternNestingError) as excinfo:
        parse(DEEP)
    assert excinfo.value.code == "REPRO-BUDGET-NESTING"


@pytest.mark.parametrize("parse", [parse_regex, parse_regex_old],
                         ids=["new-frontend", "old-frontend"])
def test_nesting_exactly_at_the_limit_parses(parse):
    depth = 20
    pattern = "(" * depth + "a" + ")" * depth
    assert parse(pattern, max_depth=depth) is not None
    with pytest.raises(PatternNestingError):
        parse(pattern, max_depth=depth - 1)


def test_expansion_estimate_multiplies_nested_repetitions():
    flat = estimate_expansion(parse_regex("a{30}"))
    nested = estimate_expansion(parse_regex("((a{30}){30}){30}"))
    assert nested > flat * 100


def test_expansion_budget_rejects_counted_repetition_bomb():
    with pytest.raises(ExpansionBudgetError) as excinfo:
        NewCompiler().compile("(((a{30}){30}){30}){30}")
    assert excinfo.value.spent > excinfo.value.limit
    assert excinfo.value.code == "REPRO-BUDGET-EXPANSION"


def test_expansion_budget_applies_to_old_compiler_too():
    with pytest.raises(ExpansionBudgetError):
        OldCompiler().compile("(((a{30}){30}){30}){30}")


def test_program_size_budget():
    options = CompileOptions(budget=Budget(max_program_length=5))
    with pytest.raises(ProgramSizeBudgetError) as excinfo:
        NewCompiler(options).compile("th(is|at|ose)")
    assert excinfo.value.code == "REPRO-BUDGET-PROGRAM-SIZE"


def test_pass_time_budget_trips_deterministically_at_zero():
    options = CompileOptions(budget=Budget(max_pass_seconds=0))
    with pytest.raises(PassBudgetError) as excinfo:
        NewCompiler(options).compile("a(b|c)d")
    assert excinfo.value.stage


def test_pattern_budgets_hold_whatever_the_pass_budget():
    """Expansion and nesting are checked before any pass runs."""
    zero = Budget(max_pass_seconds=0)
    with pytest.raises(ExpansionBudgetError):
        api.compile_pattern("(((a{30}){30}){30}){30}", budget=zero)
    with pytest.raises(PatternNestingError):
        api.compile_pattern("(" * 2000 + "a" + ")" * 2000, budget=zero)


def test_api_compile_pattern_raises_the_compilers_pass_budget_error():
    """compile_pattern compiles once, so a pass-time trip is not retried."""
    zero = Budget(max_pass_seconds=0)
    with pytest.raises(PassBudgetError) as direct:
        NewCompiler(CompileOptions(budget=zero)).compile("a(b|c)+d")
    with pytest.raises(PassBudgetError) as via_api:
        api.compile_pattern("a(b|c)+d", budget=zero)
    assert via_api.value.code == "REPRO-BUDGET-PASS-TIME"
    assert via_api.value.stage == direct.value.stage


def _compile_via_api(pattern, options):
    return api.compile_pattern(pattern, options=options)


def _compile_via_engine(pattern, options):
    return Engine(options=options).matcher(pattern)


@pytest.mark.parametrize(
    "compile_",
    [_compile_via_api, _compile_via_engine],
    ids=["compile_pattern", "engine"],
)
@pytest.mark.parametrize(
    "pipeline", [("regex-renamed-away",), ("cicero-dce",)]
)
def test_bad_explicit_pass_name_reaches_the_caller(pipeline, compile_):
    options = CompileOptions(regex_pipeline=pipeline)
    with pytest.raises(IRError) as excinfo:
        compile_("a(b|c)d", options)
    assert excinfo.value.code == "REPRO-IR"
    assert pipeline[0] in str(excinfo.value)
    assert DEFAULT_REGEX_PIPELINE[0] in str(excinfo.value)


def test_pass_time_budget_skipped_when_no_passes_run():
    options = CompileOptions(
        regex_pipeline=(), cicero_pipeline=(), budget=Budget(max_pass_seconds=0)
    )
    result = NewCompiler(options).compile("a(b|c)d")
    assert len(result.program) > 0


def test_vm_step_budget():
    program = NewCompiler().compile("(a|aa)*b").program
    with pytest.raises(VMStepBudgetError) as excinfo:
        ThompsonVM(program).run("a" * 300 + "c", max_steps=100)
    assert excinfo.value.code == "REPRO-BUDGET-VM-STEPS"
    assert excinfo.value.spent > 100


def test_vm_without_budget_still_finishes():
    program = NewCompiler().compile("(a|aa)*b").program
    assert ThompsonVM(program).run("aaab").matched


def test_default_budget_accepts_normal_patterns():
    result = NewCompiler().compile("th(is|at|ose)[0-9a-f]{2,8}x*")
    assert len(result.program) > 0
