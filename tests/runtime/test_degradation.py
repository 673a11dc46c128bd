"""Graceful degradation: recoverable budget trips drop passes, not requests."""

import pytest

from repro import api
from repro.compiler import (
    DEFAULT_REGEX_PIPELINE,
    CompileOptions,
    NewCompiler,
)
from repro.ir.diagnostics import IRError
from repro.runtime.budget import Budget
from repro.runtime.degrade import DEGRADATION_LADDER, compile_with_degradation
from repro.runtime.errors import (
    ExpansionBudgetError,
    PassBudgetError,
    PatternNestingError,
)
from repro.verify.equivalence import assert_programs_equivalent

#: max_pass_seconds=0 deterministically trips the pass-time check
#: whenever any optimization pass runs.
ZERO_PASS_BUDGET = Budget(max_pass_seconds=0)


def test_full_strength_compile_is_not_degraded():
    result = compile_with_degradation("a(b|c)d", CompileOptions())
    assert result.dropped_passes == []
    assert not result.degraded


def test_pass_time_trip_degrades_to_unoptimized():
    options = CompileOptions(budget=ZERO_PASS_BUDGET)
    result = compile_with_degradation("th(is|at|ose)", options)
    assert result.degraded
    # The ladder bottoms out with every optional pass disabled.
    assert set(result.dropped_passes) == {
        flag for rung in DEGRADATION_LADDER for flag in rung
    }


def test_degraded_result_is_language_equivalent():
    pattern = "th(is|at|ose)[bc]{2,4}x*"
    degraded = compile_with_degradation(
        pattern, CompileOptions(budget=ZERO_PASS_BUDGET)
    )
    full = NewCompiler().compile(pattern)
    assert_programs_equivalent(full.program, degraded.program)


def test_non_recoverable_errors_skip_the_ladder():
    options = CompileOptions(budget=Budget(max_pass_seconds=0))
    with pytest.raises(ExpansionBudgetError):
        compile_with_degradation("(((a{30}){30}){30}){30}", options)
    with pytest.raises(PatternNestingError):
        compile_with_degradation("(" * 2000 + "a" + ")" * 2000, options)


def test_ladder_exhaustion_reraises_the_last_budget_error():
    """A budget no pass-dropping can satisfy surfaces the final failure."""
    options = CompileOptions(optimize=False, budget=Budget(max_program_length=2))
    with pytest.raises(Exception) as excinfo:
        compile_with_degradation("abcdef", options)
    assert excinfo.value.code == "REPRO-BUDGET-PROGRAM-SIZE"


def test_api_compile_pattern_degrades_by_default():
    result = api.compile_pattern("a(b|c)+d", budget=ZERO_PASS_BUDGET)
    assert result.degraded
    assert result.program is not None


def test_api_compile_pattern_degrade_false_raises():
    with pytest.raises(PassBudgetError):
        api.compile_pattern("a(b|c)+d", budget=ZERO_PASS_BUDGET, degrade=False)


def test_api_match_still_works_under_degradation():
    assert api.match("a(b|c)+d", "xxabcd", budget=ZERO_PASS_BUDGET).matched


def test_dropped_passes_progression_is_ladder_ordered():
    """Dropped flags follow the ladder's most-expensive-first order."""
    options = CompileOptions(budget=ZERO_PASS_BUDGET)
    result = compile_with_degradation("ab|cd", options)
    flattened = [flag for rung in DEGRADATION_LADDER for flag in rung]
    assert result.dropped_passes == flattened


@pytest.fixture
def compiled_pipelines(monkeypatch):
    """The ``pipelines()`` of every ``NewCompiler.compile`` call, in order."""
    seen = []
    compile_ = NewCompiler.compile

    def recording(self, pattern):
        seen.append(self.options.pipelines())
        return compile_(self, pattern)

    monkeypatch.setattr(NewCompiler, "compile", recording)
    return seen


def test_explicit_pipeline_degrades_like_the_default_order(compiled_pipelines):
    default = compile_with_degradation(
        "th(is|at|ose)", CompileOptions(budget=ZERO_PASS_BUDGET)
    )
    del compiled_pipelines[:]
    options = CompileOptions(
        budget=ZERO_PASS_BUDGET, regex_pipeline=DEFAULT_REGEX_PIPELINE[::-1]
    )
    result = compile_with_degradation("th(is|at|ose)", options)
    assert result.dropped_passes == default.dropped_passes
    assert compiled_pipelines[-1] == ((), ())
    # One compile per rung, each of a pipeline not tried before.
    assert len(compiled_pipelines) == 1 + len(DEGRADATION_LADDER)
    assert len(set(compiled_pipelines)) == len(compiled_pipelines)


def test_rung_with_nothing_to_remove_is_skipped(compiled_pipelines):
    simplify = DEFAULT_REGEX_PIPELINE[0]
    options = CompileOptions(
        budget=ZERO_PASS_BUDGET,
        regex_pipeline=(simplify, simplify),
        cicero_pipeline=(),
    )
    result = compile_with_degradation("a(b|c)d", options)
    assert result.dropped_passes == ["simplify_subregex"]
    assert compiled_pipelines == [((simplify, simplify), ()), ((), ())]


@pytest.mark.parametrize("degrade", [True, False])
@pytest.mark.parametrize(
    "pipeline", [("regex-renamed-away",), ("cicero-dce",)]
)
def test_bad_explicit_pass_name_reaches_the_caller(pipeline, degrade):
    """The ladder catches budget trips, not a pipeline that cannot be built."""
    options = CompileOptions(regex_pipeline=pipeline)
    with pytest.raises(IRError) as excinfo:
        api.compile_pattern("a(b|c)d", options=options, degrade=degrade)
    assert excinfo.value.code == "REPRO-IR"
    assert pipeline[0] in str(excinfo.value)
    assert DEFAULT_REGEX_PIPELINE[0] in str(excinfo.value)
