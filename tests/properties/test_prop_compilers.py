"""Property: every compiler configuration agrees with Python re on
match existence, for generated patterns and inputs."""

import re

from hypothesis import given, settings

from repro.compiler import DEFAULT_REGEX_PIPELINE, CompileOptions, compile_regex
from repro.oldcompiler.compiler import compile_regex_old
from repro.vm import run_program
from strategies import inputs, regex_patterns


@settings(max_examples=60, deadline=None)
@given(pattern=regex_patterns(), text=inputs())
def test_new_compiler_agrees_with_python_re(pattern, text):
    gold = re.compile(pattern)
    optimized = compile_regex(pattern).program
    baseline = compile_regex(pattern, CompileOptions.none()).program
    expected = bool(gold.search(text))
    assert bool(run_program(optimized, text)) == expected
    assert bool(run_program(baseline, text)) == expected


@settings(max_examples=60, deadline=None)
@given(pattern=regex_patterns(), text=inputs())
def test_old_compiler_agrees_with_python_re(pattern, text):
    gold = re.compile(pattern)
    expected = bool(gold.search(text))
    assert bool(run_program(compile_regex_old(pattern, optimize=False).program,
                            text)) == expected
    assert bool(run_program(compile_regex_old(pattern, optimize=True).program,
                            text)) == expected


@settings(max_examples=60, deadline=None)
@given(pattern=regex_patterns())
def test_compilers_share_unoptimized_layout(pattern):
    """The old compiler's mapped lowering reproduces the new compiler's
    unoptimized layout instruction for instruction."""
    old = compile_regex_old(pattern, optimize=False).program
    new = compile_regex(pattern, CompileOptions.none()).program
    assert list(old) == list(new)


@settings(max_examples=40, deadline=None)
@given(pattern=regex_patterns())
def test_individual_passes_preserve_matching(pattern):
    """Each high-level pass alone preserves match existence (the
    boundary reduction changes spans, never existence)."""
    import random

    rng = random.Random(0xFACADE)
    variants = [
        compile_regex(pattern, CompileOptions(
            regex_pipeline=passes, cicero_pipeline=())).program
        for passes in ((),) + tuple((name,) for name in DEFAULT_REGEX_PIPELINE)
    ]
    for _ in range(8):
        text = "".join(rng.choice("abcdefgh") for _ in range(rng.randint(0, 14)))
        verdicts = {bool(run_program(program, text)) for program in variants}
        assert len(verdicts) == 1, (pattern, text)
