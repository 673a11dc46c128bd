"""Translation validation: the equivalence decision procedure."""

import random

import pytest

from repro.compiler import CompileOptions, compile_regex
from repro.isa.instructions import accept_partial, jmp, match, match_any, split
from repro.isa.program import Program
from repro.oldcompiler.compiler import compile_regex_old
from repro.verify import (
    EquivalenceCheckExceeded,
    accepts,
    assert_programs_equivalent,
    check_equivalence,
)
from repro.vm import run_program

#: The paper's pipeline minus the one span-changing pass.
NO_BOUNDARY = CompileOptions(
    regex_pipeline=("regex-simplify-subregex", "regex-factorize-alternations")
)


class TestChecker:
    def test_identical_programs(self):
        program = compile_regex("ab|cd").program
        result = check_equivalence(program, program)
        assert result.equivalent
        assert result.explored_states > 0

    def test_different_languages_found(self):
        left = compile_regex("ab").program
        right = compile_regex("ac").program
        result = check_equivalence(left, right)
        assert not result.equivalent
        assert result.counterexample is not None
        # The counterexample is accepted by exactly one side.
        assert bool(run_program(left, result.counterexample)) != bool(
            run_program(right, result.counterexample)
        )

    def test_counterexample_is_shortest(self):
        left = compile_regex("^abc$").program
        right = compile_regex("^abd$").program
        result = check_equivalence(left, right)
        assert not result.equivalent
        assert len(result.counterexample) == 3

    def test_subset_not_equivalent(self):
        # ^(a|b)$ strictly contains ^(a)$.
        left = compile_regex("^(a)$").program
        right = compile_regex("^(a|b)$").program
        result = check_equivalence(left, right)
        assert not result.equivalent
        assert result.accepted_by == "right"
        assert result.counterexample == b"b"

    def test_structurally_different_equivalent(self):
        # Same language, different programs.
        left = compile_regex("aa|ab").program
        right = compile_regex("a(a|b)").program
        assert check_equivalence(left, right).equivalent

    def test_assert_helper_raises_with_counterexample(self):
        left = compile_regex("ab").program
        right = compile_regex("cd").program
        with pytest.raises(AssertionError, match="accepted only by"):
            assert_programs_equivalent(left, right)

    def test_state_budget(self):
        # Bounded-counting patterns explode the determinization.
        left = compile_regex("a.{10}b").program
        right = compile_regex("a.{10}c").program
        with pytest.raises(EquivalenceCheckExceeded):
            check_equivalence(left, right, max_states=50)

    def test_hand_written_programs(self):
        # Jump plumbing differences with an identical language.
        left = compile_regex("^a").program
        right = Program([jmp(1), match("a"), jmp(3), accept_partial()])
        assert check_equivalence(left, right).equivalent
        # ...and a genuinely different hand-written one is caught.
        other = Program([jmp(1), match("b"), accept_partial()])
        assert not check_equivalence(left, other).equivalent

    def test_not_match_semantics_respected(self):
        # [^a] via NOT_MATCH chain vs an explicit class-complement...
        left = compile_regex("^[^ab]$").program
        right = compile_regex("^[^ba]$").program
        assert check_equivalence(left, right).equivalent


class TestAcceptsHelper:
    def test_agrees_with_vm(self, corpus_pattern):
        program = compile_regex(corpus_pattern).program
        rng = random.Random(0x7E57)
        for _ in range(20):
            text = "".join(
                rng.choice("abcdefghLIVMDER qux.") for _ in range(rng.randint(0, 14))
            )
            assert accepts(program, text) == bool(run_program(program, text)), text


class TestTranslationValidation:
    """The headline use: prove the compilers agree on whole corpora."""

    def test_old_and_new_compiler_equivalent(self, corpus_pattern):
        new = compile_regex(
            corpus_pattern, NO_BOUNDARY
        ).program
        old = compile_regex_old(corpus_pattern, optimize=True).program
        assert_programs_equivalent(new, old, max_states=100_000)

    def test_jump_simplification_preserves_language(self, corpus_pattern):
        baseline = compile_regex(corpus_pattern, CompileOptions.none()).program
        lowlevel = compile_regex(
            corpus_pattern,
            CompileOptions(regex_pipeline=()),
        ).program
        assert_programs_equivalent(baseline, lowlevel, max_states=100_000)

    def test_highlevel_passes_preserve_language(self, corpus_pattern):
        baseline = compile_regex(corpus_pattern, CompileOptions.none()).program
        transformed = compile_regex(
            corpus_pattern, NO_BOUNDARY
        ).program
        assert_programs_equivalent(baseline, transformed, max_states=100_000)

    def test_boundary_reduction_changes_spans_not_existence(self):
        """The shortest-match pass is the one semantics-changing pass —
        but only for *where* matches end, never *whether* they exist, so
        the language ('does some prefix match') is still preserved."""
        baseline = compile_regex("a{2,3}|b{4,5}", CompileOptions.none()).program
        reduced = compile_regex("a{2,3}|b{4,5}").program
        assert_programs_equivalent(baseline, reduced, max_states=100_000)
