"""The three §3.2 high-level transform sets, on the paper's own examples.

Each test compiles a pattern to the regex dialect, runs one (or all)
transform pass(es), and compares against the expected pattern via the
dialect→pattern emitter.
"""

import re
import zlib

import pytest

from repro.api import compile_pattern, match
from repro.dialects.regex.emit_pattern import emit_pattern
from repro.dialects.regex.from_ast import regex_to_module
from repro.dialects.regex.transforms.pipeline import (
    BoundaryQuantifierPass,
    FactorizeAlternationsPass,
    SimplifySubRegexPass,
)


def transformed(pattern, *passes):
    module = regex_to_module(pattern)
    for transform in passes:
        transform.run(module)
    module.verify()
    return emit_pattern(module.body.operations[0])


def simplify(pattern):
    return transformed(pattern, SimplifySubRegexPass())


def factorize(pattern):
    return transformed(pattern, FactorizeAlternationsPass())


def reduce_boundaries(pattern):
    return transformed(pattern, BoundaryQuantifierPass())


class TestSimplifySubRegex:
    """Paper: (abc) → abc; (a+) and (a)+ → a+; (a{2,3}){4,7} unchanged."""

    def test_plain_group_inlined(self):
        assert simplify("(abc)") == "abc"

    def test_group_in_context(self):
        assert simplify("x(abc)y") == "xabcy"

    def test_quantified_group_kept_for_precedence(self):
        assert simplify("(abc)+") == "(abc)+"

    def test_inner_quantifier_hoisted(self):
        assert simplify("(a+)") == "a+"

    def test_outer_quantifier_hoisted(self):
        assert simplify("(a)+") == "a+"

    def test_nested_quantifiers_unchanged(self):
        assert simplify("(a{2,3}){4,7}") == "(a{2,3}){4,7}"

    def test_nested_groups_collapse(self):
        assert simplify("((a))") == "a"
        assert simplify("((ab)c)") == "abc"

    def test_alternation_group_spliced_to_top(self):
        assert simplify("(a|b)") == "a|b"

    def test_alternation_group_not_spliced_in_context(self):
        assert simplify("x(a|b)") == "x(a|b)"

    def test_quantified_alternation_kept(self):
        assert simplify("(a|b)+") == "(a|b)+"


class TestFactorizeAlternations:
    """Paper: this|that|those → th(is|at|ose); a(bc|bd) → a(b(c|d))."""

    def test_this_that_those(self):
        assert factorize("this|that|those") == "th(is|at|ose)"

    def test_nested_group_factorization(self):
        assert factorize("a(bc|bd)") == "a(b(c|d))"

    def test_no_common_prefix_unchanged(self):
        assert factorize("ab|cd") == "ab|cd"

    def test_quantified_first_pieces_factor_when_equal(self):
        assert factorize("a+b|a+c") == "a+(b|c)"

    def test_differently_quantified_first_pieces_do_not_factor(self):
        assert factorize("a+b|a?c") == "a+b|a?c"

    def test_partial_group(self):
        # Only two of three branches share the prefix.
        result = factorize("ab|ac|xy")
        assert result == "a(b|c)|xy"

    def test_empty_remainder_branch(self):
        # ab|abc: remainder of the first branch is epsilon.
        result = factorize("ab|abc")
        assert result == "ab(|c)"

    def test_end_anchored_branch_stays_top_level(self):
        # '$' is only expressible at the end of a top-level branch, so
        # a branch ending in it joins no factored group; the rest of
        # its group still factors.
        assert factorize("ga|gb$") == "ga|gb$"
        assert factorize("ab|ac$|d") == "ab|ac$|d"
        assert factorize("ga|gb$|gc") == "g(a|c)|gb$"
        assert factorize("gb$|ga|gc") == "gb$|g(a|c)"

    @pytest.mark.parametrize("pattern", ["ga|gb$", "ab|ac$|d"])
    def test_end_anchored_branch_compiles_and_matches(self, pattern):
        # Raised LoweringError with default options before the fix.
        compile_pattern(pattern)
        for text in ("ga", "gb", "gbx", "xgb", "ac", "acx", "d"):
            assert bool(match(pattern, text)) == bool(re.search(pattern, text)), text

    def test_semantics_preserved(self):
        pattern = "this|that|those|the|such"
        result = factorize(pattern)
        gold = re.compile(pattern)
        ours = re.compile(result)
        for text in ("this", "that", "those", "the", "such", "thus", "xx", "th"):
            assert bool(gold.fullmatch(text)) == bool(ours.fullmatch(text)), text


class TestBoundaryQuantifierReduction:
    """Paper: a{2,3}|b{4,5} → a{2}|b{4}; abcd*|efgh+ → abc|efgh;
    ab*$ unchanged."""

    def test_alternated_reduction(self):
        assert reduce_boundaries("a{2,3}|b{4,5}") == "a{2}|b{4}"

    def test_star_and_plus_at_end(self):
        assert reduce_boundaries("abcd*|efgh+") == "abc|efgh"

    def test_explicit_dollar_disables(self):
        assert reduce_boundaries("ab*$") == "ab*"
        module = regex_to_module("ab*$")
        assert module.body.operations[0].has_suffix is False

    def test_explicit_caret_disables_leading(self):
        assert reduce_boundaries("^a{2,5}b") == "a{2,5}b"

    def test_leading_reduction(self):
        assert reduce_boundaries("a+b") == "ab"

    def test_cascading_removal(self):
        assert reduce_boundaries("ab*c*") == "a"

    def test_mid_pattern_untouched(self):
        assert reduce_boundaries("ab+c") == "ab+c"

    def test_fixed_count_untouched(self):
        assert reduce_boundaries("ab{3}") == "ab{3}"

    def test_paper_abplus_example(self):
        # The paper shows ab+.* → ab.*; our reduction also folds the
        # trailing .* into the implicit suffix — same language.
        assert reduce_boundaries("ab+.*") == "ab"


class TestFullPipelineInteraction:
    def test_simplify_enables_factorization(self):
        result = transformed(
            "(this)|(that)", SimplifySubRegexPass(), FactorizeAlternationsPass()
        )
        assert result == "th(is|at)"

    def test_match_existence_preserved_on_corpus(self, corpus_pattern):
        """All three passes must preserve *whether* a match exists."""
        from repro.compiler import CompileOptions, compile_regex
        from repro.vm import run_program

        import random

        rng = random.Random(zlib.crc32(corpus_pattern.encode()))
        optimized = compile_regex(corpus_pattern).program
        baseline = compile_regex(corpus_pattern, CompileOptions.none()).program
        alphabet = "abcdefghLIVMDER qux."
        for _ in range(25):
            text = "".join(
                rng.choice(alphabet) for _ in range(rng.randint(0, 20))
            )
            assert bool(run_program(optimized, text)) == bool(
                run_program(baseline, text)
            ), (corpus_pattern, text)
