"""Golden-model VM semantics."""

import re
import zlib

import pytest

from repro.compiler import CompileOptions, compile_regex
from repro.isa.instructions import (
    accept,
    accept_partial,
    jmp,
    match,
    match_any,
    not_match,
    split,
)
from repro.isa.program import Program
from repro.vm.thompson import MatchResult, ThompsonVM, run_program


class TestInstructionSemantics:
    def test_match_consumes(self):
        program = Program([match("a"), accept()])
        assert run_program(program, "a").matched
        assert not run_program(program, "b").matched
        assert not run_program(program, "aa").matched  # ACCEPT needs end

    def test_match_any(self):
        program = Program([match_any(), accept()])
        assert run_program(program, "x").matched
        assert not run_program(program, "").matched

    def test_not_match_does_not_consume(self):
        """NOT_MATCH(a); MATCH_ANY consumes exactly one char != a."""
        program = Program([not_match("a"), match_any(), accept()])
        assert run_program(program, "b").matched
        assert not run_program(program, "a").matched
        assert not run_program(program, "").matched  # reads past end: dies

    def test_accept_partial_fires_midway(self):
        program = Program([match("a"), accept_partial()])
        result = run_program(program, "abc")
        assert result.matched
        assert result.position == 1

    def test_accept_only_at_end(self):
        program = Program([match("a"), accept()])
        assert run_program(program, "a").position == 1

    def test_split_explores_both(self):
        program = Program([split(3), match("a"), accept_partial(),
                           match("b"), accept_partial()])
        assert run_program(program, "a").matched
        assert run_program(program, "b").matched
        assert not run_program(program, "c").matched

    def test_jmp(self):
        program = Program([jmp(2), match("x"), match("a"), accept()])
        assert run_program(program, "a").matched

    def test_epsilon_loop_terminates(self):
        """Per-position dedup makes ε-cycles terminate in the VM."""
        program = Program([split(0), jmp(0), accept_partial()])
        # split falls to jmp back to split; the only escape is operand 0's
        # fallthrough chain... this program never reaches acceptance.
        result = run_program(program, "ab")
        assert not result.matched


class TestMatchResult:
    def test_truthiness(self):
        assert MatchResult(True, 3)
        assert not MatchResult(False)


class TestAgainstPythonRe:
    @pytest.mark.parametrize("optimize", [False, True], ids=["noopt", "opt"])
    def test_corpus_agreement(self, corpus_pattern, optimize):
        import random

        options = CompileOptions() if optimize else CompileOptions.none()
        program = compile_regex(corpus_pattern, options).program
        vm = ThompsonVM(program)
        gold = re.compile(corpus_pattern)
        rng = random.Random(zlib.crc32(corpus_pattern.encode()))
        for _ in range(40):
            text = "".join(
                rng.choice("abcdefghLIVMDER qux.") for _ in range(rng.randint(0, 20))
            )
            assert bool(vm.run(text)) == bool(gold.search(text)), text

    def test_bytes_and_str_inputs_agree(self):
        program = compile_regex("a[bc]d").program
        vm = ThompsonVM(program)
        assert vm.run("xabdz").matched == vm.run(b"xabdz").matched is True


class TestStatistics:
    def test_stats_populated(self):
        program = compile_regex("a|b|c").program
        result, stats = ThompsonVM(program).run_with_stats("xya")
        assert result.matched
        assert stats.instructions_executed > 0
        assert stats.threads_spawned >= 3
        assert stats.max_frontier >= 1
        assert stats.positions_processed >= 1

    def test_frontier_sizes_tracked(self):
        program = compile_regex("abc").program
        _result, stats = ThompsonVM(program).run_with_stats("zzzz")
        assert len(stats.frontier_sizes) == stats.positions_processed
