"""Multi-matching extension (§8 future work): compiler, VM, simulator."""

import random
import re

import pytest

from repro.arch.config import ArchConfig
from repro.arch.system import CiceroSystem
from repro.ir.diagnostics import CodegenError
from repro.isa.encoding import decode_program, encode_program
from repro.isa.instructions import MAX_PROGRAM_LENGTH, Opcode
from repro.multimatch import (
    MultiMatchVM,
    compile_multipattern,
    run_multimatch,
)
from repro.runtime.errors import ProgramSizeBudgetError
from repro.workloads import brill

PATTERNS = ["ab", "cd", "x+y", "^start", "end$", "th(is|at)"]


@pytest.fixture(scope="module")
def combined():
    return compile_multipattern(PATTERNS)


class TestCompiler:
    def test_identifiers_are_one_based(self, combined):
        assert combined.ids == [1, 2, 3, 4, 5, 6]
        assert combined.pattern_of(1) == "ab"
        assert combined.pattern_of(6) == "th(is|at)"

    def test_acceptances_tagged(self, combined):
        ids = {
            instruction.match_id
            for instruction in combined.program
            if instruction.opcode.is_acceptance
        }
        assert ids == set(combined.ids)

    def test_entry_chain_forks_every_body(self, combined):
        chain = [
            instruction
            for instruction in list(combined.program)[: len(PATTERNS) - 1]
        ]
        assert all(i.opcode == Opcode.SPLIT for i in chain)

    def test_empty_set_rejected(self):
        with pytest.raises(CodegenError):
            compile_multipattern([])

    def test_single_pattern(self):
        single = compile_multipattern(["ab"])
        result = run_multimatch(single, "zzab")
        assert result.matched_ids == frozenset({1})

    def test_oversize_combination_raises_program_size_budget(self):
        # One tagged program holds at most 36 brill suite rules: the
        # 13-bit operand cannot address a longer combination.
        rules = brill.generate_patterns(64, 2025)
        with pytest.raises(ProgramSizeBudgetError) as raised:
            compile_multipattern(rules)
        assert raised.value.code == "REPRO-BUDGET-PROGRAM-SIZE"
        assert raised.value.limit == MAX_PROGRAM_LENGTH
        assert raised.value.spent > MAX_PROGRAM_LENGTH
        assert len(compile_multipattern(rules[:36])) <= MAX_PROGRAM_LENGTH

    def test_binary_roundtrip_preserves_tags(self, combined):
        decoded = decode_program(encode_program(combined.program))
        tags = [i.match_id for i in decoded if i.opcode.is_acceptance]
        assert set(tags) == set(combined.ids)


class TestVM:
    def test_reports_all_matching_patterns(self, combined):
        result = run_multimatch(combined, "start this ab and cd to the end")
        assert set(result.matched_patterns) >= {"ab", "cd", "^start", "th(is|at)"}

    def test_anchors_respected(self, combined):
        result = run_multimatch(combined, "no anchors here ab")
        assert "^start" not in result.matched_patterns
        assert "ab" in result.matched_patterns

    def test_end_anchor(self, combined):
        assert "end$" in run_multimatch(combined, "the end").matched_patterns
        assert "end$" not in run_multimatch(combined, "end of it").matched_patterns

    def test_no_match(self, combined):
        result = run_multimatch(combined, "zzzzz")
        assert not result
        assert result.matched_ids == frozenset()

    def test_contains(self, combined):
        result = run_multimatch(combined, "zzab")
        assert 1 in result and 2 not in result

    def test_agreement_with_individual_python_re(self, combined):
        rng = random.Random(99)
        gold = [re.compile(p) for p in PATTERNS]
        vm = MultiMatchVM(combined)
        for _ in range(60):
            text = "".join(
                rng.choice("abcdxy sthiaendr") for _ in range(rng.randint(0, 20))
            )
            expected = {
                index + 1 for index, g in enumerate(gold) if g.search(text)
            }
            assert vm.run(text).matched_ids == frozenset(expected), text


class TestSimulator:
    @pytest.mark.parametrize(
        "config", [ArchConfig.old(1), ArchConfig.old(4), ArchConfig.new(8)],
        ids=lambda c: c.name,
    )
    def test_simulator_agrees_with_vm(self, combined, config):
        rng = random.Random(7)
        system = CiceroSystem(combined.program, config)
        vm = MultiMatchVM(combined)
        for _ in range(12):
            text = "".join(
                rng.choice("abcdxy sthiaendr") for _ in range(rng.randint(0, 24))
            )
            result = system.run(text, collect_matches=True)
            assert result.matched_ids == vm.run(text).matched_ids, text

    def test_single_match_mode_unaffected(self, combined):
        system = CiceroSystem(combined.program, ArchConfig.new(8))
        result = system.run("zzab")
        assert result.matched and result.matched_ids is None

    def test_early_exit_when_all_found(self):
        small = compile_multipattern(["a", "b"])
        system = CiceroSystem(small.program, ArchConfig.new(8))
        quick = system.run("ab" + "z" * 200, collect_matches=True)
        slow = system.run("z" * 200 + "ab", collect_matches=True)
        assert quick.matched_ids == slow.matched_ids == frozenset({1, 2})
        assert quick.cycles < slow.cycles

    def test_multimatch_cheaper_than_separate_runs(self):
        """The extension's point: one combined pass beats K passes."""
        from repro.compiler import compile_regex

        patterns = ["ab", "cd", "ef", "gh"]
        text = "z" * 300  # no matches: full scans either way
        combined = compile_multipattern(patterns)
        combined_cycles = CiceroSystem(
            combined.program, ArchConfig.new(16)
        ).run(text, collect_matches=True).cycles
        separate_cycles = sum(
            CiceroSystem(compile_regex(p).program, ArchConfig.new(16)).run(text).cycles
            for p in patterns
        )
        assert combined_cycles < separate_cycles
