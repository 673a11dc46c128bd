"""The old single-IR compiler: baseline equivalence and mapped IR."""

import pytest

import repro.oldcompiler.compiler as old_compiler_module
from repro.compiler import CompileOptions, compile_regex
from repro.ir.diagnostics import LoweringError
from repro.isa.instructions import Opcode
from repro.oldcompiler.compiler import OldCompiler, compile_regex_old
from repro.oldcompiler.ir import Fragment, OldInstruction
from repro.vm import run_program


class TestBaselineEquivalence:
    def test_unoptimized_matches_new_compiler(self, corpus_pattern):
        """Both compilers share the unoptimized layout (Listing 2 left)."""
        old = compile_regex_old(corpus_pattern, optimize=False).program
        new = compile_regex(corpus_pattern, CompileOptions.none()).program
        assert list(old) == list(new)

    def test_compiler_name_recorded(self):
        result = compile_regex_old("ab")
        assert result.program.compiler == "old-single-ir"
        assert result.pattern == "ab"

    def test_stage_timings_present(self, monkeypatch):
        """An optimizing compile runs both stages: mapped lowering, then
        code restructuring on the mapped IR it produced."""
        stages = []
        lower_root = old_compiler_module._OldLowering.lower_root

        def record_lowering(self, parsed):
            stages.append("mapped-lowering")
            return lower_root(self, parsed)

        monkeypatch.setattr(
            old_compiler_module._OldLowering, "lower_root", record_lowering
        )
        monkeypatch.setattr(
            old_compiler_module,
            "code_restructuring",
            lambda mapped: stages.append("code-restructuring"),
        )
        compile_regex_old("ab|cd", optimize=True)
        assert stages == ["mapped-lowering", "code-restructuring"]

    def test_no_restructuring_stage_when_unoptimized(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            old_compiler_module, "code_restructuring", calls.append
        )
        result = compile_regex_old("ab|cd", optimize=False)
        assert calls == []
        assert result.program.compiler == "old-single-ir"


class TestMappedIR:
    def test_fragment_rebase_scans_operands(self):
        fragment = Fragment()
        fragment.append_instruction(Opcode.SPLIT, 2)
        fragment.append_instruction(Opcode.MATCH, ord("a"))
        fragment.append_instruction(Opcode.JMP, 0)
        fragment.rebase(10)
        assert fragment.instructions[0].operand == 12
        assert fragment.instructions[2].operand == 10
        # character operands must not be rebased
        assert fragment.instructions[1].operand == ord("a")

    def test_append_fragment_rebases_appendee(self):
        first = Fragment()
        first.append_instruction(Opcode.MATCH, ord("x"))
        second = Fragment()
        second.append_instruction(Opcode.JMP, 0)
        first.append_fragment(second)
        assert first.instructions[1].operand == 1

    def test_sentinels_not_rebased(self):
        fragment = Fragment()
        fragment.append_instruction(Opcode.JMP, ("join", 1))
        fragment.rebase(5)
        assert fragment.instructions[0].operand == ("join", 1)
        fragment.resolve_sentinel(("join", 1), 9)
        assert fragment.instructions[0].operand == 9

    def test_unresolved_sentinel_fails_codegen(self):
        instruction = OldInstruction(Opcode.JMP, ("join", 3))
        with pytest.raises(ValueError):
            instruction.resolved()

    def test_records_created_for_alternations(self):
        result = compile_regex_old("ab|cd", optimize=False)
        # compile again to inspect the mapped program
        from repro.frontend.parser import parse_regex
        from repro.oldcompiler.compiler import _OldLowering

        mapped = _OldLowering().lower_root(parse_regex("ab|cd"))
        roots = [r for r in mapped.records if r.kind == "root"]
        assert len(roots) == 1
        assert roots[0].has_prefix
        assert len(roots[0].leaves) == 2

    def test_records_created_for_classes(self):
        from repro.frontend.parser import parse_regex
        from repro.oldcompiler.compiler import _OldLowering

        mapped = _OldLowering().lower_root(parse_regex("[abc]"))
        joins = [r for r in mapped.records if r.kind == "join"]
        assert len(joins) == 1
        assert len(joins[0].leaves) == 3


class TestErrors:
    def test_mid_pattern_dollar_rejected(self):
        with pytest.raises(LoweringError):
            compile_regex_old("(a$)b")

    def test_nullable_unbounded_rejected(self):
        with pytest.raises(LoweringError):
            compile_regex_old("(a?)*")


class TestSemantics:
    def test_optimized_preserves_matching(self, corpus_pattern):
        import random

        rng = random.Random(0x01D)
        unopt = compile_regex_old(corpus_pattern, optimize=False).program
        opt = compile_regex_old(corpus_pattern, optimize=True).program
        for _ in range(25):
            text = "".join(
                rng.choice("abcdefghLIVMDER qux.") for _ in range(rng.randint(0, 18))
            )
            assert bool(run_program(unopt, text)) == bool(run_program(opt, text)), (
                corpus_pattern, text,
            )
