"""Jump Simplification + DCE (§5), anchored on Listing 2."""

import pytest

from repro.compiler import CompileOptions, compile_regex
from repro.dialects.cicero.codegen import generate_program, program_to_dialect
from repro.dialects.cicero.ops import AcceptOp, JumpOp, ProgramOp
from repro.dialects.cicero.transforms.dce import DeadCodeEliminationPass
from repro.dialects.cicero.transforms.jump_simplification import (
    JumpSimplificationPass,
)
from repro.ir.diagnostics import VerificationError
from repro.isa.instructions import Opcode, accept_partial, jmp, match, split
from repro.isa.metrics import d_offset
from repro.isa.program import Program
from repro.vm import run_program


def optimize_program(program: Program) -> Program:
    """Lift → jump-simplify → DCE → regenerate."""
    program_op = program_to_dialect(program)
    JumpSimplificationPass().run(program_op)
    DeadCodeEliminationPass().run(program_op)
    return generate_program(program_op)


class TestListing2:
    """The paper's running example ab|cd."""

    def test_unoptimized_layout(self):
        program = compile_regex("ab|cd", CompileOptions.none()).program
        mnemonics = [instruction.opcode.mnemonic for instruction in program]
        assert mnemonics == [
            "SPLIT", "MATCH_ANY", "JMP",
            "SPLIT", "MATCH", "MATCH", "JMP", "ACCEPT_PARTIAL",
            "MATCH", "MATCH", "JMP",
        ]
        # Listing 2 lists per-instruction offsets 3+2+5+1+3 (the caption's
        # total of 13 is an arithmetic slip; the offsets sum to 14).
        assert d_offset(program) == 14

    def test_optimized_layout(self):
        program = compile_regex("ab|cd").program
        mnemonics = [instruction.opcode.mnemonic for instruction in program]
        assert mnemonics == [
            "SPLIT", "MATCH_ANY", "JMP",
            "SPLIT", "MATCH", "MATCH", "ACCEPT_PARTIAL",
            "MATCH", "MATCH", "ACCEPT_PARTIAL",
        ]
        assert d_offset(program) == 9  # paper's Listing 2, right column

    def test_split_target_updated(self):
        program = compile_regex("ab|cd").program
        assert program[3].operand == 7  # second branch moved from 8 to 7


class TestRules:
    def test_jump_to_next_removed(self):
        # 0: SPLIT{1,3}; 1: MATCH a; 2: JMP 3; 3: ACCEPT_PARTIAL
        # the jump targets the next instruction → removed (after rule 2
        # duplicates acceptance; build a case rule 1 alone handles).
        program = Program([
            split(2),
            jmp(2),        # jump-to-next
            match("a"),
            accept_partial(),
        ])
        optimized = optimize_program(program)
        assert Opcode.JMP not in [i.opcode for i in optimized]

    def test_jump_to_acceptance_duplicated(self):
        program = Program([
            split(3),
            match("a"),
            jmp(4),
            match("b"),
            accept_partial(),
        ])
        optimized = optimize_program(program)
        assert [i.opcode for i in optimized].count(Opcode.ACCEPT_PARTIAL) == 2
        assert Opcode.JMP not in [i.opcode for i in optimized]

    def test_jump_chain_threaded(self):
        program = Program([
            split(2),
            jmp(3),       # chain hop 1
            jmp(4),       # within fallthrough path
            jmp(5),       # chain hop 2
            match("a"),
            match("b"),
            accept_partial(),
        ])
        optimized = optimize_program(program)
        # No jump may target another jump.
        for address, instruction in enumerate(optimized):
            if instruction.opcode == Opcode.JMP:
                assert optimized[instruction.operand].opcode != Opcode.JMP

    def test_dce_removes_unreachable(self):
        program = Program([
            jmp(2),
            match("x"),   # unreachable
            accept_partial(),
        ])
        optimized = optimize_program(program)
        assert Opcode.MATCH not in [i.opcode for i in optimized]


class TestInvariants:
    def test_never_increases_d_offset(self, corpus_pattern):
        baseline = compile_regex(corpus_pattern, CompileOptions.none()).program
        optimized = optimize_program(baseline)
        assert d_offset(optimized) <= d_offset(baseline)

    def test_never_increases_size(self, corpus_pattern):
        baseline = compile_regex(corpus_pattern, CompileOptions.none()).program
        optimized = optimize_program(baseline)
        assert len(optimized) <= len(baseline)

    def test_preserves_semantics(self, corpus_pattern):
        import random

        rng = random.Random(0xC1CE60)
        baseline = compile_regex(corpus_pattern, CompileOptions.none()).program
        optimized = optimize_program(baseline)
        for _ in range(25):
            text = "".join(
                rng.choice("abcdefghLIVMDER qux.") for _ in range(rng.randint(0, 18))
            )
            assert bool(run_program(baseline, text)) == bool(
                run_program(optimized, text)
            ), (corpus_pattern, text)

    def test_idempotent(self, corpus_pattern):
        once = optimize_program(
            compile_regex(corpus_pattern, CompileOptions.none()).program
        )
        twice = optimize_program(once)
        assert list(once) == list(twice)


def _dangling(*ops):
    program_op = ProgramOp()
    for op in ops:
        program_op.regions[0].entry_block.append(op)
    return program_op


@pytest.mark.parametrize(
    "pass_type, ops",
    [
        (JumpSimplificationPass, lambda: [JumpOp("nowhere"), AcceptOp()]),
        # Rule 3 follows a chain into the dangling jump.
        (JumpSimplificationPass,
         lambda: [JumpOp("mid"), JumpOp("nowhere", label="mid"), AcceptOp()]),
        (DeadCodeEliminationPass, lambda: [JumpOp("nowhere"), AcceptOp()]),
    ],
    ids=["jump-simplification", "jump-simplification-chain", "dce"],
)
def test_undefined_label_is_a_typed_error(pass_type, ops):
    """``jump @nowhere`` through a pass names the label in the typed
    taxonomy, as verification and codegen do, not as a KeyError."""
    with pytest.raises(VerificationError) as caught:
        pass_type().run(_dangling(*ops()))
    assert "undefined label 'nowhere'" in str(caught.value)
    assert caught.value.code == "REPRO-IR-VERIFY"
