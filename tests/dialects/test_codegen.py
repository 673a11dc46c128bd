"""Cicero dialect ↔ binary program round-trips."""

import pytest

from repro.compiler import CompileOptions, compile_regex
from repro.dialects.cicero.codegen import generate_program, program_to_dialect
from repro.dialects.cicero.ops import (
    AcceptOp,
    AcceptPartialOp,
    JumpOp,
    MatchCharOp,
    ProgramOp,
    SplitOp,
)
from repro.ir.diagnostics import CodegenError, VerificationError
from repro.isa.instructions import Opcode


def test_addresses_follow_op_order():
    program_op = ProgramOp()
    block = program_op.regions[0].entry_block
    block.append(SplitOp("end", label="start"))
    block.append(MatchCharOp("a"))
    block.append(AcceptPartialOp(label="end"))
    program = generate_program(program_op)
    assert program[0].opcode == Opcode.SPLIT
    assert program[0].operand == 2


def test_labels_resolve_backwards():
    program_op = ProgramOp()
    block = program_op.regions[0].entry_block
    block.append(MatchCharOp("a", label="loop"))
    block.append(JumpOp("loop"))
    block.append(AcceptPartialOp())
    program = generate_program(program_op)
    assert program[1].operand == 0


def test_undefined_label_fails_verification():
    program_op = ProgramOp()
    program_op.regions[0].entry_block.append(JumpOp("ghost"))
    with pytest.raises(VerificationError):
        program_op.verify()


def test_undefined_label_is_a_codegen_error():
    """A pass that drops a labelled op without renaming its references
    leaves a dangling target: codegen names the op, its address and the
    label, in the typed taxonomy, rather than leaking a KeyError."""
    program_op = ProgramOp()
    block = program_op.regions[0].entry_block
    block.append(JumpOp("nowhere"))
    block.append(AcceptOp())
    with pytest.raises(CodegenError) as caught:
        generate_program(program_op)
    message = str(caught.value)
    assert "cicero.jump" in message and "at 0" in message
    assert "'nowhere'" in message
    assert caught.value.code == "REPRO-CODEGEN"


def test_duplicate_label_rejected():
    program_op = ProgramOp()
    block = program_op.regions[0].entry_block
    block.append(MatchCharOp("a", label="L"))
    block.append(MatchCharOp("b", label="L"))
    with pytest.raises(VerificationError):
        program_op.label_map()


def test_non_instruction_op_rejected():
    from repro.dialects.regex.ops import MatchCharOp as RegexMatch

    program_op = ProgramOp()
    program_op.regions[0].entry_block.append(RegexMatch("a"))
    with pytest.raises(VerificationError):
        program_op.verify()


def test_roundtrip_through_dialect(corpus_pattern):
    original = compile_regex(corpus_pattern, CompileOptions.none()).program
    lifted = program_to_dialect(original)
    regenerated = generate_program(lifted)
    assert list(regenerated) == list(original)


def test_roundtrip_preserves_optimized(corpus_pattern):
    original = compile_regex(corpus_pattern).program
    regenerated = generate_program(program_to_dialect(original))
    assert list(regenerated) == list(original)


def test_metadata_attached():
    program = compile_regex("ab").program
    assert program.source_pattern == "ab"
    assert program.compiler == "new-mlir"
