"""Code generation: ``cicero.program`` → :class:`~repro.isa.Program`.

Thanks to the dialect's one-to-one mapping onto the ISA (§3.3) this is a
single linear walk: operation order gives addresses, labels resolve to
operand values, done.
"""

from __future__ import annotations

from typing import List, Optional

from ...ir.diagnostics import CodegenError
from ...isa.instructions import Instruction, Opcode
from ...isa.program import Program
from .ops import (
    AcceptOp,
    AcceptPartialOp,
    JumpOp,
    MatchAnyOp,
    MatchCharOp,
    NotMatchCharOp,
    ProgramOp,
    SplitOp,
)


#: Opcode per op class; the dialect maps 1:1 onto the ISA (§3.3).
_OPCODES = {
    AcceptOp: Opcode.ACCEPT,
    AcceptPartialOp: Opcode.ACCEPT_PARTIAL,
    SplitOp: Opcode.SPLIT,
    JumpOp: Opcode.JMP,
    MatchAnyOp: Opcode.MATCH_ANY,
    MatchCharOp: Opcode.MATCH,
    NotMatchCharOp: Opcode.NOT_MATCH,
}
_OP_CLASSES = {opcode: op_class for op_class, opcode in _OPCODES.items()}


def generate_program(
    program_op: ProgramOp, source_pattern: str = "", compiler: str = ""
) -> Program:
    """Emit the binary-level program for a ``cicero.program`` op."""
    labels = program_op.label_map()
    instructions: List[Instruction] = []
    source_map: List[Optional[str]] = []
    attributed = False
    for address, op in enumerate(program_op.instructions):
        opcode = _OPCODES.get(type(op))
        if opcode is None:
            raise CodegenError(f"cannot encode op '{op.name}' at {address}")
        attributes = op.attributes
        if opcode is Opcode.SPLIT or opcode is Opcode.JMP:
            operand = labels[attributes[op.TARGET_ATTR].name]
        elif opcode is Opcode.MATCH or opcode is Opcode.NOT_MATCH:
            operand = attributes["char"].value
        else:
            operand = 0
        instructions.append(Instruction(opcode, operand))
        source = attributes.get("source")
        if source is None:
            source_map.append(None)
        else:
            source_map.append(source.value)
            attributed = True
    return Program(
        instructions,
        source_pattern=source_pattern,
        compiler=compiler,
        # Attribution is optional: a program lowered without source
        # contexts (e.g. lifted back from binary) carries no map at all.
        source_map=source_map if attributed else None,
    )


def program_to_dialect(program: Program) -> ProgramOp:
    """Inverse direction: lift a binary program back into the dialect.

    Used by round-trip tests and by tools that want to re-optimize an
    existing binary.  Only jump/split targets receive labels.
    """
    program_op = ProgramOp()
    block = program_op.regions[0].entry_block
    ops = []
    for instruction in program:
        op_class = _OP_CLASSES[instruction.opcode]
        if instruction.opcode.is_control_flow:
            ops.append(op_class(f"A{instruction.operand}"))
        elif instruction.opcode in (Opcode.MATCH, Opcode.NOT_MATCH):
            ops.append(op_class(instruction.operand))
        else:
            ops.append(op_class())
    targets = {
        instruction.operand
        for instruction in program
        if instruction.opcode.is_control_flow
    }
    for address, op in enumerate(ops):
        if address in targets:
            op.set_label(f"A{address}")
        block.append(op)
    program_op.verify()
    return program_op
