"""Code generation: ``cicero.program`` → :class:`~repro.isa.Program`.

Thanks to the dialect's one-to-one mapping onto the ISA (§3.3) this is a
single linear walk: operation order gives addresses, labels resolve to
operand values, done.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...ir.diagnostics import CodegenError, VerificationError
from ...isa.instructions import Instruction, Opcode, shared_instruction
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


#: Per op class: its opcode and the attribute holding its operand, or
#: ``None`` for the operand-free ones; the dialect maps 1:1 onto the ISA
#: (§3.3).
_ENCODINGS = {
    AcceptOp: (Opcode.ACCEPT, None),
    AcceptPartialOp: (Opcode.ACCEPT_PARTIAL, None),
    SplitOp: (Opcode.SPLIT, SplitOp.TARGET_ATTR),
    JumpOp: (Opcode.JMP, JumpOp.TARGET_ATTR),
    MatchAnyOp: (Opcode.MATCH_ANY, None),
    MatchCharOp: (Opcode.MATCH, "char"),
    NotMatchCharOp: (Opcode.NOT_MATCH, "char"),
}
_OP_CLASSES = {opcode: op_class for op_class, (opcode, _) in _ENCODINGS.items()}


def generate_program(
    program_op: ProgramOp, source_pattern: str = "", compiler: str = ""
) -> Program:
    """Emit the binary-level program for a ``cicero.program`` op.

    One walk encodes every op and records where each label sits; the
    splits and jumps, whose targets may lie ahead, are encoded after it.
    """
    labels: Dict[str, int] = {}
    branches = []
    instructions: List[Instruction] = []
    source_map: List[Optional[str]] = []
    attributed = False
    for address, op in enumerate(program_op.instructions):
        encoding = _ENCODINGS.get(type(op))
        if encoding is None:
            raise CodegenError(f"cannot encode op '{op.name}' at {address}")
        opcode, operand_attr = encoding
        attributes = op.attributes
        if "sym_name" in attributes:
            label = attributes["sym_name"].value
            if label in labels:
                raise VerificationError(f"duplicate label '{label}'", program_op)
            labels[label] = address
        if operand_attr is None:
            operand = 0
        elif operand_attr == "char":
            operand = attributes["char"].value
        else:  # a split or jump: encoded once every label is known
            branches.append((address, op, opcode, attributes[operand_attr].name))
            operand = 0
        instructions.append(
            shared_instruction((opcode, operand)) or Instruction(opcode, operand)
        )
        source = attributes.get("source")
        if source is None:
            source_map.append(None)
        else:
            source_map.append(source.value)
            attributed = True
    for address, op, opcode, target in branches:
        operand = labels.get(target)
        if operand is None:
            raise CodegenError(
                f"'{op.name}' at {address} targets undefined label '{target}'"
            )
        instructions[address] = (
            shared_instruction((opcode, operand)) or Instruction(opcode, operand)
        )
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
