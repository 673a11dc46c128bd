"""Dead-code elimination for ``cicero.program``.

Reachability starts at the first instruction (the engine's reset PC) and
follows:

* fall-through for every op except jumps and acceptances (a jump
  transfers unconditionally; acceptance terminates the thread);
* the symbolic target of every reachable split and jump.

Unreachable instructions are erased.  This cleans up after Jump
Simplification: once every jump to the shared acceptance has been
duplicated into a local acceptance, the shared op (reached only by
fall-through from a jump that no longer exists) goes away — giving the
paper's 10-instruction result for ``ab|cd`` (Listing 2, right column).
"""

from __future__ import annotations

from ....ir.operation import Operation
from ....ir.pass_manager import Pass, register_pass
from ..ops import ProgramOp, TARGET_CARRYING_OPS, programs_under, undefined_label


def _reachable_flags(program: ProgramOp) -> bytearray:
    """One flag per instruction: can control reach it from the entry?"""
    instructions = program.instructions
    labels = program.label_map()
    count = len(instructions)
    reachable = bytearray(count)
    worklist = [0]
    while worklist:
        index = worklist.pop()
        # Follow the fall-through run from here; targets wait their turn.
        while index < count and not reachable[index]:
            reachable[index] = 1
            op = instructions[index]
            if isinstance(op, TARGET_CARRYING_OPS):
                target = labels.get(op.attributes[op.TARGET_ATTR].name)
                if target is None:
                    raise undefined_label(op, program)
                worklist.append(target)
            if not op.falls_through:
                break
            index += 1
    return reachable


class DeadCodeEliminationPass(Pass):
    """Remove instructions unreachable from the program entry."""

    PASS_NAME = "cicero-dce"

    def run(self, root: Operation) -> None:
        for program in programs_under(root):
            reachable = _reachable_flags(program)
            if not all(reachable):
                program.regions[0].entry_block.replace_operations(
                    [op for op, live in zip(program.instructions, reachable) if live]
                )


register_pass(DeadCodeEliminationPass)
