"""The paper's *Jump Simplification* optimization (§5).

Applied to each ``cicero.jump``:

1. a jump to the immediately following operation is removed;
2. a jump to an acceptance operation is replaced by a copy of that
   acceptance (the paper "avoids jumping to AcceptPartialOp operations by
   duplicating them", relaxing the single-acceptance-state condition);
3. a jump whose target is another jump is retargeted to the final
   destination of the chain (unconditional jump threading).

Rule 3 runs first (it can turn a far jump into a next-op or to-accept
jump), then 2, then 1, iterating to a fixpoint.  A final dead-code
sweep (see :mod:`.dce`) removes instructions no longer reachable, e.g.
the shared acceptance once every jump to it was duplicated away.

Each rule is one sweep over the program's jumps.  They share a label →
op table and the list of jumps with their positions, which every edit
keeps current, so no iteration walks the whole program to find them;
a rule that drops or substitutes instructions builds the new layout as
a list and installs it once.

All rules strictly reduce the instruction count or the total jump
offset, improving the code-locality metric ``D_offset`` — never the
reverse (tested property).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ....ir.diagnostics import LoweringError
from ....ir.operation import Operation
from ....ir.pass_manager import Pass, register_pass
from ..ops import (
    ACCEPTANCE_OPS,
    CiceroInstructionOp,
    JumpOp,
    ProgramOp,
    TARGET_CARRYING_OPS,
    programs_under,
)

LabelTable = Dict[str, CiceroInstructionOp]
Jumps = List[Tuple[int, JumpOp]]  # with their positions, in layout order
_TARGET = JumpOp.TARGET_ATTR


def _thread_jump_chains(jumps: Jumps, labels: LabelTable) -> bool:
    """Rule 3: retarget jump→jump chains to their final destination.

    Applied to jumps only — the paper's rules act "on each JumpOp"; a
    split that targets a jump keeps doing so (the jump usually becomes
    dead once every jump into it is threaded, and falls to DCE).
    """
    changed = False
    # Where each jump already followed leads; ``None`` while its chain is
    # being followed, so meeting it again means the chain is a cycle.
    finals: Dict[JumpOp, Operation] = {}
    for _, op in jumps:
        first = destination = labels[op.attributes[_TARGET].name]
        if not isinstance(destination, JumpOp):
            continue
        chain: List[JumpOp] = []
        while isinstance(destination, JumpOp):
            if destination in finals:
                destination = finals[destination]
                if destination is None:
                    raise LoweringError("jump cycle detected during threading")
                break
            finals[destination] = None
            chain.append(destination)
            destination = labels[destination.target]
        for hop in chain:
            finals[hop] = destination
        if destination is not first:
            # Found *by* label, so the destination always carries one.
            op.set_target(destination.label)
            changed = True
    return changed


def _duplicate_acceptance_targets(
    program: ProgramOp, jumps: Jumps, labels: LabelTable
) -> bool:
    """Rule 2: replace jump-to-acceptance with a copy of the acceptance.

    A copy stands where its jump stood, so the positions in ``jumps``
    stay valid; the replaced jumps are dropped from it.
    """
    layout = None
    kept: Jumps = []
    for index, op in jumps:
        destination = labels.get(op.attributes[_TARGET].name)
        if not isinstance(destination, ACCEPTANCE_OPS):
            kept.append((index, op))
            continue
        duplicate = type(destination)()
        own_label = op.attributes.get("sym_name")
        if own_label is not None:  # keep incoming references valid
            duplicate.attributes["sym_name"] = own_label
            labels[own_label.value] = duplicate
        # Keep provenance: the duplicate stands where the jump stood, so
        # the jump's source fragment (falling back to the acceptance's)
        # is what the profiler should attribute it to.
        source = op.attributes.get("source")
        if source is None:
            source = destination.attributes.get("source")
        if source is not None:
            duplicate.attributes["source"] = source
        if layout is None:
            layout = list(program.instructions)
        layout[index] = duplicate
    if layout is None:
        return False
    program.regions[0].entry_block.replace_operations(layout)
    jumps[:] = kept
    return True


def _remove_jumps_to_next(
    program: ProgramOp, jumps: Jumps, labels: LabelTable
) -> bool:
    """Rule 1: drop jumps that target the very next instruction.

    The jumps that stay are renumbered in ``jumps``: each moves up by
    the number of dropped jumps before it.
    """
    instructions = program.instructions
    last = len(instructions) - 1
    removed = set()
    # Label of a dropped jump → the label its references now mean.
    renamed: Dict[str, str] = {}
    for index, op in jumps:
        if index == last:
            continue
        successor = instructions[index + 1]
        if labels.get(op.attributes[_TARGET].name) is not successor:
            continue
        removed.add(index)
        own_label = op.attributes.get("sym_name")
        if own_label is not None:
            # References to the removed jump now mean its successor.
            labels[own_label.value] = successor
            kept_label = successor.label
            if kept_label is not None:
                renamed[own_label.value] = kept_label
            else:
                successor.attributes["sym_name"] = own_label
    if not removed:
        return False
    layout = list(instructions)
    for index in sorted(removed, reverse=True):
        del layout[index]
    program.regions[0].entry_block.replace_operations(layout)
    kept: Jumps = []
    dropped = 0
    for index, op in jumps:
        if index in removed:
            dropped += 1
        else:
            kept.append((index - dropped, op))
    jumps[:] = kept
    if renamed:
        for label in renamed:
            del labels[label]
        for op in layout:
            if isinstance(op, TARGET_CARRYING_OPS) and op.target in renamed:
                label = op.target
                while label in renamed:
                    label = renamed[label]
                op.set_target(label)
    return True


class JumpSimplificationPass(Pass):
    """Iterate the three jump rules to a fixpoint."""

    PASS_NAME = "cicero-jump-simplification"

    def run(self, root: Operation) -> None:
        for program in programs_under(root):
            labels = program.labelled_ops()
            jumps = [
                (index, op)
                for index, op in enumerate(program.instructions)
                if isinstance(op, JumpOp)
            ]
            for _ in range(len(program.instructions) + 1):
                changed = _thread_jump_chains(jumps, labels)
                changed |= _duplicate_acceptance_targets(program, jumps, labels)
                changed |= _remove_jumps_to_next(program, jumps, labels)
                if not changed:
                    break


register_pass(JumpSimplificationPass)
