"""The erase-and-rescan ``cicero`` passes, kept as a test oracle.

These are the bodies :mod:`repro.dialects.cicero.transforms` had before
its passes became single sweeps over a maintained label table: every
rule rebuilds its own label → op map, rule 1 erases jumps one at a time
(``list.remove``), rebuilds ``label_map()`` and rescans the program for
references after each one, rule 2 goes through ``replace_with``
(``Block.index_of``) and DCE erases dead instructions one by one.  They
use only the public op API (``erase``, ``replace_with``, ``set_label``,
``set_target``, ``label_map``), so an optimisation of the production
passes that moves one instruction, label, ``source`` attribute or
reference shows up as a difference against them.

``reference_chars`` is the ``range(256)`` scan ``CharSetAttr.chars()``
used to be.

Same role as ``tests/arch/reference_system.py`` for the simulator.
"""

from typing import Dict, Optional, Set, Tuple

from repro.dialects.cicero.ops import (
    ACCEPTANCE_OPS,
    JumpOp,
    ProgramOp,
    TARGET_CARRYING_OPS,
)
from repro.ir.diagnostics import LoweringError
from repro.ir.operation import Operation


def reference_chars(mask: int) -> Tuple[int, ...]:
    return tuple(code for code in range(256) if mask >> code & 1)


def _programs_under(root: Operation):
    if isinstance(root, ProgramOp):
        return [root]
    return [op for op in root.walk() if isinstance(op, ProgramOp)]


def _retarget_references(program: ProgramOp, old_label: str, new_label: str) -> None:
    for op in program.instructions:
        if isinstance(op, TARGET_CARRYING_OPS) and op.target == old_label:
            op.set_target(new_label)


def _thread_jump_chains(program: ProgramOp) -> bool:
    """Rule 3: retarget jump→jump chains to their final destination."""
    changed = False
    label_to_op = {
        op.label: op for op in program.instructions if op.label is not None
    }
    for op in program.instructions:
        if not isinstance(op, JumpOp):
            continue
        destination = label_to_op[op.target]
        hops = 0
        while isinstance(destination, JumpOp):
            destination = label_to_op[destination.target]
            hops += 1
            if hops > len(program.instructions):
                raise LoweringError("jump cycle detected during threading")
        if hops > 0:
            op.set_target(destination.label)
            changed = True
    return changed


def _duplicate_acceptance_targets(program: ProgramOp) -> bool:
    """Rule 2: replace jump-to-acceptance with a copy of the acceptance."""
    changed = False
    label_to_op = {
        op.label: op for op in program.instructions if op.label is not None
    }
    for op in list(program.instructions):
        if not isinstance(op, JumpOp):
            continue
        destination = label_to_op.get(op.target)
        if destination is None or not isinstance(destination, ACCEPTANCE_OPS):
            continue
        duplicate = type(destination)()
        duplicate.set_label(op.label)
        source = op.attributes.get("source")
        if source is None:
            source = destination.attributes.get("source")
        if source is not None:
            duplicate.attributes["source"] = source
        op.replace_with(duplicate)
        changed = True
    return changed


def _remove_jumps_to_next(program: ProgramOp) -> bool:
    """Rule 1: drop jumps that target the very next instruction."""
    changed = False
    instructions = program.instructions
    labels: Dict[str, int] = program.label_map()
    index = 0
    while index < len(instructions) - 1:
        op = instructions[index]
        if isinstance(op, JumpOp) and labels.get(op.target) == index + 1:
            successor = instructions[index + 1]
            own_label: Optional[str] = op.label
            op.erase()
            if own_label is not None:
                if successor.label is not None:
                    _retarget_references(program, own_label, successor.label)
                else:
                    successor.set_label(own_label)
            changed = True
            labels = program.label_map()
            continue  # re-check the same index (list shifted)
        index += 1
    return changed


def reference_jump_simplification(root: Operation) -> None:
    for program in _programs_under(root):
        for _ in range(len(program.instructions) + 1):
            changed = _thread_jump_chains(program)
            changed |= _duplicate_acceptance_targets(program)
            changed |= _remove_jumps_to_next(program)
            if not changed:
                break


def _reachable_indices(program: ProgramOp) -> Set[int]:
    instructions = program.instructions
    if not instructions:
        return set()
    labels = program.label_map()
    reachable: Set[int] = set()
    worklist = [0]
    while worklist:
        index = worklist.pop()
        if index in reachable or index >= len(instructions):
            continue
        reachable.add(index)
        op = instructions[index]
        if op.falls_through:
            worklist.append(index + 1)
        if isinstance(op, TARGET_CARRYING_OPS):
            worklist.append(labels[op.target])
    return reachable


def reference_dce(root: Operation) -> None:
    for program in _programs_under(root):
        reachable = _reachable_indices(program)
        for index, op in reversed(list(enumerate(program.instructions))):
            if index not in reachable:
                op.erase()


#: Registered pass name → its reference body.
REFERENCE_PASSES = {
    "cicero-jump-simplification": reference_jump_simplification,
    "cicero-dce": reference_dce,
}
