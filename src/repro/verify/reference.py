"""The golden model of the Cicero ISA (paper Table 1), one position at a time.

``SPLIT``/``JMP`` are input-independent ε-moves; ``NOT_MATCH(c)`` is an
ε-move taken iff the current character exists and differs from ``c``;
``MATCH(c)``/``MATCH_ANY`` consume one character or kill the thread;
``ACCEPT`` matches iff the whole input was consumed, ``ACCEPT_PARTIAL``
immediately.  :func:`reference_step` is the one instruction-at-a-time
interpreter of all seven opcodes; the kernel's closure tables, the lazy
DFA's step table and the simulator are fast paths checked against it.
``targets`` picks the mode, as in the kernel: ``None`` stops at the
first accept, a set of ids collects accept operands until all are seen.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..isa.instructions import Opcode
from ..runtime.errors import VMStepBudgetError

_SPLIT = int(Opcode.SPLIT)
_JMP = int(Opcode.JMP)
_MATCH_ANY = int(Opcode.MATCH_ANY)
_NOT_MATCH = int(Opcode.NOT_MATCH)
_ACCEPT = int(Opcode.ACCEPT)
_ACCEPT_PARTIAL = int(Opcode.ACCEPT_PARTIAL)


def reference_step(
    opcodes: Sequence[int],
    operands: Sequence[int],
    frontier: Iterable[int],
    char: Optional[int],
    targets=None,
    stats=None,
) -> Tuple[List[int], Set[int], int]:
    """Expand ``frontier`` (raw PCs) over ``char`` (``None`` at the end
    of input), match, collapse.

    Returns ``(next_frontier, accepted, executed)``: the PCs after the
    consumed character, the accept operands that fired and the number of
    distinct instructions run.  ``stats`` (a
    :class:`~repro.vm.thompson.VMStatistics`) gets the instruction,
    spawned-thread and killed-thread counts.
    """
    accepted: Set[int] = set()
    visited: Set[int] = set()
    next_frontier: List[int] = []
    worklist = list(frontier)
    spawned = killed = 0
    while worklist:
        pc = worklist.pop()
        if pc in visited:
            killed += 1
            continue
        visited.add(pc)
        opcode = opcodes[pc]
        if opcode == _SPLIT:
            worklist.append(pc + 1)
            worklist.append(operands[pc])
            spawned += 1
        elif opcode == _JMP:
            worklist.append(operands[pc])
        elif opcode == _ACCEPT_PARTIAL or (opcode == _ACCEPT and char is None):
            accepted.add(operands[pc])
            if targets is None:
                break
        elif opcode == _ACCEPT:
            killed += 1
        elif opcode == _NOT_MATCH:
            if char is not None and char != operands[pc]:
                worklist.append(pc + 1)
            else:
                killed += 1
        elif char is not None and (opcode == _MATCH_ANY or char == operands[pc]):
            next_frontier.append(pc + 1)
        else:  # a MATCH of another character, or nothing left to consume
            killed += 1
    if stats is not None:
        stats.instructions_executed += len(visited)
        stats.threads_spawned += spawned
        stats.threads_killed += killed
    return next_frontier, accepted, len(visited)


def reference_run(
    opcodes: Sequence[int],
    operands: Sequence[int],
    data: bytes,
    targets=None,
    max_steps: Optional[int] = None,
    stats=None,
    pattern: Optional[str] = None,
) -> Union[Optional[int], Set[int]]:
    """Every position of ``data``, then the end of input.

    Returns the accepting position (or ``None``), with ``targets`` the
    accept operands seen.  ``max_steps`` bounds the executed
    instructions, counted per position; a single-match run returns at
    its accepting position before counting it.  ``pattern`` names the
    program in the :class:`~repro.runtime.errors.VMStepBudgetError`.
    """
    matched: Set[int] = set()
    frontier: List[int] = [0]
    if stats is not None:
        stats.threads_spawned += 1
    executed = 0
    length = len(data)
    for position in range(length + 1):
        if not frontier or (targets is not None and matched >= targets):
            break
        char = data[position] if position < length else None
        frontier, accepted, visited = reference_step(
            opcodes, operands, frontier, char, targets, stats
        )
        if targets is None and accepted:
            return position
        matched |= accepted
        if stats is not None:
            stats.positions_processed += 1
            stats.frontier_sizes.append(len(frontier))
            stats.max_frontier = max(stats.max_frontier, len(frontier))
        if max_steps is not None:
            executed += visited
            if executed > max_steps:
                raise VMStepBudgetError(executed, max_steps, pattern)
    return None if targets is None else matched
