"""Functional (timing-free) executor for Cicero programs.

A breadth-first Thompson/Pike-style virtual machine: it advances a
deduplicated set of program counters over the input one character at a
time, exactly the enumeration the hardware performs, but without any
micro-architectural modelling.  It serves as the *golden model*: the
cycle-level simulator must return the same verdict for every program,
input, and configuration (tested property), and compiled programs must
agree with Python's :mod:`re` on generated corpora.

Instruction semantics (paper Table 1):

* ``SPLIT``/``JMP`` are input-independent ε-moves.
* ``NOT_MATCH(c)`` is an ε-move *conditioned on the current character*:
  the thread continues (without consuming) iff the character exists and
  differs from ``c``.
* ``MATCH(c)``/``MATCH_ANY`` consume one character or kill the thread.
* ``ACCEPT`` matches iff the whole input was consumed; ``ACCEPT_PARTIAL``
  matches immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Union

from ..isa.instructions import Opcode
from ..isa.program import Program
from ..runtime.encoding import as_input_bytes
from ..runtime.errors import VMStepBudgetError
from .kernel import DispatchTables, run_once


@dataclass
class VMStatistics:
    """Enumeration-shape statistics (the "ideal" parallelism profile)."""

    instructions_executed: int = 0
    threads_spawned: int = 0
    threads_killed: int = 0
    positions_processed: int = 0
    max_frontier: int = 0
    #: Live thread count after processing each input position.
    frontier_sizes: List[int] = field(default_factory=list)


@dataclass(frozen=True)
class MatchResult:
    matched: bool
    #: Input position at which acceptance fired (None when no match).
    position: Optional[int] = None

    def __bool__(self) -> bool:
        return self.matched


def _as_bytes(text: Union[str, bytes]) -> bytes:
    """Normalize input to bytes.

    Raises a typed :class:`~repro.runtime.errors.InputEncodingError` for
    non-latin-1 text instead of leaking a raw ``UnicodeEncodeError``.
    """
    return as_input_bytes(text, what="input text")


class ThompsonVM:
    """Breadth-first executor over one program.

    Two execution paths share the instruction arrays:

    * :meth:`run` — the **fast path**: one
      :class:`~repro.vm.kernel.Enumeration` over this program's
      :class:`~repro.vm.kernel.DispatchTables`, fed the whole input and
      finished.  The per-position loop touches only instructions that
      inspect the input; live threads are deduplicated per position,
      bounding the work at O(program × text).  ``bytes`` input skips
      encoding entirely.
    * :meth:`run_reference` / :meth:`run_with_stats` — the original
      instruction-at-a-time interpreter, kept verbatim as the golden
      reference the fast path is property-tested against (and as the
      only path that can attribute per-instruction statistics).
    """

    def __init__(self, program: Program):
        self.program = program
        self.tables = DispatchTables(program)

    def run(
        self,
        text: Union[str, bytes],
        max_steps: Optional[int] = None,
        tracer=None,
        metrics=None,
        profile=None,
    ) -> MatchResult:
        """Execute the program over ``text``; stops at the first match.

        ``max_steps`` bounds the executed instruction count (checked per
        input position, so the overhead on the hot loop is negligible);
        exceeding it raises a typed
        :class:`~repro.runtime.errors.VMStepBudgetError` instead of
        burning CPU on a pathological pattern × input combination.

        ``tracer`` (a :class:`repro.observability.Tracer`) wraps the run
        in a ``vm.run`` span recording steps, ε-closure table hits and
        dedup suppressions; ``metrics`` (a
        :class:`repro.observability.MetricsRegistry`) accumulates the
        same counts into ``repro_vm_*`` counters; ``profile`` (a
        :class:`repro.observability.VMProfile` built over this program)
        additionally attributes every step to its program counter — the
        per-PC counts sum to exactly the ``steps`` total (tested
        conservation property).  With none of the three, no observer is
        attached and the loop pays one ``is not None`` per position.
        """
        data = text if isinstance(text, bytes) else _as_bytes(text)
        state = run_once(
            self.tables, data, max_steps, None, "vm.run",
            tracer, metrics, profile,
        )
        return MatchResult(state.position is not None, state.position)

    def run_reference(
        self, text: Union[str, bytes], max_steps: Optional[int] = None
    ) -> MatchResult:
        """The pre-optimization interpreter (golden reference)."""
        return self._run(_as_bytes(text), None, max_steps)

    def run_with_stats(
        self, text: Union[str, bytes], max_steps: Optional[int] = None
    ):
        """Like :meth:`run` but also returns :class:`VMStatistics`."""
        stats = VMStatistics()
        result = self._run(_as_bytes(text), stats, max_steps)
        return result, stats

    def _run(
        self,
        data: bytes,
        stats: Optional[VMStatistics],
        max_steps: Optional[int] = None,
    ) -> MatchResult:
        opcodes = self.tables.opcodes
        operands = self.tables.operands
        length = len(data)

        ACCEPT = int(Opcode.ACCEPT)
        ACCEPT_PARTIAL = int(Opcode.ACCEPT_PARTIAL)
        SPLIT = int(Opcode.SPLIT)
        JMP = int(Opcode.JMP)
        MATCH_ANY = int(Opcode.MATCH_ANY)
        MATCH = int(Opcode.MATCH)
        NOT_MATCH = int(Opcode.NOT_MATCH)

        frontier: List[int] = [0]
        if stats is not None:
            stats.threads_spawned += 1
        executed = 0

        for position in range(length + 1):
            if not frontier:
                break
            char = data[position] if position < length else None
            at_end = position == length
            visited: Set[int] = set()
            next_frontier: List[int] = []
            worklist = list(frontier)
            while worklist:
                pc = worklist.pop()
                if pc in visited:
                    if stats is not None:
                        stats.threads_killed += 1
                    continue
                visited.add(pc)
                opcode = opcodes[pc]
                if stats is not None:
                    stats.instructions_executed += 1
                if opcode == SPLIT:
                    worklist.append(pc + 1)
                    worklist.append(operands[pc])
                    if stats is not None:
                        stats.threads_spawned += 1
                elif opcode == JMP:
                    worklist.append(operands[pc])
                elif opcode == ACCEPT_PARTIAL:
                    return MatchResult(True, position)
                elif opcode == ACCEPT:
                    if at_end:
                        return MatchResult(True, position)
                    if stats is not None:
                        stats.threads_killed += 1
                elif opcode == NOT_MATCH:
                    if char is not None and char != operands[pc]:
                        worklist.append(pc + 1)
                    elif stats is not None:
                        stats.threads_killed += 1
                elif opcode == MATCH_ANY:
                    if char is not None:
                        next_frontier.append(pc + 1)
                    elif stats is not None:
                        stats.threads_killed += 1
                else:  # MATCH
                    if char is not None and char == operands[pc]:
                        next_frontier.append(pc + 1)
                    elif stats is not None:
                        stats.threads_killed += 1
            if stats is not None:
                stats.positions_processed += 1
                stats.frontier_sizes.append(len(next_frontier))
                stats.max_frontier = max(stats.max_frontier, len(next_frontier))
            if max_steps is not None:
                # Per-position accounting keeps the inner loop free of
                # budget branches; |visited| is exactly the number of
                # distinct instructions executed at this position.
                executed += len(visited)
                if executed > max_steps:
                    raise VMStepBudgetError(
                        executed, max_steps, self.program.source_pattern
                    )
            frontier = next_frontier
        return MatchResult(False, None)


def run_program(program: Program, text: Union[str, bytes]) -> MatchResult:
    """One-shot convenience wrapper."""
    return ThompsonVM(program).run(text)
