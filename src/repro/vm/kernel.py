"""The one matching kernel every Thompson-style executor runs on.

Two pieces, shared by :class:`~repro.vm.thompson.ThompsonVM`,
:class:`~repro.multimatch.vm.MultiMatchVM`, both streaming matchers and
the lazy DFA:

* :class:`DispatchTables` — the program split into parallel instruction
  arrays plus the ε-closure successor/entry tables, built once per
  program (``SPLIT``/``JMP`` chains folded down to the *work*
  instructions they lead to).
* :class:`Enumeration` — the resumable breadth-first enumeration.  Its
  whole between-position state is the frontier (the work PCs that
  survived the last byte) and the executed-step count, so
  :meth:`~Enumeration.feed` over any chunk split performs the same
  per-position transitions, in the same order, with the same budget
  checks as one call over the joined input; :meth:`~Enumeration.finish`
  runs the end-of-input position where ``ACCEPT`` fires.  The only
  parameter that changes what the loop *does* is ``targets``: ``None``
  settles at the first ``ACCEPT_PARTIAL``; a frozenset of ids collects
  accept operands until every target is seen.

Telemetry is an :class:`Observer` attached for one run.  The loop calls
it once per position with what it already holds, so the uninstrumented
path pays one ``is not None`` per position and nothing per instruction.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set

from ..isa.instructions import Opcode
from ..isa.program import Program
from ..observability.tracer import NULL_TRACER
from ..runtime.errors import VMStepBudgetError

SPLIT = int(Opcode.SPLIT)
JMP = int(Opcode.JMP)
MATCH = int(Opcode.MATCH)
MATCH_ANY = int(Opcode.MATCH_ANY)
NOT_MATCH = int(Opcode.NOT_MATCH)
ACCEPT = int(Opcode.ACCEPT)
ACCEPT_PARTIAL = int(Opcode.ACCEPT_PARTIAL)


class DispatchTables:
    """Load-time precomputation over one program.

    ``successors[pc]`` is the ε-closure of ``pc + 1`` for every
    instruction that can continue there (matches and ``NOT_MATCH``);
    ``entry`` is the closure of address 0.  Program validation
    guarantees those instructions never sit at the last address, so
    ``pc + 1`` always exists.
    """

    def __init__(self, program: Program):
        self.program = program
        # Parallel arrays: the hot loop then avoids attribute lookups on
        # Instruction objects.
        self.opcodes = [int(instruction.opcode) for instruction in program]
        self.operands = [instruction.operand for instruction in program]
        self.successors: List[Optional[tuple]] = [
            self._closure_of(pc + 1)
            if opcode in (MATCH, MATCH_ANY, NOT_MATCH)
            else None
            for pc, opcode in enumerate(self.opcodes)
        ]
        self.entry: tuple = self._closure_of(0)
        #: The conditional-ε instructions; lets an observer recount their
        #: expansions from a position's visited set without walking all of it.
        self.not_match_pcs = frozenset(
            pc for pc, opcode in enumerate(self.opcodes) if opcode == NOT_MATCH
        )

    def _closure_of(self, root: int) -> tuple:
        """Work instructions reachable from ``root`` via ε-moves only.

        ``SPLIT`` and ``JMP`` are input-independent, so the set of
        match/accept/``NOT_MATCH`` instructions they lead to is a static
        property of the program; cycles (ε-loops) terminate through the
        visited set exactly as the interpreter's per-position dedup does.
        """
        opcodes, operands = self.opcodes, self.operands
        seen: Set[int] = set()
        work: List[int] = []
        stack = [root]
        while stack:
            pc = stack.pop()
            if pc in seen:
                continue
            seen.add(pc)
            opcode = opcodes[pc]
            if opcode == SPLIT:
                stack.append(pc + 1)
                stack.append(operands[pc])
            elif opcode == JMP:
                stack.append(operands[pc])
            else:
                work.append(pc)
        return tuple(work)


class Enumeration:
    """Resumable enumeration state over one :class:`DispatchTables`.

    ``position`` is the absolute offset at which a single-match run
    accepted (``None`` until then); ``matched`` the ids a collecting run
    has seen; ``consumed`` the absolute offset of the next byte.  Once
    ``settled`` no suffix can change the verdict and further calls are
    no-ops; a tripped step budget is kept and re-raised by every later
    call.
    """

    __slots__ = (
        "tables", "max_steps", "targets", "observer", "frontier",
        "executed", "consumed", "position", "matched", "settled", "error",
    )

    def __init__(
        self,
        tables: DispatchTables,
        max_steps: Optional[int] = None,
        targets: Optional[FrozenSet[int]] = None,
    ):
        self.tables = tables
        self.max_steps = max_steps
        self.targets = targets
        self.observer: Optional[Observer] = None
        self.frontier: List[int] = list(tables.entry)
        self.executed = 0
        self.consumed = 0
        self.position: Optional[int] = None
        self.matched: Set[int] = set()
        self.settled = False
        self.error: Optional[VMStepBudgetError] = None

    def settle(self, matched: bool) -> None:
        """Close the enumeration; a match is at the ``consumed`` offset."""
        self.frontier = []
        self.settled = True
        if matched:
            self.position = self.consumed

    def _over_budget(self, executed: int, consumed: int) -> VMStepBudgetError:
        self.frontier = []
        self.executed = executed
        self.consumed = consumed
        self.error = VMStepBudgetError(
            executed, self.max_steps, self.tables.program.source_pattern
        )
        return self.error

    def feed(self, data: bytes, start: int = 0) -> None:
        """Run every position of ``data[start:]`` (each has a byte)."""
        if self.error is not None:
            raise self.error
        if self.settled:
            return
        # All state (and the opcode constants) lives in locals for the
        # duration of the call: an attribute store or a global load inside
        # ``while worklist`` costs more than the dispatch it sits next to.
        match, match_any, not_match, accept_partial = (
            MATCH, MATCH_ANY, NOT_MATCH, ACCEPT_PARTIAL
        )
        opcodes = self.tables.opcodes
        operands = self.tables.operands
        successors = self.tables.successors
        max_steps = self.max_steps
        observer = self.observer
        targets = self.targets
        matched = self.matched
        frontier = self.frontier
        executed = self.executed
        base = self.consumed - start
        stop = len(data)
        for index in range(start, stop):
            if not frontier:
                break  # dead: the rest of the chunk cannot matter
            if targets is not None and matched >= targets:
                stop = index
                break
            char = data[index]
            visited: Set[int] = set()
            roots: Set[int] = set()
            worklist = frontier
            while worklist:
                pc = worklist.pop()
                if pc in visited:
                    continue
                visited.add(pc)
                opcode = opcodes[pc]
                # Most frequent first: consuming matches are the bulk of
                # every program, accepts one instruction per rule.
                if opcode == match:
                    if char == operands[pc]:
                        roots.add(pc)
                elif opcode == match_any:
                    roots.add(pc)
                elif opcode == not_match:
                    # ε conditioned on the current character: fold the
                    # successor closure into this position's worklist.
                    if char != operands[pc]:
                        worklist.extend(successors[pc])
                elif opcode == accept_partial:
                    if targets is not None:
                        matched.add(operands[pc])
                        continue
                    if observer is not None:
                        observer.position(visited, char, unpopped=len(worklist))
                    self.executed = executed
                    self.consumed = base + index
                    return self.settle(True)
                # ACCEPT needs end-of-input; with a byte in hand it is dead.
            if max_steps is not None:
                # Per-position accounting keeps the inner loop free of
                # budget branches; |visited| is exactly the number of
                # distinct instructions executed at this position.
                executed += len(visited)
                if executed > max_steps:
                    if observer is not None:
                        observer.position(visited, char)
                    raise self._over_budget(executed, base + index + 1)
            frontier = []
            for root in roots:
                frontier.extend(successors[root])
            if observer is not None:
                observer.position(visited, char, len(roots), len(frontier))
        self.frontier = frontier
        self.executed = executed
        self.consumed = base + stop
        if not frontier or (targets is not None and matched >= targets):
            self.settled = True

    def finish(self) -> None:
        """Run the end-of-input position; always settles.

        No instruction can consume here, so only accepts matter.  The
        frontier is popped in the order :meth:`feed` would pop it: the
        PCs visited before a single-match accept are part of the step
        count.
        """
        if self.error is not None:
            raise self.error
        if self.settled:
            return
        self.settled = True
        opcodes = self.tables.opcodes
        observer = self.observer
        visited: Set[int] = set()
        worklist = self.frontier
        while worklist:
            pc = worklist.pop()
            if pc in visited:
                continue
            visited.add(pc)
            if opcodes[pc] in (ACCEPT, ACCEPT_PARTIAL):
                if self.targets is not None:
                    self.matched.add(self.tables.operands[pc])
                    continue
                if observer is not None:
                    observer.position(visited, -1, unpopped=len(worklist))
                return self.settle(True)
        if observer is not None:
            observer.position(visited, -1)
        if self.max_steps is not None:
            executed = self.executed + len(visited)
            if executed > self.max_steps:
                raise self._over_budget(executed, self.consumed)
            self.executed = executed


class Observer:
    """Per-position telemetry, derived from what the loop already holds.

    ``position(visited, char, carried, entering, unpopped)`` is called
    once per processed position, on every exit path: ``visited`` is the
    set of work PCs executed there, ``char`` the byte (-1 at end of
    input), ``carried`` how many consuming PCs go on to the next
    position and ``entering`` the length of the frontier they expand to
    (both 0 when the run stops here), ``unpopped`` what an early accept
    left on the worklist.  ``steps`` and ``pc_counts`` are both sums
    over ``visited``, so ``sum(pc_counts) == steps`` by construction.
    """

    def __init__(self, state: Enumeration, pc_counts: Optional[List[int]] = None):
        self.operands = state.tables.operands
        self.successors = state.tables.successors
        self.not_match_pcs = state.tables.not_match_pcs
        self.pc_counts = pc_counts
        #: Worklist length at the top of the next position.
        self.entering = len(state.frontier)
        self.steps = 0
        self.dedup_suppressed = 0
        self.closure_hits = 0
        self.positions = 0

    def position(
        self, visited, char: int, carried: int = 0, entering: int = 0,
        unpopped: int = 0,
    ) -> None:
        executed = len(visited)
        self.positions += 1
        self.steps += executed
        if self.pc_counts is not None:
            for pc in visited:
                self.pc_counts[pc] += 1
        # Every pop either executed a PC or was suppressed as a duplicate;
        # the pops are the entering frontier plus each NOT_MATCH expansion.
        popped = self.entering - unpopped
        expansions = 0
        if char >= 0:
            operands = self.operands
            successors = self.successors
            for pc in visited & self.not_match_pcs:
                if operands[pc] != char:
                    expansions += 1
                    popped += len(successors[pc])
        self.dedup_suppressed += popped - executed
        self.closure_hits += expansions + carried
        self.entering = entering

    def publish(self, span, metrics, profile, state: Enumeration) -> None:
        """Close one run: span attributes, ``repro_vm_*`` counters, profile."""
        if state.targets is None:
            verdict = {"matched": state.position is not None}
        else:
            verdict = {"matched_ids": sorted(state.matched)}
        span.set(
            steps=self.steps,
            dedup_suppressed=self.dedup_suppressed,
            closure_hits=self.closure_hits,
            positions=self.positions,
            **verdict,
        )
        if profile is not None:
            profile.runs += 1
            profile.positions += self.positions
            if state.position is not None or state.matched:
                profile.matches += 1
        if metrics is not None and metrics.enabled:
            for name, help_text, amount in (
                ("runs", "ThompsonVM fast-path executions", 1),
                ("steps", "work instructions executed by the VM", self.steps),
                ("dedup_suppressed", "threads killed by per-position dedup",
                 self.dedup_suppressed),
                ("closure_hits", "precomputed ε-closure table expansions",
                 self.closure_hits),
            ):
                metrics.counter(
                    f"repro_vm_{name}_total", help_text=help_text
                ).inc(amount)


def run_once(
    tables: DispatchTables,
    data: bytes,
    max_steps: Optional[int],
    targets: Optional[FrozenSet[int]],
    span_name: str,
    tracer,
    metrics,
    profile,
    **attributes,
) -> Enumeration:
    """One-shot execution: ``feed`` + ``finish``; returns the final state.

    An :class:`Observer` is attached only when ``profile`` is given or
    ``tracer``/``metrics`` are enabled; otherwise the cost of the three
    optional arguments is this one check per run.
    """
    state = Enumeration(tables, max_steps, targets)
    tracing = tracer is not None and tracer.enabled
    if profile is None and not tracing and not (
        metrics is not None and metrics.enabled
    ):
        state.feed(data)
        state.finish()
        return state
    observer = state.observer = Observer(
        state, profile.pc_counts if profile is not None else None
    )
    with (tracer if tracing else NULL_TRACER).span(
        span_name, program_size=len(tables.opcodes), input_bytes=len(data),
        **attributes,
    ) as span:
        try:
            state.feed(data)
            state.finish()
        finally:
            observer.publish(span, metrics, profile, state)
    return state
