"""The one matching kernel every Thompson-style executor runs on.

Two pieces, shared by :class:`~repro.vm.thompson.ThompsonVM`,
:class:`~repro.multimatch.vm.MultiMatchVM`, both streaming matchers and
the lazy DFA:

* :class:`DispatchTables` — the program lowered to bit masks (bit
  ``pc`` stands for the work instruction at ``pc``): ε-closures, byte
  classes and the lazily filled **step table**.
  :meth:`DispatchTables.step` is one position over a frontier held as
  one ``int``; the lazy DFA runs the same position inline on a miss,
  reading and filling the same memos, and interns its result as a
  transition row (one list indexing per cached byte, no lock); the
  kernel keeps no result.
* :class:`Enumeration` — the resumable breadth-first enumeration.  Its
  whole between-position state is the frontier (the mask of work PCs
  that survived the last byte) and the executed-step count, so
  :meth:`~Enumeration.feed` over any chunk split performs the same
  per-position steps, with the same budget checks, as one call over the
  joined input; :meth:`~Enumeration.finish` runs the end-of-input
  position where ``ACCEPT`` fires.  The only parameter that changes what
  the loop *does* is ``targets``: ``None`` settles at the first
  ``ACCEPT_PARTIAL``; a frozenset of ids collects accept operands until
  every target is seen.

Telemetry is an :class:`Observer` attached for one run.  The loop calls
it once per position with the mask of PCs executed there, so the
uninstrumented path pays one local test per position and nothing per
instruction.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

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

#: Keys :meth:`DispatchTables.step`'s two memos hold in all.  The lazy
#: DFA adds at most two per transition it builds, the kernel two per
#: distinct frontier it steps; past the cap a miss is computed, not kept.
MEMO_ENTRIES = 20_000


def mask_pcs(mask: int) -> List[int]:
    """The PCs whose bits are set in ``mask``, ascending."""
    pcs = []
    while mask:
        low = mask & -mask
        pcs.append(low.bit_length() - 1)
        mask ^= low
    return pcs


def _mask_of(pcs: Iterable[int]) -> int:
    mask = 0
    for pc in pcs:
        mask |= 1 << pc
    return mask


class _StepColumn(dict):
    """One byte class of the step table: one-hot PC mask -> what that
    work instruction does at a position whose byte is in the class.

    An entry is two masks in one ``int``: below ``fires``, the PCs it
    contributes to the next position (``fires`` set when it reaches
    ``ACCEPT_PARTIAL``); from bit ``shift`` up, the PCs a passing
    ``NOT_MATCH`` makes the position execute besides itself.  Filled on
    first lookup, so a cold run pays only for the PCs its frontiers
    hold.  Holds the instruction arrays rather than the tables, so
    dropped tables are freed by reference count.
    """

    __slots__ = ("_char", "_opcodes", "_operands", "_successors", "_fires")

    def __init__(self, char: int, opcodes, operands, successors, fires: int):
        super().__init__()
        self._char = char
        self._opcodes = opcodes
        self._operands = operands
        self._successors = successors
        self._fires = fires

    def __missing__(self, bit: int) -> int:
        char = self._char
        opcodes = self._opcodes
        operands = self._operands
        successors = self._successors
        contributed = visited = 0
        # A NOT_MATCH that lets this byte through continues, within the
        # position, at its own successors; ε-loops through NOT_MATCH end
        # at the visited mask.
        rest = bit
        while rest:
            low = rest & -rest
            rest ^= low
            visited |= low
            pc = low.bit_length() - 1
            opcode = opcodes[pc]
            if opcode == NOT_MATCH:
                if char != operands[pc]:
                    rest |= successors[pc] & ~visited
            elif opcode == MATCH_ANY or (opcode == MATCH and char == operands[pc]):
                contributed |= successors[pc]
            elif opcode == ACCEPT_PARTIAL:
                contributed |= self._fires
            # ACCEPT needs end-of-input; with a byte in hand it is dead.
        entry = self[bit] = contributed | (visited ^ bit) << self._fires.bit_length()
        return entry


class DispatchTables:
    """Load-time lowering of one program to bit masks.

    ``successors[pc]`` is the mask of the ε-closure of ``pc + 1`` for
    every instruction that can continue there (matches and
    ``NOT_MATCH``; 0 for the rest); ``entry`` is the closure of address 0.
    Program validation guarantees those instructions never sit at the
    last address, so ``pc + 1`` always exists.

    Byte classes: every distinct ``MATCH``/``NOT_MATCH`` operand gets a
    singleton class and all other bytes share one residual class; the
    program cannot tell two bytes of a class apart, so input is mapped
    through the 256-byte ``class_table`` with :meth:`bytes.translate`
    and everything after that works per class.

    :meth:`step` ORs step-table entries in two parts, each memoized per
    distinct part.  The **byte-blind** PCs (``MATCH_ANY``,
    ``ACCEPT_PARTIAL``) contribute the same on every class: their OR is
    kept per ``state & blind_mask`` in ``blind``.  Of the rest only the
    **sighted** PCs can contribute on a class — every ``NOT_MATCH`` and
    the ``MATCH``es of the class's byte — and their OR is kept per class
    and ``state & sighted[class]`` in ``sighted_memo``.  Parts repeat far
    more than states do.
    """

    def __init__(self, program: Program):
        self.program = program
        # Parallel arrays: the step-table fill then avoids attribute
        # lookups on Instruction objects.
        self.opcodes = [int(instruction.opcode) for instruction in program]
        self.operands = [instruction.operand for instruction in program]
        self.successors: List[int] = [
            self._closure_of(pc + 1)
            if opcode in (MATCH, MATCH_ANY, NOT_MATCH)
            else 0
            for pc, opcode in enumerate(self.opcodes)
        ]
        self.entry: int = self._closure_of(0)
        #: "``ACCEPT_PARTIAL`` is reached: the match fires at this
        #: position" — the bit above every real PC, so a mask holds it
        #: exactly when it compares ``>=`` to it.
        self.fires = 1 << len(self.opcodes)
        #: Where a :meth:`step` result's executed-PC half starts, and the
        #: mask of the half below it: the next position and ``fires``.
        self.shift = len(self.opcodes) + 1
        self.next_mask = (1 << self.shift) - 1
        self._build_byte_classes()
        self._build_pc_masks()
        #: The step table, one :class:`_StepColumn` per byte class.
        self.steps = [
            _StepColumn(char, self.opcodes, self.operands, self.successors, self.fires)
            for char in self.representatives
        ]
        #: ``state & blind_mask`` -> what those PCs contribute, on any class.
        self.blind: Dict[int, int] = {}
        #: Per class, ``state & sighted[class]`` -> what those PCs contribute.
        self.sighted_memo: List[Dict[int, int]] = [{} for _ in self.steps]
        #: Keys the two memos may still take.
        self.memo_room = MEMO_ENTRIES

    @cached_property
    def tallies(self):
        """What the :class:`Observer` counts with: per class, the
        ``NOT_MATCH``es its byte passes and those plus the consuming PCs
        it matches; and every PC's closure size as bit planes, so a
        mask's total closure size is one popcount per plane."""
        not_match = self.not_match_mask
        blocked = dict.fromkeys(self.representatives, 0)
        for pc in mask_pcs(not_match):
            blocked[self.operands[pc]] |= 1 << pc
        passing = [not_match ^ mask for mask in blocked.values()]
        anys = self.blind_mask ^ self.partial_mask
        expanding = [
            passes | sighted ^ not_match | anys
            for passes, sighted in zip(passing, self.sighted)
        ]
        sizes = [mask.bit_count() for mask in self.successors]
        planes = [
            (shift, _mask_of(pc for pc, size in enumerate(sizes) if size >> shift & 1))
            for shift in range(max(sizes, default=0).bit_length())
        ]
        return passing, expanding, planes

    def _closure_of(self, root: int) -> int:
        """Work instructions reachable from ``root`` via the
        input-independent ``SPLIT``/``JMP`` ε-moves only."""
        opcodes, operands = self.opcodes, self.operands
        seen: Set[int] = set()
        work = 0
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
                work |= 1 << pc
        return work

    def _build_byte_classes(self) -> None:
        operand_bytes = sorted(
            {
                self.operands[pc]
                for pc, opcode in enumerate(self.opcodes)
                if opcode in (MATCH, NOT_MATCH)
            }
        )
        class_of = [len(operand_bytes)] * 256  # residual class by default
        for index, byte in enumerate(operand_bytes):
            class_of[byte] = index
        # One byte per class fills its column; the residual class (if any
        # byte falls in it) uses the smallest non-operand byte.
        self.representatives = operand_bytes + [
            byte for byte in range(256) if class_of[byte] == len(operand_bytes)
        ][:1]
        self.num_classes = len(self.representatives)
        self.class_table = bytes(class_of)

    def _build_pc_masks(self) -> None:
        opcodes = self.opcodes

        def pcs_with(*wanted: int) -> int:
            return _mask_of(
                pc for pc, opcode in enumerate(opcodes) if opcode in wanted
            )

        # The PCs that contribute the same on every byte class, and what.
        self.blind_mask = pcs_with(MATCH_ANY, ACCEPT_PARTIAL)
        self.blind_column = {
            1 << pc: self.successors[pc] if opcodes[pc] == MATCH_ANY else self.fires
            for pc in mask_pcs(self.blind_mask)
        }
        self.partial_mask = pcs_with(ACCEPT_PARTIAL)
        self.accept_mask = pcs_with(ACCEPT, ACCEPT_PARTIAL)
        self.not_match_mask = pcs_with(NOT_MATCH)
        # Per class, the PCs that can contribute only by inspecting the
        # byte: every NOT_MATCH and the MATCHes of the class's own byte.
        sighted = dict.fromkeys(self.representatives, self.not_match_mask)
        for pc, opcode in enumerate(opcodes):
            if opcode == MATCH:
                sighted[self.operands[pc]] |= 1 << pc
        self.sighted = list(sighted.values())

    def _or_entries(self, part: int, column, memo: Dict[int, int]) -> int:
        """The OR of ``column``'s entries for the PCs in ``part``, kept
        in ``memo`` while there is room."""
        contributed = 0
        rest = part
        while rest:
            low = rest & -rest
            contributed |= column[low]
            rest ^= low
        if self.memo_room:
            self.memo_room -= 1
            memo[part] = contributed
        return contributed

    def step(self, state: int, byte_class: int) -> int:
        """One position over the work PCs of ``state`` on a byte of
        ``byte_class``, as two masks in one ``int``: ``& next_mask`` is
        the next position's work PCs, ``>= fires`` when the match fires
        here; ``state | result >> shift`` is every PC the position
        executes."""
        blind = state & self.blind_mask
        stepped = self.blind.get(blind)
        if stepped is None:
            stepped = self._or_entries(blind, self.blind_column, self.blind)
        sighted = state & self.sighted[byte_class]
        memo = self.sighted_memo[byte_class]
        contributed = memo.get(sighted)
        if contributed is None:
            contributed = self._or_entries(sighted, self.steps[byte_class], memo)
        return stepped | contributed


class Enumeration:
    """Resumable enumeration state over one :class:`DispatchTables`.

    ``frontier`` is the mask of work PCs the next position starts from;
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
        self.frontier: int = tables.entry
        self.executed = 0
        self.consumed = 0
        self.position: Optional[int] = None
        self.matched: Set[int] = set()
        self.settled = False
        self.error: Optional[VMStepBudgetError] = None

    def settle(self, matched: bool) -> None:
        """Close the enumeration; a match is at the ``consumed`` offset."""
        self.frontier = 0
        self.settled = True
        if matched:
            self.position = self.consumed

    def _over_budget(self, executed: int, consumed: int) -> VMStepBudgetError:
        self.frontier = 0
        self.executed = executed
        self.consumed = consumed
        self.error = VMStepBudgetError(
            executed, self.max_steps, self.tables.program.source_pattern
        )
        return self.error

    def feed(self, data: bytes, start: int = 0) -> None:
        """Run every position of ``data[start:]`` (each has a byte).

        A position is one :meth:`DispatchTables.step` on the frontier.
        The PCs it executes are only unpacked when something reads them:
        the step budget, an observer, or a collecting run naming what
        fired.
        """
        if self.error is not None:
            raise self.error
        if self.settled:
            return
        # All state lives in locals for the duration of the call: an
        # attribute load inside the loop costs as much as a step entry.
        tables = self.tables
        step = tables.step
        next_mask = tables.next_mask
        shift = tables.shift
        fires = tables.fires
        max_steps = self.max_steps
        observer = self.observer
        targets = self.targets
        matched = self.matched
        tracking = max_steps is not None or observer is not None
        done = targets is not None and matched >= targets
        frontier = self.frontier
        executed = self.executed
        base = self.consumed - start
        stop = len(data)
        classes = data.translate(tables.class_table)
        for index in range(start, stop):
            if not frontier:
                break  # dead: the rest of the chunk cannot matter
            if done:
                stop = index
                break
            byte_class = classes[index]
            stepped = step(frontier, byte_class)
            successor = stepped & next_mask
            if tracking or successor >= fires:
                visited = frontier | stepped >> shift
                if successor >= fires:
                    if targets is None:
                        # Settled before the budget counts this position.
                        if observer is not None:
                            observer.position(visited, byte_class)
                        self.executed = executed
                        self.consumed = base + index
                        return self.settle(True)
                    successor ^= fires
                    for pc in mask_pcs(visited & tables.partial_mask):
                        matched.add(tables.operands[pc])
                    done = matched >= targets
                if max_steps is not None:
                    executed += visited.bit_count()
                    if executed > max_steps:
                        if observer is not None:
                            observer.position(visited, byte_class)
                        raise self._over_budget(executed, base + index + 1)
                if observer is not None:
                    observer.position(visited, byte_class, goes_on=True)
            frontier = successor
        self.frontier = frontier
        self.executed = executed
        self.consumed = base + stop
        if not frontier or done:
            self.settled = True

    def finish(self) -> None:
        """Run the end-of-input position; always settles.

        No instruction can consume or pass a ``NOT_MATCH`` here, so the
        PCs executed are the frontier itself and only accepts matter.
        """
        if self.error is not None:
            raise self.error
        if self.settled:
            return
        self.settled = True
        frontier = self.frontier
        if self.observer is not None:
            self.observer.position(frontier, -1)
        accepts = frontier & self.tables.accept_mask
        if accepts:
            if self.targets is None:
                return self.settle(True)
            self.matched.update(self.tables.operands[pc] for pc in mask_pcs(accepts))
        if self.max_steps is not None:
            executed = self.executed + frontier.bit_count()
            if executed > self.max_steps:
                raise self._over_budget(executed, self.consumed)
            self.executed = executed


class Observer:
    """Per-position telemetry, derived from the mask of PCs executed.

    ``position(visited, byte_class, goes_on)`` is called once per
    processed position, on every exit path: ``visited`` is the mask of
    work PCs the whole position executes — the accepting position's
    included, whatever made the run stop there — ``byte_class`` the class
    of its byte (-1 at end of input), ``goes_on`` whether the run
    continues past it.  From those alone:

    * ``steps`` counts the PCs in ``visited`` and ``pc_counts`` adds one
      to each of them, so ``sum(pc_counts) == steps`` by construction;
    * ``closure_hits`` counts the successor-closure expansions: every
      ``NOT_MATCH`` in ``visited`` the byte passes, and, when the run
      goes on, every consuming PC the byte matches;
    * ``dedup_suppressed`` counts the threads that arrive at a PC already
      executed at the position: the entry frontier, then each
      expansion's closure (duplicates included), minus the PCs executed.
      The closures carried past the last position never arrive.

    The step budget counts differently at one place: a single-match run
    settles at its accepting position before the budget counts it.
    """

    def __init__(self, state: Enumeration, pc_counts: Optional[List[int]] = None):
        self.passing, self.expanding, self.planes = state.tables.tallies
        self.not_match = state.tables.not_match_mask
        self.pc_counts = pc_counts
        #: Threads that arrived at a position so far.
        self.arrived = state.frontier.bit_count()
        #: The expansions of the last position, when the run went on.
        self.carried = 0
        self.steps = 0
        self.closure_hits = 0
        self.positions = 0

    def position(self, visited: int, byte_class: int, goes_on: bool = False) -> None:
        self.positions += 1
        self.steps += visited.bit_count()
        if self.pc_counts is not None:
            for pc in mask_pcs(visited):
                self.pc_counts[pc] += 1
        if byte_class < 0:
            expansions = 0
        elif goes_on:
            expansions = visited & self.expanding[byte_class]
        else:
            expansions = visited & self.passing[byte_class]
        self.carried = expansions if goes_on else 0
        if expansions:
            self.closure_hits += expansions.bit_count()
            arrived = self.arrived
            for shift, plane in self.planes:
                arrived += (expansions & plane).bit_count() << shift
            self.arrived = arrived

    @property
    def dedup_suppressed(self) -> int:
        carried = self.carried & ~self.not_match  # the consuming PCs
        unarrived = sum((carried & plane).bit_count() << s for s, plane in self.planes)
        return self.arrived - unarrived - self.steps

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
            count_run(metrics, self.steps)
            for name, help_text, amount in (
                ("dedup_suppressed", "threads killed by per-position dedup",
                 self.dedup_suppressed),
                ("closure_hits", "precomputed ε-closure table expansions",
                 self.closure_hits),
            ):
                metrics.counter(
                    f"repro_vm_{name}_total", help_text=help_text
                ).inc(amount)


def count_run(metrics, steps: int) -> None:
    """Count one run of ``steps`` work instructions in ``repro_vm_*``."""
    metrics.counter(
        "repro_vm_runs_total", help_text="ThompsonVM fast-path executions"
    ).inc()
    metrics.counter(
        "repro_vm_steps_total", help_text="work instructions executed by the VM"
    ).inc(steps)


def run_once(
    state: Enumeration,
    data: bytes,
    span_name: str,
    tracer,
    metrics,
    profile,
    start: int = 0,
    **attributes,
) -> Enumeration:
    """One-shot execution: ``feed`` from ``start`` + ``finish``.

    ``state`` is fresh, or seeded at ``data[start]`` by the lazy DFA's
    hand-off; it is returned finished.  An :class:`Observer` is attached
    only when ``profile`` is given or ``tracer``/``metrics`` are enabled;
    otherwise the cost of the three optional arguments is this one check
    per run.
    """
    tracing = tracer is not None and tracer.enabled
    if profile is None and not tracing and not (
        metrics is not None and metrics.enabled
    ):
        state.feed(data, start)
        state.finish()
        return state
    observer = state.observer = Observer(
        state, profile.pc_counts if profile is not None else None
    )
    with (tracer if tracing else NULL_TRACER).span(
        span_name, program_size=len(state.tables.opcodes),
        input_bytes=len(data) - start, **attributes,
    ) as span:
        try:
            state.feed(data, start)
            state.finish()
        finally:
            observer.publish(span, metrics, profile, state)
    return state
