"""Fault injection: prove the stack *detects* silicon-level corruption.

A DSA deployment has failure modes a software matcher never sees: an SEU
flips a bit of instruction memory, a FIFO overflow silently drops a
thread, an instruction cache degrades to misses-only.  This module
injects exactly those faults into the model and classifies what happens,
so the test suite can assert the hardening layer's safety property:

    **every injected fault is either detected or provably benign** —
    there is no third bucket of silently wrong results.

Detection happens at one of four layers, probed in order:

* ``validation`` — :meth:`repro.isa.Program.validate` (or the
  instruction-level field checks) rejects the corrupted image outright;
* ``equivalence`` — the :mod:`repro.verify` decision procedure proves
  the corrupted program accepts a different language, returning a
  concrete counterexample input;
* ``golden-model`` — the cycle-level run disagrees with the
  :class:`~repro.vm.thompson.ThompsonVM` verdict on a given input;
* ``watchdog`` — the run never terminates and the cycle budget converts
  the hang into a typed :class:`~repro.arch.system.SimulationError`.

A *benign* outcome is one where correctness is provably unaffected: the
corrupted program is language-equivalent (e.g. a flipped bit in a dead
operand), the dropped FIFO entry never existed (index past the run's
pushes), or the fault is timing-only (forced cache misses change cycles,
never the verdict).

Faults are installed by swapping the simulator's components for
instrumented subclasses (:class:`DroppingFifo`, :class:`AlwaysMissCache`)
on a live :class:`~repro.arch.system.CiceroSystem` — white-box by
design, mirroring how a hardware fault-injection campaign instruments
RTL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..arch.cache import InstructionCache
from ..arch.config import ArchConfig
from ..arch.fifo import ThreadFifo
from ..arch.system import CiceroSystem, SimulationError
from ..ir.diagnostics import CodegenError
from ..isa.instructions import Instruction, OPERAND_BITS, Opcode
from ..isa.program import Program
from ..verify.equivalence import check_equivalence
from ..vm.thompson import ThompsonVM

#: Detection layers, in probing order.
DETECTORS = ("validation", "equivalence", "golden-model", "watchdog")


# ----------------------------------------------------------------------
# Fault descriptions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InstructionFault:
    """Corrupt one instruction-memory word: set ``opcode`` and/or
    ``operand`` at ``address`` (``None`` keeps the original field)."""

    address: int
    opcode: Optional[Opcode] = None
    operand: Optional[int] = None

    def describe(self) -> str:
        changes = []
        if self.opcode is not None:
            changes.append(f"opcode={Opcode(self.opcode).mnemonic}")
        if self.operand is not None:
            changes.append(f"operand={self.operand}")
        return f"@{self.address}: " + ", ".join(changes or ["no-op"])


@dataclass(frozen=True)
class FifoDropFault:
    """Silently discard the N-th, M-th, ... pushes (1-based, counted
    across every FIFO of the system) — a modelled overflow drop."""

    drop_pushes: Tuple[int, ...]

    def describe(self) -> str:
        return f"drop FIFO pushes {sorted(self.drop_pushes)}"


@dataclass(frozen=True)
class CacheMissFault:
    """Force every instruction fetch to miss (a disabled/poisoned
    icache) — the worst case of the §5 cache-pressure mechanism."""

    def describe(self) -> str:
        return "force all icache misses"


AnyFault = Union[InstructionFault, FifoDropFault, CacheMissFault]


@dataclass(frozen=True)
class FaultOutcome:
    """What one injected fault did, and which layer accounted for it."""

    fault: AnyFault
    #: One of :data:`DETECTORS`, or ``None`` for a provably benign fault.
    detected_by: Optional[str]
    detail: str = ""

    @property
    def detected(self) -> bool:
        return self.detected_by is not None

    @property
    def benign(self) -> bool:
        return self.detected_by is None


@dataclass
class CampaignReport:
    """Aggregate over a systematic fault sweep."""

    outcomes: List[FaultOutcome] = field(default_factory=list)

    @property
    def injected(self) -> int:
        return len(self.outcomes)

    @property
    def detected(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.detected)

    @property
    def benign(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.benign)

    def by_detector(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for outcome in self.outcomes:
            key = outcome.detected_by or "benign"
            histogram[key] = histogram.get(key, 0) + 1
        return histogram

    def all_accounted(self) -> bool:
        """The safety property: detected or benign, nothing else."""
        return all(
            outcome.detected_by in DETECTORS or outcome.benign
            for outcome in self.outcomes
        )


# ----------------------------------------------------------------------
# Instruction-memory corruption
# ----------------------------------------------------------------------
def corrupt_program(program: Program, fault: InstructionFault) -> Program:
    """Apply ``fault`` to a copy of ``program``.

    Raises ``IndexError`` for an address outside the program, and lets
    the instruction/program validation errors propagate — those *are*
    the validation layer catching the fault.
    """
    instructions = list(program.instructions)
    original = instructions[fault.address]
    opcode = original.opcode if fault.opcode is None else Opcode(fault.opcode)
    operand = original.operand if fault.operand is None else fault.operand
    instructions[fault.address] = Instruction(opcode, operand)
    return Program(
        instructions,
        source_pattern=program.source_pattern,
        compiler=f"{program.compiler}+fault",
    )


def instruction_fault_sites(program: Program) -> Iterator[InstructionFault]:
    """Systematic single-word corruptions: every alternative opcode and
    every single operand bit flip, at every address."""
    for address, instruction in enumerate(program):
        for opcode in Opcode:
            if opcode is not instruction.opcode:
                yield InstructionFault(address, opcode=opcode)
        for bit in range(OPERAND_BITS):
            yield InstructionFault(
                address, operand=instruction.operand ^ (1 << bit)
            )


def classify_instruction_fault(
    program: Program, fault: InstructionFault, max_states: int = 50_000
) -> FaultOutcome:
    """Which layer accounts for ``fault``?

    ``validation`` when the corrupted image does not even construct;
    ``equivalence`` when the decision procedure finds a distinguishing
    input; benign when the corruption is language-equivalent.
    """
    try:
        corrupted = corrupt_program(program, fault)
    except (CodegenError, ValueError) as error:
        return FaultOutcome(fault, "validation", str(error))
    verdict = check_equivalence(program, corrupted, max_states=max_states)
    if not verdict.equivalent:
        return FaultOutcome(
            fault,
            "equivalence",
            f"counterexample {verdict.counterexample!r} accepted only by "
            f"the {verdict.accepted_by} program",
        )
    return FaultOutcome(fault, None, "language-equivalent corruption")


def run_instruction_campaign(
    program: Program,
    faults: Optional[Sequence[InstructionFault]] = None,
    max_states: int = 50_000,
) -> CampaignReport:
    """Classify every fault (default: all of
    :func:`instruction_fault_sites`) against ``program``."""
    report = CampaignReport()
    for fault in faults if faults is not None else instruction_fault_sites(program):
        report.outcomes.append(
            classify_instruction_fault(program, fault, max_states=max_states)
        )
    return report


# ----------------------------------------------------------------------
# FIFO drops
# ----------------------------------------------------------------------
class FaultPlan:
    """Shared push counter across every FIFO of one system, so a drop
    index identifies one specific push system-wide."""

    __slots__ = ("drop_pushes", "pushes", "dropped")

    def __init__(self, drop_pushes: Sequence[int]):
        self.drop_pushes = frozenset(drop_pushes)
        self.pushes = 0
        self.dropped = 0

    def should_drop(self) -> bool:
        self.pushes += 1
        if self.pushes in self.drop_pushes:
            self.dropped += 1
            return True
        return False


class DroppingFifo(ThreadFifo):
    """A :class:`~repro.arch.fifo.ThreadFifo` that silently loses the
    pushes its :class:`FaultPlan` selects — the entry vanishes but the
    system's live-thread accounting still expects it, exactly like a
    hardware overflow drop."""

    __slots__ = ("plan",)

    def __init__(self, plan: FaultPlan):
        super().__init__()
        self.plan = plan

    def push(self, pc: int, cc: int, ready_cycle: int) -> None:
        if self.plan.should_drop():
            return
        super().push(pc, cc, ready_cycle)


def install_fifo_fault(system: CiceroSystem, fault: FifoDropFault) -> FaultPlan:
    """Swap every FIFO of ``system`` for a dropping one; returns the
    shared plan (inspect ``plan.dropped`` after the run)."""
    plan = FaultPlan(fault.drop_pushes)
    for engine in system._engines:
        engine.fifos = [DroppingFifo(plan) for _ in engine.fifos]
    return plan


def classify_fifo_fault(
    program: Program,
    text: Union[str, bytes],
    fault: FifoDropFault,
    config: Optional[ArchConfig] = None,
    max_cycles: int = 500_000,
) -> FaultOutcome:
    """Run ``program`` over ``text`` with the drop installed and account
    for the outcome.

    A dropped thread leaves the live-thread count permanently ahead of
    the FIFO contents, so the run either still matches (verdict checked
    against the golden model), or can never drain and the cycle watchdog
    fires — there is no silent-exit path.
    """
    golden = ThompsonVM(program).run(text)
    system = CiceroSystem(program, config if config is not None else ArchConfig.new(4))
    plan = install_fifo_fault(system, fault)
    try:
        result = system.run(text, max_cycles=max_cycles)
    except SimulationError as error:
        return FaultOutcome(fault, "watchdog", f"{error.code}: {error}")
    if plan.dropped == 0:
        return FaultOutcome(fault, None, "fault never triggered (too few pushes)")
    if result.matched != golden.matched:
        return FaultOutcome(
            fault,
            "golden-model",
            f"simulator said matched={result.matched}, "
            f"golden model says {golden.matched}",
        )
    return FaultOutcome(
        fault,
        None,
        f"verdict preserved (matched={result.matched}); dropped thread "
        "was redundant",
    )


def run_fifo_campaign(
    program: Program,
    text: Union[str, bytes],
    drop_indices: Sequence[int],
    config: Optional[ArchConfig] = None,
    max_cycles: int = 500_000,
) -> CampaignReport:
    """One run per index, each dropping exactly that push."""
    report = CampaignReport()
    for index in drop_indices:
        report.outcomes.append(
            classify_fifo_fault(
                program,
                text,
                FifoDropFault((index,)),
                config=config,
                max_cycles=max_cycles,
            )
        )
    return report


# ----------------------------------------------------------------------
# Forced cache misses
# ----------------------------------------------------------------------
class AlwaysMissCache(InstructionCache):
    """An instruction cache whose every lookup misses — fills happen and
    are immediately useless.  A pure timing fault."""

    __slots__ = ()
    always_miss = True

    def lookup(self, pc: int) -> bool:
        self.stats.misses += 1
        return False


def install_cache_fault(system: CiceroSystem) -> None:
    """Swap every core's icache for an :class:`AlwaysMissCache` of the
    same geometry (statistics start fresh)."""
    for engine in system._engines:
        for core in engine.cores:
            old = core.cache
            core.cache = AlwaysMissCache(old.lines, old.line_words, old.ways)


def classify_cache_fault(
    program: Program,
    text: Union[str, bytes],
    config: Optional[ArchConfig] = None,
) -> FaultOutcome:
    """Forced misses must be benign: same verdict as the golden model
    and the clean run, only slower."""
    fault = CacheMissFault()
    config = config if config is not None else ArchConfig.new(4)
    golden = ThompsonVM(program).run(text)
    clean = CiceroSystem(program, config).run(text)
    system = CiceroSystem(program, config)
    install_cache_fault(system)
    try:
        faulty = system.run(text)
    except SimulationError as error:
        return FaultOutcome(fault, "watchdog", f"{error.code}: {error}")
    if faulty.matched != golden.matched or faulty.matched != clean.matched:
        return FaultOutcome(
            fault,
            "golden-model",
            f"verdict changed under forced misses: {faulty.matched} vs "
            f"golden {golden.matched}",
        )
    return FaultOutcome(
        fault,
        None,
        f"timing-only: {clean.cycles} -> {faulty.cycles} cycles, "
        f"verdict matched={faulty.matched} preserved",
    )


__all__ = [
    "AlwaysMissCache",
    "AnyFault",
    "CacheMissFault",
    "CampaignReport",
    "DETECTORS",
    "DroppingFifo",
    "FaultOutcome",
    "FaultPlan",
    "FifoDropFault",
    "InstructionFault",
    "classify_cache_fault",
    "classify_fifo_fault",
    "classify_instruction_fault",
    "corrupt_program",
    "install_cache_fault",
    "install_fifo_fault",
    "instruction_fault_sites",
    "run_fifo_campaign",
    "run_instruction_campaign",
]
