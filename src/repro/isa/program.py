"""Executable Cicero programs: container, validation, disassembly."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional

from ..ir.diagnostics import CodegenError
from .instructions import Instruction, MAX_PROGRAM_LENGTH, Opcode

if TYPE_CHECKING:  # circular at runtime: prefilter executes programs
    from ..prefilter.analysis import PrefilterAnalysis

_opcode_of = attrgetter("opcode")
_operand_of = attrgetter("operand")
_BRANCHES = frozenset({Opcode.SPLIT, Opcode.JMP})
_ACCEPTANCES = frozenset({Opcode.ACCEPT, Opcode.ACCEPT_PARTIAL})
#: Opcodes that continue at PC+1 (a split forks to it).
_FALLS_THROUGH = frozenset(
    {Opcode.MATCH_ANY, Opcode.MATCH, Opcode.NOT_MATCH, Opcode.SPLIT}
)


@dataclass
class Program:
    """A validated, position-addressed sequence of Cicero instructions.

    ``source_pattern`` and ``compiler`` are provenance metadata used by
    the benchmark harness and the disassembler header.  ``source_map``
    (when present) gives, per instruction address, the source-regex
    fragment the instruction was lowered from — the attribution table
    :class:`repro.observability.VMProfile` maps hot PCs back through.
    Entries may be ``None`` for synthesized glue.  ``analysis`` carries
    the compile-time :class:`~repro.prefilter.analysis.PrefilterAnalysis`
    so cached and pickled programs ship their prefilter metadata to
    worker processes unchanged; ``None`` means "not analyzed" and every
    consumer treats it as inert.
    """

    instructions: List[Instruction] = field(default_factory=list)
    source_pattern: str = ""
    compiler: str = ""
    source_map: Optional[List[Optional[str]]] = None
    analysis: Optional["PrefilterAnalysis"] = None

    def __post_init__(self):
        self.validate()

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, address: int) -> Instruction:
        return self.instructions[address]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check program-level invariants.

        * non-empty, within the 13-bit address space;
        * every control-flow target is a valid address;
        * the last instruction does not fall through past program end;
        * the program can terminate: at least one acceptance instruction.
        """
        if not self.instructions:
            raise CodegenError("empty program")
        if self.source_map is not None and len(self.source_map) != len(
            self.instructions
        ):
            raise CodegenError(
                f"source map covers {len(self.source_map)} addresses but "
                f"the program has {len(self.instructions)}"
            )
        if len(self.instructions) > MAX_PROGRAM_LENGTH:
            raise CodegenError(
                f"program of {len(self.instructions)} instructions exceeds "
                f"the {MAX_PROGRAM_LENGTH}-entry address space"
            )
        # Whole-list passes in C: opcodes are tested by set membership,
        # and only a failing program is walked in Python for the message.
        instructions = self.instructions
        length = len(instructions)
        opcodes = list(map(_opcode_of, instructions))
        targets = compress(
            map(_operand_of, instructions), map(_BRANCHES.__contains__, opcodes)
        )
        if max(targets, default=-1) >= length:
            for address, instruction in enumerate(instructions):
                if instruction.opcode in _BRANCHES and instruction.operand >= length:
                    raise CodegenError(
                        f"instruction {address} targets address "
                        f"{instruction.operand} beyond program end"
                    )
        if _ACCEPTANCES.isdisjoint(opcodes):
            raise CodegenError("program has no acceptance instruction")
        # MATCH/NOT_MATCH/MATCH_ANY continue at PC+1 and SPLIT forks to
        # it; at the last address that successor does not exist.
        last = instructions[-1]
        if last.opcode in _FALLS_THROUGH:
            raise CodegenError(
                f"last instruction {last.opcode.mnemonic} falls through "
                "past program end"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def disassemble(self) -> str:
        """Paper Listing-2 style disassembly."""
        lines = []
        if self.source_pattern:
            lines.append(f"; pattern: {self.source_pattern}")
        if self.compiler:
            lines.append(f"; compiler: {self.compiler}")
        lines.extend(
            instruction.render(address)
            for address, instruction in enumerate(self.instructions)
        )
        return "\n".join(lines)

    def opcode_histogram(self) -> dict:
        histogram = {}
        for instruction in self.instructions:
            name = instruction.opcode.mnemonic
            histogram[name] = histogram.get(name, 0) + 1
        return histogram

    def __str__(self) -> str:
        return self.disassemble()


def program_from(
    instructions: Iterable[Instruction],
    source_pattern: str = "",
    compiler: str = "",
    source_map: Optional[List[Optional[str]]] = None,
    analysis: Optional["PrefilterAnalysis"] = None,
) -> Program:
    return Program(list(instructions), source_pattern, compiler, source_map, analysis)
