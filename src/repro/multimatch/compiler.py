"""Multi-matching compiler: the paper's §8 future-work extension.

"Future directions for this work can extend the current ISA for
acceptance instructions to support RE identification in multi-matching
scenarios.  In this way, the execution engine could return the RE
identifiers when a match occurs."

This module implements that: :class:`MultiPatternCompiler` compiles a
set of patterns into **one** Cicero program whose acceptance
instructions carry the pattern's identifier in their (previously
unused) 13-bit operand field.  The combined layout is an entry split
chain forking into each pattern's independently optimized body::

    000: SPLIT  {1, body_1}     ; fork pattern 1
    001: SPLIT  {2, body_2}     ; fork pattern 2
    002: <body_0 ...>           ; fall through into pattern 0
         ...
    body_1: <body_1 ...>
         ...

Each body keeps its own ``.*`` prefix loop and anchoring, so patterns
with different anchor flags combine freely.  Identifiers are 1-based
(0 is reserved for "untagged" base-ISA programs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..compiler import CompileOptions, NewCompiler
from ..ir.diagnostics import CodegenError
from ..isa.instructions import Instruction, MAX_OPERAND, Opcode
from ..isa.program import Program


@dataclass
class MultiProgram:
    """A combined program plus its id → pattern table.

    ``analyses`` maps each pattern id to the compile-time
    :class:`~repro.prefilter.analysis.PrefilterAnalysis` of its body
    (captured before composition — the combined program's own analysis
    would be the useless union), from which
    :class:`~repro.prefilter.multi.PrefilteredMultiMatchVM` builds one
    chunk filter per rule to prune candidates.
    Missing ids are treated as inert.
    """

    program: Program
    patterns: Dict[int, str] = field(default_factory=dict)
    analyses: Dict[int, object] = field(default_factory=dict)

    @property
    def ids(self) -> List[int]:
        return sorted(self.patterns)

    def pattern_of(self, match_id: int) -> str:
        return self.patterns[match_id]

    def __len__(self) -> int:
        return len(self.program)


def _relocate(instructions: Sequence[Instruction], offset: int) -> List[Instruction]:
    relocated = []
    for instruction in instructions:
        if instruction.opcode.is_control_flow:
            relocated.append(
                Instruction(instruction.opcode, instruction.operand + offset)
            )
        else:
            relocated.append(instruction)
    return relocated


def _tag_acceptances(
    instructions: Sequence[Instruction], match_id: int
) -> List[Instruction]:
    tagged = []
    for instruction in instructions:
        if instruction.opcode.is_acceptance:
            tagged.append(Instruction(instruction.opcode, match_id))
        else:
            tagged.append(instruction)
    return tagged


class MultiPatternCompiler:
    """Compile many patterns into one identifier-tagged program."""

    def __init__(self, options: Optional[CompileOptions] = None):
        self._compiler = NewCompiler(options)

    def compile(self, patterns: Sequence[str]) -> MultiProgram:
        if not patterns:
            raise CodegenError("multi-matching needs at least one pattern")
        if len(patterns) > MAX_OPERAND:
            raise CodegenError(
                f"cannot tag more than {MAX_OPERAND} patterns "
                "(13-bit identifier field)"
            )
        bodies: List[List[Instruction]] = []
        body_maps: List[List[Optional[str]]] = []
        table: Dict[int, str] = {}
        analyses: Dict[int, object] = {}
        for index, pattern in enumerate(patterns):
            match_id = index + 1
            compiled = self._compiler.compile(pattern)
            bodies.append(_tag_acceptances(list(compiled.program), match_id))
            table[match_id] = pattern
            if compiled.program.analysis is not None:
                analyses[match_id] = compiled.program.analysis
            # Per-pattern attribution survives composition: prefix each
            # body's source fragments with the pattern identifier.
            body_map = compiled.program.source_map
            body_maps.append(
                [
                    f"#{match_id} {fragment}" if fragment is not None else None
                    for fragment in (body_map or [None] * len(compiled.program))
                ]
            )

        chain_length = len(bodies) - 1
        body_starts: List[int] = []
        cursor = chain_length
        for body in bodies:
            body_starts.append(cursor)
            cursor += len(body)
        # Relocated jump targets must fit the 13-bit operand: reject an
        # oversize combination before any instruction is built.
        source_pattern = " | ".join(patterns)
        self._compiler.budget.check_program_size(cursor, source_pattern)

        instructions: List[Instruction] = []
        source_map: List[Optional[str]] = ["(dispatch)"] * chain_length
        # Entry split chain: split i forks pattern i+1; the last chain
        # entry falls through into pattern 0's body.
        for index in range(chain_length):
            instructions.append(
                Instruction(Opcode.SPLIT, body_starts[index + 1])
            )
        for body, body_map, start in zip(bodies, body_maps, body_starts):
            instructions.extend(_relocate(body, start))
            source_map.extend(body_map)

        program = Program(
            instructions,
            source_pattern=source_pattern,
            compiler="new-mlir-multimatch",
            source_map=(
                source_map
                if any(entry is not None for entry in source_map)
                else None
            ),
        )
        return MultiProgram(program=program, patterns=table, analyses=analyses)


def compile_multipattern(
    patterns: Sequence[str], options: Optional[CompileOptions] = None
) -> MultiProgram:
    return MultiPatternCompiler(options).compile(patterns)
