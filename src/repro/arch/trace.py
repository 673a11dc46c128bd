"""Execution tracing: the paper's Figure-4-style cycle tables.

A :class:`TraceRecorder` passed to :meth:`CiceroSystem.run` collects one
event per retired instruction (which FIFO its thread lands in is not
recorded); the renderer prints the per-cycle view of Figure 4 — which
core executed which thread's PC at each cycle, with match/kill/jump
annotations — so the old multi-engine and new multi-core organizations
can be compared on a concrete run exactly as the paper illustrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa.instructions import Opcode


@dataclass(frozen=True)
class TraceEvent:
    """One retired instruction."""

    cycle: int
    engine: int
    core: int
    pc: int
    cc: int
    opcode: Opcode
    #: "advance" (match ok), "kill", "accept", "flow" (split/jmp/notmatch)
    outcome: str
    #: Split/jump target, or next pc on advance.
    target: Optional[int] = None


class TraceRecorder:
    """Collects events; attach via ``CiceroSystem.run(..., trace=...)``."""

    def __init__(self):
        self.events: List[TraceEvent] = []

    def record(self, **kwargs) -> None:
        self.events.append(TraceEvent(**kwargs))

    @property
    def num_cycles(self) -> int:
        return max((event.cycle for event in self.events), default=-1) + 1

    def events_for(self, engine: int, core: int) -> List[TraceEvent]:
        return [
            event
            for event in self.events
            if event.engine == engine and event.core == core
        ]


def _cell(event: TraceEvent) -> str:
    if event.outcome == "advance":
        return f"{event.pc}✓"
    if event.outcome == "kill":
        return f"{event.pc}✗"
    if event.outcome == "accept":
        return f"{event.pc}!"
    if event.opcode in (Opcode.SPLIT, Opcode.JMP):
        return f"{event.pc}→{event.target}"
    return f"{event.pc}·"


def render_figure4(
    recorder: TraceRecorder,
    num_engines: int,
    cores_per_engine: int,
    max_cycles: Optional[int] = 40,
    cell_width: int = 7,
) -> str:
    """Render the trace as the paper's Figure-4 grid.

    One row per core; one column per cycle.  Cell notation follows the
    figure: ``p→q`` jump/split to q, ``p✓`` successful match (thread
    advances a character), ``p✗`` thread killed, ``p!`` acceptance.
    """
    cycles = recorder.num_cycles
    if max_cycles is not None:
        cycles = min(cycles, max_cycles)

    grid: Dict[Tuple[int, int, int], str] = {}
    for event in recorder.events:
        if event.cycle < cycles:
            grid[(event.engine, event.core, event.cycle)] = _cell(event)

    lines = []
    header = "cycle".ljust(16) + "".join(
        str(cycle).center(cell_width) for cycle in range(cycles)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for engine in range(num_engines):
        for core in range(cores_per_engine):
            label = f"E{engine} CORE{core}".ljust(16)
            row = "".join(
                grid.get((engine, core, cycle), "").center(cell_width)
                for cycle in range(cycles)
            )
            lines.append(label + row)
    return "\n".join(lines)


def trace_run(program, config, text, max_cycles: Optional[int] = None):
    """Convenience: run with tracing; returns (result, recorder)."""
    from .system import CiceroSystem

    recorder = TraceRecorder()
    result = CiceroSystem(program, config).run(
        text, max_cycles=max_cycles, trace=recorder
    )
    return result, recorder
