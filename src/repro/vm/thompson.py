"""Functional (timing-free) executor for Cicero programs.

A breadth-first Thompson/Pike-style virtual machine: it advances a
deduplicated set of program counters over the input one character at a
time, exactly the enumeration the hardware performs, but without any
micro-architectural modelling.  The cycle-level simulator must return
the same verdict for every program, input, and configuration (tested
property), and compiled programs must agree with Python's :mod:`re` on
generated corpora.  The instruction semantics (paper Table 1) are
spelled out once, in the golden model :mod:`repro.verify.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from ..isa.program import Program
from ..runtime.encoding import as_input_bytes
from ..verify.reference import reference_run
from .kernel import DispatchTables, Enumeration, run_once


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
      finished.  A position is one step-table walk over the frontier
      held as a mask of PCs, so live threads are deduplicated by
      construction and the work is bounded at O(program × text); the
      lazy DFA built over the same tables caches those walks.  ``bytes``
      input skips encoding entirely.
    * :meth:`run_reference` / :meth:`run_with_stats` — the golden model
      (:mod:`repro.verify.reference`) the fast path is property-tested
      against, and the only path with per-instruction statistics.
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
            Enumeration(self.tables, max_steps), data, "vm.run",
            tracer, metrics, profile,
        )
        return MatchResult(state.position is not None, state.position)

    def run_reference(
        self, text: Union[str, bytes], max_steps: Optional[int] = None
    ) -> MatchResult:
        """The golden model (:func:`repro.verify.reference.reference_run`)."""
        return self._reference(text, None, max_steps)

    def run_with_stats(
        self, text: Union[str, bytes], max_steps: Optional[int] = None
    ):
        """Like :meth:`run_reference` but also returns :class:`VMStatistics`."""
        stats = VMStatistics()
        return self._reference(text, stats, max_steps), stats

    def _reference(self, text, stats, max_steps) -> MatchResult:
        position = reference_run(
            self.tables.opcodes, self.tables.operands, _as_bytes(text),
            max_steps=max_steps, stats=stats, pattern=self.program.source_pattern,
        )
        return MatchResult(position is not None, position)


def run_program(program: Program, text: Union[str, bytes]) -> MatchResult:
    """One-shot convenience wrapper."""
    return ThompsonVM(program).run(text)
