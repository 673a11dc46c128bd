"""Resource budgets enforced across the whole pipeline.

A :class:`Budget` is one immutable bundle of limits covering every stage
(frontend → dialect passes → codegen → VM / simulator).  The paper's
compiler only promises *grammar* checking (§3); a production service
also needs *resource* guarantees — no pattern may hang the compiler,
blow the interpreter stack, or stall the simulator.  Every limit trips
as a dedicated :class:`~repro.ir.diagnostics.BudgetExceeded` subclass,
so callers distinguish "your pattern is too complex" from "our bug".

``None`` disables an individual limit; :meth:`Budget.unlimited` disables
all of them (for offline experiments where pathological inputs are the
point).  :data:`DEFAULT_BUDGET` is sized generously for the paper's
workloads — Protomata/Brill patterns sit orders of magnitude below every
default — while still bounding adversarial input.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from ..frontend.errors import DEFAULT_MAX_NESTING_DEPTH
from ..isa.instructions import MAX_PROGRAM_LENGTH
from .errors import (
    ExpansionBudgetError,
    PassBudgetError,
    PatternLengthBudgetError,
    ProgramSizeBudgetError,
    VMStepBudgetError,
)


@dataclass(frozen=True)
class Budget:
    """Resource limits for one compilation / execution pipeline."""

    #: Maximum pattern text length in characters.
    max_pattern_length: Optional[int] = 10_000
    #: Maximum group-nesting depth (guards the recursive frontends).
    max_nesting_depth: Optional[int] = DEFAULT_MAX_NESTING_DEPTH
    #: Maximum *estimated* instruction count after counted-repetition
    #: expansion, checked on the AST before lowering does the work.
    max_expansion: Optional[int] = 200_000
    #: Maximum compiled program size; the ISA's 13-bit address space is
    #: the hard ceiling, services may want far less.
    max_program_length: Optional[int] = MAX_PROGRAM_LENGTH
    #: Wall-clock budget (seconds) for the optional optimization passes;
    #: ``<= 0`` always trips when any pass runs.
    #: ``None`` (default) disables the check — pass time is
    #: machine-dependent, so opt in explicitly.
    max_pass_seconds: Optional[float] = None
    #: Maximum instruction steps of one golden-model VM run.
    max_vm_steps: Optional[int] = 50_000_000
    #: Maximum states the lazy DFA may intern for one pattern before it
    #: abandons determinization and degrades to the NFA VM (a silent
    #: performance event counted by ``repro_lazydfa_fallback_total``,
    #: never an error).  ``None`` lets the subset construction grow
    #: without bound; ``<= 0`` always trips (the matcher starts on the
    #: VM).
    max_dfa_states: Optional[int] = 10_000
    #: Maximum cycles of one simulator run; ``None`` uses the
    #: simulator's adaptive per-run formula (input × program sized).
    max_sim_cycles: Optional[int] = None
    #: Maximum worker processes one batch/corpus call may fan out to
    #: (:mod:`repro.engine`); ``None`` leaves sizing to the caller.
    max_parallel_jobs: Optional[int] = None
    #: Wall-clock budget (seconds) for *one shard* inside a supervised
    #: parallel scan; a shard running longer trips
    #: :class:`~repro.runtime.errors.TaskTimeoutError` and its worker
    #: is replaced (a hung worker cannot be interrupted in place).
    #: ``None`` disables the per-task watchdog.
    max_task_seconds: Optional[float] = None
    #: Wall-clock budget (seconds) for a *whole* supervised scan; shards
    #: unfinished at the deadline settle with
    #: :class:`~repro.runtime.errors.WallClockBudgetError`.
    max_wall_seconds: Optional[float] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def unlimited(cls) -> "Budget":
        """Every guard disabled (offline experimentation only)."""
        return cls(
            **{field.name: None for field in dataclasses.fields(cls)}
        )

    def replace(self, **overrides) -> "Budget":
        """A copy with some limits overridden."""
        return dataclasses.replace(self, **overrides)

    def cache_key(self) -> tuple:
        """A stable, hashable identity for compiled-artifact caches.

        Two budgets with equal limits produce equal keys regardless of
        how they were constructed; the field *names* are part of the key
        so keys never collide across dataclass revisions.  (The class is
        frozen, so ``hash(budget)`` also works — ``cache_key`` exists
        for callers that persist or compare keys across processes.)
        """
        return tuple(
            (field.name, getattr(self, field.name))
            for field in dataclasses.fields(self)
        )

    def effective_jobs(self, requested: Optional[int]) -> Optional[int]:
        """Clamp a requested worker count to ``max_parallel_jobs``."""
        limit = self.max_parallel_jobs
        if limit is None:
            return requested
        if requested is None:
            return limit
        return min(requested, limit)

    # ------------------------------------------------------------------
    # Guard helpers — each raises the matching typed error.
    # ------------------------------------------------------------------
    def check_pattern_length(self, pattern: str) -> None:
        limit = self.max_pattern_length
        if limit is not None and len(pattern) > limit:
            raise PatternLengthBudgetError(len(pattern), limit)

    def check_expansion(self, estimate: int, pattern: str) -> None:
        limit = self.max_expansion
        if limit is not None and estimate > limit:
            raise ExpansionBudgetError(estimate, limit, pattern)

    def check_program_size(self, size: int, pattern: str) -> None:
        limit = self.max_program_length
        if limit is not None and size > limit:
            raise ProgramSizeBudgetError(size, limit, pattern)

    def check_pass_time(self, seconds: float, stage: str) -> None:
        limit = self.max_pass_seconds
        if limit is not None and (limit <= 0 or seconds > limit):
            raise PassBudgetError(seconds, limit, stage)

    def check_vm_steps(self, steps: int, pattern: str = "") -> None:
        limit = self.max_vm_steps
        if limit is not None and steps > limit:
            raise VMStepBudgetError(steps, limit, pattern)


#: The budget applied when callers do not supply one.
DEFAULT_BUDGET = Budget()

__all__ = ["Budget", "DEFAULT_BUDGET"]
