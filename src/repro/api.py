"""High-level public API: compile and run REs in one or two calls.

This is the façade a downstream user starts with::

    import repro.api as cicero

    result = cicero.compile_pattern("th(is|at|ose)")
    print(result.program.disassemble())

    assert cicero.match("this|that", "say that again")
    sim = cicero.simulate("a[bc]+d", "xxabcbcdyy")
    print(sim.cycles, sim.stats.miss_rate)

Everything here wraps the richer interfaces in :mod:`repro.compiler`,
:mod:`repro.oldcompiler`, :mod:`repro.vm` and :mod:`repro.arch`.

Hardening (see :mod:`repro.runtime` and ``docs/robustness.md``): every
entry point enforces a resource :class:`~repro.runtime.budget.Budget`
and raises only :class:`~repro.ir.diagnostics.ReproError` subclasses —
one ``except ReproError`` catches every rejection, each carrying a
machine-readable ``code``.  A budget trip reaches the caller as the
same typed error whichever entry point compiled the pattern.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Union

from .arch.config import ArchConfig
from .arch.simulator import CiceroSimulator, DEFAULT_CHUNK_BYTES
from .arch.system import SimulationResult
from .compiler import CompilationResult, CompileOptions, NewCompiler
from .engine import CorpusScanResult, Engine, ScanReport
from .observability import Tracer
from .oldcompiler.compiler import OldCompilationResult, OldCompiler
from .runtime.budget import Budget, DEFAULT_BUDGET
from .vm.thompson import MatchResult, ThompsonVM


def compile_pattern(
    pattern: str,
    compiler: str = "new",
    optimize: Union[bool, str] = True,
    options: Optional[CompileOptions] = None,
    budget: Optional[Budget] = None,
    trace: bool = False,
) -> Union[CompilationResult, OldCompilationResult]:
    """Compile ``pattern`` with either toolchain.

    ``compiler`` is ``"new"`` (the multi-dialect MLIR pipeline, §3) or
    ``"old"`` (the single-IR baseline, §2.1).  ``options`` sets the new
    compiler's pass lists, budget and checks; ``optimize=False`` runs no
    pass in either toolchain, whatever ``options`` lists.

    ``optimize="auto"`` is accepted as a spelling of ``True`` only
    because ``benchmarks/layered`` still passes it; nothing is looked
    up or searched.

    ``budget`` overrides the enforced resource limits (defaults to
    :data:`~repro.runtime.budget.DEFAULT_BUDGET`); a trip raises its
    :class:`~repro.ir.diagnostics.BudgetExceeded` subclass, exactly as
    :class:`~repro.engine.Engine` does.  A pass name an explicit
    ``options.regex_pipeline`` / ``cicero_pipeline`` gets wrong raises
    :class:`~repro.ir.diagnostics.IRError`.

    ``trace`` (new pipeline only) hands the compiler a fresh
    :class:`~repro.observability.Tracer`, which records the
    compilation's span tree — frontend → every pass (with op-count and
    ``D_offset`` deltas) → codegen, each span's duration its time —
    surfaced as ``result.trace``
    (a :class:`~repro.observability.TraceReport`).
    """
    if isinstance(optimize, str) and optimize != "auto":
        raise ValueError(
            f"optimize must be a bool or 'auto', got {optimize!r}"
        )
    if compiler == "new":
        options = options or CompileOptions()
        if not optimize:
            options = replace(options, regex_pipeline=(), cicero_pipeline=())
        if budget is not None:
            options = replace(options, budget=budget)
        return NewCompiler(options, tracer=Tracer() if trace else None).compile(
            pattern
        )
    if compiler == "old":
        return OldCompiler(optimize=bool(optimize), budget=budget).compile(
            pattern
        )
    raise ValueError(f"unknown compiler {compiler!r}; use 'new' or 'old'")


def match(
    pattern: str,
    text: Union[str, bytes],
    compiler: str = "new",
    budget: Optional[Budget] = None,
) -> MatchResult:
    """Compile + functionally execute: does ``pattern`` match ``text``?

    Uses the golden-model VM (no micro-architectural timing).  The
    budget's ``max_vm_steps`` bounds execution, so a pathological
    pattern × input pair raises a typed error instead of spinning.
    """
    effective = budget if budget is not None else DEFAULT_BUDGET
    program = compile_pattern(pattern, compiler=compiler, budget=budget).program
    return ThompsonVM(program).run(text, max_steps=effective.max_vm_steps)


#: Shared engine behind the module-level batch helpers — one process-wide
#: compiled-pattern cache, so repeated patterns skip compilation across
#: every :func:`match_many`/:func:`scan_corpus` call.
_default_engine: Optional[Engine] = None


def default_engine() -> Engine:
    """The process-wide :class:`~repro.engine.Engine` (lazily created)."""
    global _default_engine
    if _default_engine is None:
        _default_engine = Engine()
    return _default_engine


def match_many(
    pattern: str,
    texts: Sequence[Union[str, bytes, bytearray, memoryview]],
    jobs: Optional[int] = None,
    strict: bool = True,
) -> Union[List[bool], ScanReport]:
    """Batch :func:`match` through the shared cached engine.

    ``jobs > 1`` shards the texts over supervised worker processes
    (``0`` = all cores); the pattern compiles at most once per
    process lifetime thanks to the engine's LRU cache.  ``strict=False``
    returns a :class:`~repro.engine.ScanReport` with per-item outcomes
    instead of raising on the first shard failure.
    """
    return default_engine().match_many(pattern, texts, jobs=jobs, strict=strict)


def scan_corpus(
    pattern: str,
    data: Union[str, bytes],
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    jobs: Optional[int] = None,
    strict: bool = True,
) -> Union[CorpusScanResult, ScanReport]:
    """Scan a large input in §6-style chunks through the shared engine.

    ``strict=False`` degrades gracefully: failed chunks settle with
    typed per-chunk outcomes inside the returned
    :class:`~repro.engine.ScanReport` while every healthy chunk keeps
    its verdict.
    """
    return default_engine().scan_corpus(
        pattern, data, chunk_bytes=chunk_bytes, jobs=jobs, strict=strict
    )


def simulate(
    pattern: str,
    text: Union[str, bytes],
    config: Optional[ArchConfig] = None,
    compiler: str = "new",
    budget: Optional[Budget] = None,
) -> SimulationResult:
    """Compile + run on the cycle-level simulator.

    ``config`` defaults to the paper's best overall configuration,
    NEW 16x1 CORES.  The budget's ``max_sim_cycles`` (when set)
    overrides the simulator's adaptive cycle watchdog.
    """
    effective = budget if budget is not None else DEFAULT_BUDGET
    program = compile_pattern(pattern, compiler=compiler, budget=budget).program
    return CiceroSimulator(config).run(
        program, text, max_cycles=effective.max_sim_cycles
    )
