"""Reproduction of *Combining MLIR Dialects with Domain-Specific
Architecture for Efficient Regular Expression Matching* (CGO 2025).

The package layers, bottom-up:

* :mod:`repro.ir` — a from-scratch mini-MLIR framework (operations,
  regions, attributes, textual IR, rewrite patterns, pass manager).
* :mod:`repro.frontend` — the regex lexer/parser/AST.
* :mod:`repro.dialects.regex` — the high-level RE dialect and the §3.2
  transforms (sub-regex simplification, alternation factorization,
  boundary quantifier reduction).
* :mod:`repro.dialects.cicero` — the low-level ISA dialect, the
  Thompson lowering, Jump Simplification and dead-code elimination.
* :mod:`repro.isa` — instructions, binary encoding, the ``D_offset``
  code-locality metric.
* :mod:`repro.oldcompiler` — the single-IR baseline with Code
  Restructuring (the premature-lowering design the paper improves on).
* :mod:`repro.vm` — the functional golden-model executor.
* :mod:`repro.arch` — the cycle-level simulator of both architecture
  organizations plus the power/resource/frequency models.
* :mod:`repro.workloads` — synthetic Protomata/Brill benchmarks.
* :mod:`repro.evaluation` — the §6 experiment drivers.
* :mod:`repro.runtime` — the hardening layer: resource budgets, the
  unified error taxonomy and fault injection.
* :mod:`repro.engine` — the high-throughput serving layer: a
  compiled-pattern LRU cache, batch matching, and parallel corpus
  sharding over worker processes.
* :mod:`repro.observability` — zero-dependency tracing + metrics
  threaded through every layer above (pass/VM/engine/simulator
  profiling, Prometheus-style exposition, JSON-lines span export).
* :mod:`repro.fuzz` — the differential fuzzing campaign: seeded
  pattern/IR generators, a multi-oracle diffing harness over every
  execution path, AST shrinking, and the persisted regression corpus
  (``repro fuzz`` CLI, ``docs/fuzzing.md``).
* :mod:`repro.api` — the two-call façade (compile, match, simulate).

Every rejection anywhere in the stack is a
:class:`~repro.ir.diagnostics.ReproError` with a stable machine-readable
``code`` — catch that one type at the top of a service loop.
"""

__version__ = "1.0.0"

from .api import (
    compile_pattern,
    default_engine,
    match,
    match_many,
    scan_corpus,
    simulate,
)
from .engine import Engine, PatternCache, ScanReport
from .arch.config import ArchConfig
from .arch.simulator import CiceroSimulator
from .compiler import (
    CompilationResult,
    CompileOptions,
    NewCompiler,
    compile_regex,
)
from .ir.diagnostics import BudgetExceeded, ReproError
from .isa.program import Program
from . import observability
from .observability import (
    MetricsRegistry,
    TraceReport,
    Tracer,
    recording,
)
from .oldcompiler.compiler import OldCompiler, compile_regex_old
from .runtime.budget import Budget, DEFAULT_BUDGET
from .runtime.errors import format_error
from .vm.thompson import ThompsonVM, run_program

__all__ = [
    "ArchConfig",
    "Budget",
    "BudgetExceeded",
    "CiceroSimulator",
    "CompilationResult",
    "CompileOptions",
    "DEFAULT_BUDGET",
    "Engine",
    "MetricsRegistry",
    "NewCompiler",
    "OldCompiler",
    "PatternCache",
    "ScanReport",
    "Program",
    "ReproError",
    "ThompsonVM",
    "TraceReport",
    "Tracer",
    "__version__",
    "compile_pattern",
    "compile_regex",
    "compile_regex_old",
    "default_engine",
    "format_error",
    "match",
    "match_many",
    "observability",
    "recording",
    "run_program",
    "scan_corpus",
    "simulate",
]
