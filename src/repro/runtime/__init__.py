"""The hardened runtime layer: budgets, error taxonomy, fault injection.

The paper's compiler performs "syntax and grammar checking" (§3); this
package adds the *resource* checking a production service needs on top:

* :mod:`repro.runtime.budget` — :class:`Budget`, one immutable bundle of
  limits enforced across frontend, passes, codegen, VM and simulator.
* :mod:`repro.runtime.errors` — the structured ``ReproError`` taxonomy
  with machine-readable codes (one ``except ReproError`` catches all).
* :mod:`repro.runtime.encoding` — ``str``/``bytes`` input normalization
  with typed encoding errors.
* :mod:`repro.runtime.guards` — static pattern-complexity estimation.
* :mod:`repro.runtime.faults` — fault injection into the simulated
  architecture (instruction memory, FIFOs, caches) proving the guards
  and the :mod:`repro.verify` equivalence checker catch real faults.

``faults`` imports the compiler and architecture layers, which
themselves import this package's leaf modules; it is exposed lazily
here to keep the import graph acyclic.
"""

from __future__ import annotations

from .budget import Budget, DEFAULT_BUDGET
from .encoding import as_input_bytes
from .errors import (
    BudgetExceeded,
    ExpansionBudgetError,
    InputEncodingError,
    PassBudgetError,
    PatternLengthBudgetError,
    PatternNestingError,
    ProgramSizeBudgetError,
    ReproError,
    VMStepBudgetError,
    format_error,
)
from .guards import check_pattern_budget, estimate_expansion

__all__ = [
    "Budget",
    "BudgetExceeded",
    "DEFAULT_BUDGET",
    "ExpansionBudgetError",
    "InputEncodingError",
    "PassBudgetError",
    "PatternLengthBudgetError",
    "PatternNestingError",
    "ProgramSizeBudgetError",
    "ReproError",
    "VMStepBudgetError",
    "as_input_bytes",
    "check_pattern_budget",
    "estimate_expansion",
    "format_error",
]


def __getattr__(name: str):
    # Lazy: faults imports repro.compiler / repro.arch, which in turn
    # import the leaf modules above — an eager import here would make the
    # package graph cyclic.
    if name == "faults":
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
