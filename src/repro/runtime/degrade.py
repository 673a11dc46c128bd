"""Graceful degradation: trade optimizations for a within-budget compile.

When the full-strength pipeline trips a *recoverable* budget (pass time,
program size — anything whose ``BudgetExceeded.recoverable`` is true),
a service should not simply fail the request: the unoptimized pipeline
may well fit.  :func:`compile_with_degradation` retries down a ladder of
progressively weaker :class:`~repro.compiler.CompileOptions`, removing
passes in order of cost from what
:meth:`~repro.compiler.CompileOptions.pipelines` says will run — the
default order or an explicit tuple alike — and records what was lost in
``CompilationResult.dropped_passes`` so callers can log the quality
loss.  Every rung still produces a language-equivalent program (each
pass is semantics-preserving, so removing passes is always sound).

Non-recoverable budgets (nesting depth, counted-repetition expansion,
input encoding...) re-raise immediately: no amount of pass-dropping can
shrink the pattern itself.
"""

from __future__ import annotations

from dataclasses import replace

from ..compiler import (
    PASS_BY_FLAG,
    CompilationResult,
    CompileOptions,
    NewCompiler,
)
from ..ir.diagnostics import BudgetExceeded

#: Passes removed per degradation rung, named by their flag,
#: most-expensive first: the §3.2 high-level rewrites dominate compile
#: time (greedy fixpoint drivers), the §5 low-level passes are cheap
#: linear sweeps.
DEGRADATION_LADDER = (
    ("factorize_alternations",),
    ("simplify_subregex", "boundary_quantifier"),
    ("jump_simplification", "dead_code_elimination"),
)


def _without(options: CompileOptions, flags) -> CompileOptions:
    """``options`` minus the passes behind ``flags``, whichever way
    :meth:`~repro.compiler.CompileOptions.pipelines` came by them: the
    flags are cleared and the names leave an explicit tuple."""
    names = {PASS_BY_FLAG[flag] for flag in flags}
    changes = {flag: False for flag in flags}
    for half in ("regex_pipeline", "cicero_pipeline"):
        explicit = getattr(options, half)
        if explicit is not None:
            changes[half] = tuple(n for n in explicit if n not in names)
    return replace(options, **changes)


def compile_with_degradation(
    pattern: str, options: CompileOptions
) -> CompilationResult:
    """Compile, retrying with passes disabled on recoverable budget trips.

    Returns the first result that fits the budget; its
    ``dropped_passes`` lists, by flag name, every pass that had to be
    removed (empty when the full-strength compile succeeded); a rung
    none of whose passes would run is skipped, so no pipeline compiles
    twice.  Raises the last :class:`~repro.ir.diagnostics.BudgetExceeded`
    when even the unoptimized pipeline does not fit, and re-raises
    immediately when the error is not recoverable by dropping passes.
    """
    try:
        return NewCompiler(options).compile(pattern)
    except BudgetExceeded as error:
        if not error.recoverable:
            raise
        failure = error

    dropped = []
    current = options
    for rung in DEGRADATION_LADDER:
        regex, cicero = current.pipelines()
        flags = [flag for flag in rung if PASS_BY_FLAG[flag] in regex + cicero]
        if not flags:
            continue
        current = _without(current, flags)
        dropped.extend(flags)
        try:
            result = NewCompiler(current).compile(pattern)
            result.dropped_passes = list(dropped)
            return result
        except BudgetExceeded as error:
            if not error.recoverable:
                raise
            failure = error
    raise failure


__all__ = [
    "DEGRADATION_LADDER",
    "compile_with_degradation",
]
