"""Chunk-level prefilter scanners and the prefiltered matcher facade.

This is the layer the engine actually calls.  It turns a
:class:`~repro.prefilter.analysis.PrefilterAnalysis` into a cheap
*chunk rejection predicate* built from CPython's C-speed primitives —

* one required literal → the ``in`` operator (``bytes.find``, memchr
  speed),
* several branch literals → one compiled :mod:`re` alternation of
  escaped literals (sound for "any branch literal present", which is
  all the boolean chunk test needs),
* no literal but a small first-byte set → a compiled ``[...]``
  character class,
* a start-anchored forced prefix → ``bytes.startswith``,

— and composes it with a verify step: the VM (``literal`` mode) or the
budget-bounded lazy DFA with VM fallback (``auto`` mode).  The
predicate is *necessary-condition only*: a chunk it rejects provably
cannot match (the Hypothesis soundness suite), and a chunk it passes is
always re-verified, so the prefilter can never flip a verdict — exactly
the contract that lets the fuzz oracles diff this path against the bare
VM.

In ``auto`` mode a prefilter-inert pattern (leading ``.*`` over
non-literal structure, alternation branch with no forced bytes, …)
still gets the lazy DFA for its full scans; ``literal`` mode degrades
to the plain VM, and ``off`` *is* the plain VM.
"""

from __future__ import annotations

import re
from typing import Callable, List, Optional, Union

from ..isa.program import Program
from ..vm.thompson import MatchResult, ThompsonVM, _as_bytes
from .ahocorasick import byte_class_pattern
from .analysis import INERT_ANALYSIS, PrefilterAnalysis
from .lazydfa import DEFAULT_MAX_DFA_STATES, LazyDFAMatcher

#: Recognized ``CompileOptions.prefilter`` / ``--prefilter`` values.
PREFILTER_MODES = ("off", "literal", "auto")


def build_chunk_filter(
    analysis: PrefilterAnalysis,
) -> Optional[Callable[[bytes], bool]]:
    """A predicate ``chunk may match`` from the analysis, or ``None``.

    ``None`` means the analysis is inert — nothing cheap can reject
    chunks and callers must verify everything.
    """
    stages: List[Callable[[bytes], bool]] = []
    if analysis.anchored_start and analysis.prefix:
        prefix = analysis.prefix
        stages.append(lambda data: data.startswith(prefix))
    if analysis.literals:
        if len(analysis.literals) == 1:
            literal = analysis.literals[0]
            stages.append(lambda data: literal in data)
        else:
            search = re.compile(
                b"|".join(re.escape(literal) for literal in analysis.literals)
            ).search
            stages.append(lambda data: search(data) is not None)
    elif analysis.first_bytes:
        search = byte_class_pattern(analysis.first_bytes).search
        stages.append(lambda data: search(data) is not None)
    if not stages:
        return None
    if len(stages) == 1:
        return stages[0]
    first, second = stages
    return lambda data: first(data) and second(data)


def describe_plan(analysis: PrefilterAnalysis, mode: str) -> dict:
    """A JSON-friendly description of the chosen stages (span attrs)."""
    stages: List[str] = []
    if mode != "off" and not analysis.inert:
        if analysis.anchored_start and analysis.prefix:
            stages.append(f"prefix({len(analysis.prefix)})")
        if analysis.literals:
            stages.append(f"literal({len(analysis.literals)})")
        elif analysis.first_bytes:
            stages.append(f"first-bytes({len(analysis.first_bytes)})")
    stages.append("lazy-dfa" if mode == "auto" else "vm")
    return {
        "mode": mode,
        "stages": stages,
        "inert": analysis.inert,
        "inert_reason": analysis.inert_reason,
    }


class PrefilteredMatcher:
    """Prefilter + verify pipeline with the VM's ``match`` interface.

    Drop-in for the bare VM in the engine's per-chunk loop: same input
    handling, same :class:`MatchResult` verdicts (property-tested), plus
    ``repro_prefilter_*`` counters when a metrics registry is supplied.
    """

    def __init__(
        self,
        program: Program,
        analysis: Optional[PrefilterAnalysis] = None,
        mode: str = "auto",
        max_dfa_states: Optional[int] = DEFAULT_MAX_DFA_STATES,
        max_vm_steps: Optional[int] = None,
        metrics=None,
        vm: Optional[ThompsonVM] = None,
    ):
        if mode not in PREFILTER_MODES:
            raise ValueError(
                f"prefilter mode must be one of {PREFILTER_MODES}, got {mode!r}"
            )
        if analysis is None:
            analysis = getattr(program, "analysis", None) or INERT_ANALYSIS
        self.program = program
        self.analysis = analysis
        self.mode = mode
        self.max_vm_steps = max_vm_steps
        self._metrics = metrics if metrics is not None and metrics.enabled else None
        self.vm = vm if vm is not None else ThompsonVM(program)
        self._filter = None if mode == "off" else build_chunk_filter(analysis)
        self._dfa_matcher = (
            LazyDFAMatcher(
                program,
                max_states=max_dfa_states,
                max_vm_steps=max_vm_steps,
                metrics=metrics,
                vm=self.vm,
            )
            if mode == "auto"
            else None
        )
        self.plan = describe_plan(analysis, mode)
        self._checks = None
        self._skips = None
        self._candidates = None
        if metrics is not None and metrics.enabled and self._filter is not None:
            self._checks = metrics.counter(
                "repro_prefilter_checks_total",
                help_text="chunks examined by the literal/first-byte prefilter",
            )
            self._skips = metrics.counter(
                "repro_prefilter_skips_total",
                help_text="chunks rejected without entering the verify step",
            )
            self._candidates = metrics.counter(
                "repro_prefilter_candidates_total",
                help_text="chunks the prefilter passed through to verification",
            )

    def match(self, text: Union[str, bytes]) -> MatchResult:
        data = text if isinstance(text, bytes) else _as_bytes(text)
        chunk_filter = self._filter
        if chunk_filter is not None:
            if self._checks is not None:
                self._checks.inc()
            if not chunk_filter(data):
                if self._skips is not None:
                    self._skips.inc()
                return MatchResult(False, None)
            if self._candidates is not None:
                self._candidates.inc()
        if self._dfa_matcher is not None:
            return self._dfa_matcher.match(data)
        return self.vm.run(data, self.max_vm_steps, metrics=self._metrics)


__all__ = [
    "PREFILTER_MODES",
    "PrefilteredMatcher",
    "build_chunk_filter",
    "describe_plan",
]
