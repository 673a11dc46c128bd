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

— and composes it with a verify step: the budget-bounded lazy DFA
with VM fallback.  The predicate is *necessary-condition only*: a
chunk it rejects provably cannot match (the Hypothesis soundness
suite), and a chunk it passes is always re-verified, so the prefilter
can never flip a verdict — exactly the contract that lets the fuzz
oracles diff this path against the bare VM.

A prefilter-inert pattern (leading ``.*`` over non-literal structure,
alternation branch with no forced bytes, …) still gets the lazy DFA
for its full scans.  ``max_dfa_states=0`` (``Budget(max_dfa_states=0)``
at the engine) leaves only the filter in front of the VM; the bare VM
is :meth:`ThompsonVM.run`.
"""

from __future__ import annotations

import re
from typing import Callable, List, Optional, Union

from ..isa.program import Program
from ..vm.thompson import MatchResult, _as_bytes
from .ahocorasick import byte_class_pattern
from .analysis import INERT_ANALYSIS, PrefilterAnalysis
from .lazydfa import DEFAULT_MAX_DFA_STATES, LazyDFAMatcher


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


class PrefilteredMatcher:
    """Prefilter + verify pipeline with the VM's ``match`` interface.

    The one matcher the engine builds per pattern: the chunk filter
    (when the analysis is not inert) in front of a
    :class:`~repro.prefilter.lazydfa.LazyDFAMatcher`, which falls back
    to the bare VM for good when the DFA state budget blows.  Same
    input handling and :class:`MatchResult` verdicts as the bare VM
    (property-tested), plus ``repro_prefilter_*`` counters when a
    metrics registry is supplied.
    """

    def __init__(
        self,
        program: Program,
        analysis: Optional[PrefilterAnalysis] = None,
        max_dfa_states: Optional[int] = DEFAULT_MAX_DFA_STATES,
        max_vm_steps: Optional[int] = None,
        metrics=None,
    ):
        if analysis is None:
            analysis = getattr(program, "analysis", None) or INERT_ANALYSIS
        self.program = program
        self.analysis = analysis
        self._filter = build_chunk_filter(analysis)
        #: The verify step; the service's ``/stream`` streams through it.
        self.dfa_matcher = LazyDFAMatcher(
            program,
            max_states=max_dfa_states,
            max_vm_steps=max_vm_steps,
            metrics=metrics,
        )
        self.vm = self.dfa_matcher.vm
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

    @property
    def plan(self) -> dict:
        """The stages a chunk goes through now (``prefilter.plan`` attrs).

        The last stage is ``vm`` once the lazy DFA has fallen back — at
        construction already when the state cap cannot hold the entry
        state.
        """
        analysis = self.analysis
        stages: List[str] = []
        if not analysis.inert:
            if analysis.anchored_start and analysis.prefix:
                stages.append(f"prefix({len(analysis.prefix)})")
            if analysis.literals:
                stages.append(f"literal({len(analysis.literals)})")
            elif analysis.first_bytes:
                stages.append(f"first-bytes({len(analysis.first_bytes)})")
        stages.append("vm" if self.dfa_matcher.blown else "lazy-dfa")
        return {
            "stages": stages,
            "inert": analysis.inert,
            "inert_reason": analysis.inert_reason,
        }

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
        return self.dfa_matcher.match(data)


__all__ = [
    "PrefilteredMatcher",
    "build_chunk_filter",
]
