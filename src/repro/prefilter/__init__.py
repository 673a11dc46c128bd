"""Literal prefilters and the lazy DFA (the corpus-scan fast path).

Layered per :doc:`docs/performance` ("Prefilters and the lazy DFA"):

1. :mod:`~repro.prefilter.analysis` — compile-time extraction of
   required literals, forced prefixes, and first-byte sets from the
   optimized ``regex``-dialect module, with an explicit inert verdict.
2. :mod:`~repro.prefilter.scanner` / :mod:`~repro.prefilter.ahocorasick`
   — chunk rejection built from CPython's C-speed primitives
   (``bytes.find``, compiled :mod:`re` alternations and classes, an
   Aho-Corasick automaton for per-rule attribution in multimatch).
3. :mod:`~repro.prefilter.lazydfa` — on-the-fly determinization of the
   Thompson program bounded by ``Budget.max_dfa_states``, used to
   verify prefilter survivors and to scan prefilter-inert patterns,
   always falling back to the NFA VM on blowup.

Nothing here changes verdicts: every stage either rejects on a proven
necessary condition or defers to an exact matcher.
"""

from .ahocorasick import AhoCorasick
from .analysis import (
    INERT_ANALYSIS,
    PrefilterAnalysis,
    analyze_module,
    analyze_pattern,
)
from .lazydfa import (
    DEFAULT_MAX_DFA_STATES,
    LazyDFA,
    LazyDFABlowup,
    LazyDFAMatcher,
)
from .multi import PrefilteredMultiMatchVM
from .scanner import PrefilteredMatcher, build_chunk_filter

__all__ = [
    "AhoCorasick",
    "DEFAULT_MAX_DFA_STATES",
    "INERT_ANALYSIS",
    "LazyDFA",
    "LazyDFABlowup",
    "LazyDFAMatcher",
    "PrefilterAnalysis",
    "PrefilteredMatcher",
    "PrefilteredMultiMatchVM",
    "analyze_module",
    "analyze_pattern",
    "build_chunk_filter",
]
