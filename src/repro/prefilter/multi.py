"""Aho-Corasick candidate pruning for the multimatch engine.

An IDS-style rule set compiles into one identifier-tagged program whose
VM enumerates *all* rules against every event.  Most events can match
only a handful of rules — the ones whose required literal actually
occurs in the event — so this wrapper runs the shared
:class:`~repro.prefilter.ahocorasick.AhoCorasick` automaton first (one
pass, per-rule attribution even for overlapping literals) and hands the
VM the resulting candidate set:

* no candidates → the VM is skipped outright (the common sparse case);
* some candidates → the VM runs normally but stops as soon as every
  candidate has been seen instead of waiting for *all* rule ids.

Rules whose analysis yielded no usable literal (inert) are permanent
candidates, so pruning is exactly as aggressive as the compile-time
analysis can justify and no more.  Verdicts are identical to the bare
:class:`~repro.multimatch.vm.MultiMatchVM` (property-tested and fuzzed
via the ``multi`` oracles).
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple, Union

from ..multimatch.compiler import MultiProgram
from ..multimatch.vm import MultiMatchResult, MultiMatchVM
from ..runtime.encoding import as_input_bytes
from .ahocorasick import AhoCorasick


class PrefilteredMultiMatchVM:
    """Drop-in for :class:`MultiMatchVM` with literal candidate pruning.

    The Aho-Corasick stage prunes the candidate set; the VM then runs
    the tagged program over it and settles once every candidate has
    been seen.
    """

    def __init__(self, multi_program: MultiProgram, metrics=None):
        self.multi_program = multi_program
        self.vm = MultiMatchVM(multi_program)
        analyses = getattr(multi_program, "analyses", None) or {}
        entries: List[Tuple[bytes, int]] = []
        always: List[int] = []
        for match_id in multi_program.patterns:
            analysis = analyses.get(match_id)
            if analysis is None or not analysis.literals:
                always.append(match_id)
            else:
                for literal in set(analysis.literals):
                    entries.append((literal, match_id))
        self.always_candidates: FrozenSet[int] = frozenset(always)
        self._automaton = AhoCorasick(entries) if entries else None
        self._checks = None
        self._skips = None
        self._candidates = None
        if metrics is not None and metrics.enabled and self._automaton is not None:
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
    def filtered_ids(self) -> FrozenSet[int]:
        """Rule ids the automaton can actually rule out."""
        return frozenset(self.multi_program.patterns) - self.always_candidates

    def run(
        self, text: Union[str, bytes], max_steps: Optional[int] = None
    ) -> MultiMatchResult:
        automaton = self._automaton
        if automaton is None:
            return self.vm.run(text, max_steps)
        data = (
            text
            if isinstance(text, bytes)
            else as_input_bytes(text, what="input text")
        )
        if self._checks is not None:
            self._checks.inc()
        hits = automaton.find_payloads(data, universe=self.filtered_ids)
        candidates = hits | self.always_candidates
        if not candidates:
            if self._skips is not None:
                self._skips.inc()
            return MultiMatchResult(
                matched_ids=frozenset(),
                patterns=dict(self.multi_program.patterns),
            )
        if self._candidates is not None:
            self._candidates.inc()
        return self.vm.run(data, max_steps, candidates=candidates)


__all__ = ["PrefilteredMultiMatchVM"]
