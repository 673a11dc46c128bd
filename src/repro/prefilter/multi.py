"""Per-rule candidate pruning for the multimatch engine.

An IDS-style rule set compiles into one identifier-tagged program whose
VM enumerates *all* rules against every event, yet most events can
match only a handful.  This wrapper runs each rule's own chunk filter
(:func:`~repro.prefilter.scanner.build_chunk_filter`, the engine
matcher's predicate) and hands the VM the rules whose filter passed: no
candidates skip the VM outright, some make it settle once those have
been seen.  Rules with an inert analysis are permanent candidates.
Verdicts equal the bare :class:`~repro.multimatch.vm.MultiMatchVM`'s
(tested, and fuzzed by the ``multi`` oracle).
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Union

from ..multimatch.compiler import MultiProgram
from ..multimatch.vm import MultiMatchResult, MultiMatchVM
from ..runtime.encoding import as_input_bytes
from .analysis import INERT_ANALYSIS
from .scanner import build_chunk_filter, prefilter_counters


class PrefilteredMultiMatchVM:
    """Drop-in for :class:`MultiMatchVM` with per-rule candidate pruning."""

    def __init__(self, multi_program: MultiProgram, metrics=None):
        self.multi_program = multi_program
        self.vm = MultiMatchVM(multi_program)
        built = {
            match_id: build_chunk_filter(
                multi_program.analyses.get(match_id, INERT_ANALYSIS)
            )
            for match_id in multi_program.ids
        }
        self.always_candidates: FrozenSet[int] = frozenset(
            match_id for match_id, accept in built.items() if accept is None
        )
        self._filters = tuple(item for item in built.items() if item[1] is not None)
        self._checks, self._skips, self._candidates = prefilter_counters(
            metrics if self._filters else None
        )

    @property
    def filtered_ids(self) -> FrozenSet[int]:
        """Rule ids a chunk filter can actually rule out."""
        return frozenset(match_id for match_id, _ in self._filters)

    def run(
        self, text: Union[str, bytes], max_steps: Optional[int] = None
    ) -> MultiMatchResult:
        if not self._filters:
            return self.vm.run(text, max_steps)
        data = as_input_bytes(text, what="input text")
        if self._checks is not None:
            self._checks.inc()
        candidates = self.always_candidates.union(
            match_id for match_id, accept in self._filters if accept(data)
        )
        if not candidates:
            if self._skips is not None:
                self._skips.inc()
            return self.vm.result(())
        if self._candidates is not None:
            self._candidates.inc()
        return self.vm.run(data, max_steps, candidates=candidates)


__all__ = ["PrefilteredMultiMatchVM"]
