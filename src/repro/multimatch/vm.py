"""Functional executor for identifier-tagged multi-matching programs.

Semantics of the extended acceptance instructions: when a thread
reaches ``ACCEPT_PARTIAL(id)`` (or ``ACCEPT(id)`` at end of input), the
engine records ``id`` and kills that thread; the remaining enumeration
continues so *every* matching RE of the set is reported.  Execution
stops early once all identifiers have been seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Union

from ..runtime.encoding import as_input_bytes
from ..verify.reference import reference_run
from ..vm.kernel import DispatchTables, Enumeration, run_once
from .compiler import MultiProgram


@dataclass(frozen=True)
class MultiMatchResult:
    """Identifiers (and patterns) that matched the input."""

    matched_ids: FrozenSet[int]
    patterns: dict

    @property
    def matched_patterns(self) -> List[str]:
        return [self.patterns[match_id] for match_id in sorted(self.matched_ids)]

    def __bool__(self) -> bool:
        return bool(self.matched_ids)

    def __contains__(self, match_id: int) -> bool:
        return match_id in self.matched_ids


class MultiMatchVM:
    """Breadth-first executor collecting every matching identifier.

    The default :meth:`run` is the shared matching kernel
    (:class:`~repro.vm.kernel.Enumeration`) in collecting mode — the
    same loop :class:`~repro.vm.thompson.ThompsonVM` runs, with the set
    of target ids as its only extra parameter — while
    :meth:`run_reference` runs the golden model the fast path is
    property-tested against (:mod:`repro.verify.reference`).
    """

    def __init__(self, multi_program: MultiProgram):
        self.multi_program = multi_program
        self.tables = DispatchTables(multi_program.program)
        self._all_ids = frozenset(multi_program.patterns)

    def targets(self, candidates: Optional[FrozenSet[int]]) -> FrozenSet[int]:
        """The ids whose sighting ends the enumeration early."""
        if candidates is None:
            return self._all_ids
        return frozenset(candidates) & self._all_ids

    def result(self, matched) -> MultiMatchResult:
        return MultiMatchResult(
            matched_ids=frozenset(matched),
            patterns=dict(self.multi_program.patterns),
        )

    def run(
        self,
        text: Union[str, bytes],
        max_steps: Optional[int] = None,
        tracer=None,
        metrics=None,
        profile=None,
        candidates: Optional[FrozenSet[int]] = None,
    ) -> MultiMatchResult:
        """Collect every matching identifier.

        ``candidates`` narrows the early-exit condition: when a caller
        (the Aho-Corasick prefilter) has proven that only a subset of
        ids can possibly match, the enumeration stops once that subset
        has been seen instead of waiting for *all* ids — the pruning is
        the caller's responsibility, the VM's verdicts stay exact for
        every id it reports.

        ``tracer``/``metrics``/``profile`` behave as in
        :meth:`ThompsonVM.run <repro.vm.thompson.ThompsonVM.run>`; the
        span is named ``multimatch.run``.
        """
        data = text if isinstance(text, bytes) else as_input_bytes(
            text, what="input text"
        )
        state = run_once(
            Enumeration(self.tables, max_steps, self.targets(candidates)),
            data, "multimatch.run", tracer, metrics, profile,
            patterns=len(self._all_ids),
        )
        return self.result(state.matched)

    def run_reference(
        self, text: Union[str, bytes], max_steps: Optional[int] = None
    ) -> MultiMatchResult:
        """The golden model (:func:`repro.verify.reference.reference_run`)."""
        return self.result(reference_run(
            self.tables.opcodes, self.tables.operands,
            as_input_bytes(text, what="input text"), self._all_ids, max_steps,
            pattern=self.multi_program.program.source_pattern,
        ))


def run_multimatch(
    multi_program: MultiProgram, text: Union[str, bytes]
) -> MultiMatchResult:
    return MultiMatchVM(multi_program).run(text)
