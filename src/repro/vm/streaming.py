"""Incremental (streaming) execution of Cicero programs.

The breadth-first VM's entire between-position state is its *frontier*
— the mask of work-instruction PCs that survived the last consumed
byte — plus the executed-step count the budget accounting carries.
That state *is* a :class:`~repro.vm.kernel.Enumeration`: one-shot
``run`` feeds it the whole input and finishes it, the matchers here
feed it one chunk at a time.  The concatenation of any chunk split
therefore performs the same per-position transitions, in the same
order, with the same per-position budget checks, as one-shot execution
over the joined input (property-tested against ``run_reference`` for
arbitrary splits, including 1-byte chunks).

Early settlement is the kernel's: ``ACCEPT_PARTIAL`` settles ``True``
at its absolute position mid-chunk; an empty frontier settles ``False``
immediately (no suffix can revive a dead enumeration).  Once settled,
further ``feed`` calls are no-ops returning the verdict.

:class:`StreamingMatcher` streams through a pattern's
:class:`~repro.prefilter.lazydfa.LazyDFAMatcher` — the engine's cached
one, so every stream of a pattern shares the lazy DFA its other traffic
warms.  While the DFA walks, the enumeration's frontier is the mask of
its DFA state; where the DFA blows its state cap, the matcher hands the
stream to the kernel at that byte.  Step budgets follow the matcher's
one rule (:mod:`repro.prefilter.lazydfa`), so a stream is charged
exactly what one-shot ``match`` over the joined input is.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Union

from .kernel import Enumeration
from .thompson import MatchResult, _as_bytes

__all__ = ["StreamingMatcher", "StreamingMultiMatcher"]


class StreamingMatcher:
    """Single-pattern matcher fed arbitrary chunks of one logical input.

    Usage::

        matcher = StreamingMatcher(LazyDFAMatcher(program))
        for chunk in source:
            verdict = matcher.feed(chunk)
            if verdict is not None:      # settled early
                break
        else:
            verdict = matcher.finish()   # end-of-input position

    ``feed`` returns ``None`` while the verdict is still open and the
    settled :class:`MatchResult` as soon as it is decided; positions in
    results are absolute offsets into the concatenated input, exactly
    as one-shot :meth:`ThompsonVM.run` reports them.

    ``matcher`` is a :class:`~repro.prefilter.lazydfa.LazyDFAMatcher`;
    its ``max_states`` and ``max_vm_steps`` configure the stream (a
    matcher built with ``max_states=0`` streams on the kernel alone).
    Any number of streams may share it: each holds only its own
    :class:`~repro.vm.kernel.Enumeration`.
    """

    def __init__(self, matcher):
        self.matcher = matcher
        self.state = Enumeration(matcher.vm.tables, matcher.max_vm_steps)
        self._finished = False

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def settled(self) -> bool:
        """True once the verdict can no longer change."""
        return self.state.settled or self.state.error is not None

    @property
    def result(self) -> Optional[MatchResult]:
        """The settled verdict, or ``None`` while still open."""
        if not self.state.settled:
            return None
        return MatchResult(self.state.position is not None, self.state.position)

    @property
    def bytes_consumed(self) -> int:
        return self.state.consumed

    @property
    def accelerated(self) -> bool:
        """True while the shared matcher walks its lazy DFA."""
        return not self.matcher.blown

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def feed(self, chunk: Union[str, bytes]) -> Optional[MatchResult]:
        """Consume one chunk; returns the verdict iff it settled."""
        if self._finished:
            raise RuntimeError("feed() after finish() on StreamingMatcher")
        state = self.state
        if not state.settled:
            data = chunk if isinstance(chunk, bytes) else _as_bytes(chunk)
            self.matcher.feed(state, data)  # re-raises a tripped budget
        return self.result

    def finish(self) -> MatchResult:
        """Process the end-of-input position and return the verdict."""
        self.matcher.finish(self.state)  # re-raises a tripped budget
        self._finished = True
        return self.result


class StreamingMultiMatcher:
    """Multi-pattern streaming twin over :class:`MultiMatchVM`.

    Carries the frontier *and* the matched-id set across chunks;
    settles early once every target id has been seen (or the frontier
    dies), mirroring the one-shot loop's top-of-position early exit.
    ``candidates`` narrows the target set exactly as
    :meth:`MultiMatchVM.run` does for the per-rule chunk filters of
    :class:`~repro.prefilter.multi.PrefilteredMultiMatchVM`.
    """

    def __init__(
        self,
        multi_program,
        *,
        max_steps: Optional[int] = None,
        candidates: Optional[FrozenSet[int]] = None,
        vm=None,
    ):
        from ..multimatch.vm import MultiMatchVM

        self.multi_program = multi_program
        self.vm = vm if vm is not None else MultiMatchVM(multi_program)
        self.max_steps = max_steps
        self.state = Enumeration(
            self.vm.tables, max_steps, self.vm.targets(candidates)
        )
        self._finished = False

    @property
    def settled(self) -> bool:
        return self.state.settled

    @property
    def bytes_consumed(self) -> int:
        return self.state.consumed

    @property
    def matched_ids(self) -> FrozenSet[int]:
        """Ids matched so far (monotone; final after :meth:`finish`)."""
        return frozenset(self.state.matched)

    def feed(self, chunk: Union[str, bytes]):
        """Consume one chunk; returns the result iff enumeration settled."""
        if self._finished:
            raise RuntimeError("feed() after finish() on StreamingMultiMatcher")
        self.state.feed(chunk if isinstance(chunk, bytes) else _as_bytes(chunk))
        if self.state.settled:
            return self.vm.result(self.state.matched)
        return None

    def finish(self):
        """Process end-of-input (where ``ACCEPT(id)`` fires); final result."""
        self.state.finish()
        self._finished = True
        return self.vm.result(self.state.matched)
