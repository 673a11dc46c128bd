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

Lazy-DFA acceleration streams the same way: a
:class:`~repro.prefilter.lazydfa.LazyDFA` state *is* an interned
frontier mask, so the carried state is one integer that
:meth:`~repro.prefilter.lazydfa.LazyDFA.walk` resumes from, and a
mid-stream :class:`~repro.prefilter.lazydfa.LazyDFABlowup` degrades
permanently to the kernel by handing over the mask of the state it blew
in as the frontier — continuing at that byte, on the step table the DFA
already warmed, without re-reading history.
Step budgets follow :class:`~repro.prefilter.lazydfa.LazyDFAMatcher`
semantics: DFA-mode bytes cost no VM steps (the DFA's own bound is
``max_states``); after a fallback the VM budget applies from the
fallback point onward.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Union

from ..isa.program import Program
from ..prefilter.lazydfa import DEFAULT_MAX_DFA_STATES, LazyDFA, LazyDFABlowup
from .kernel import Enumeration
from .thompson import MatchResult, ThompsonVM, _as_bytes

__all__ = ["StreamingMatcher", "StreamingMultiMatcher"]


class StreamingMatcher:
    """Single-pattern matcher fed arbitrary chunks of one logical input.

    Usage::

        matcher = StreamingMatcher(program)
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

    ``use_dfa=True`` routes chunks through a lazy DFA bounded by
    ``max_dfa_states`` with a permanent VM fallback on blowup (never a
    correctness event).  ``vm`` shares a prebuilt VM across matchers for
    the same program: the service passes the cached entry's, so a
    thousand concurrent streams pay one dispatch-table build.  The lazy
    DFA is not shared — each matcher with ``use_dfa`` builds its own,
    so each ``/stream`` request grows its DFA states from scratch.
    """

    def __init__(
        self,
        program: Program,
        *,
        max_steps: Optional[int] = None,
        use_dfa: bool = False,
        max_dfa_states: Optional[int] = None,
        vm: Optional[ThompsonVM] = None,
    ):
        self.program = program
        self.vm = vm if vm is not None else ThompsonVM(program)
        self.max_steps = max_steps
        #: The VM-path state; while the DFA front runs, only its
        #: ``consumed`` offset moves.
        self.state = Enumeration(self.vm.tables, max_steps)
        self._finished = False
        self.dfa_fallbacks = 0

        self._dfa = None
        self._dfa_state = 0
        if use_dfa:
            if max_dfa_states is None:
                max_dfa_states = DEFAULT_MAX_DFA_STATES
            self._dfa = LazyDFA(program, max_states=max_dfa_states, vm=self.vm)
            if not self._dfa.state_count:
                # The cap cannot hold even the entry state: start on the
                # VM, as a mid-stream blowup would continue on it.
                self.dfa_fallbacks += 1
                self._dfa = None

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
        """True while chunks are walking the lazy DFA."""
        return self._dfa is not None

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def feed(self, chunk: Union[str, bytes]) -> Optional[MatchResult]:
        """Consume one chunk; returns the verdict iff it settled."""
        if self._finished:
            raise RuntimeError("feed() after finish() on StreamingMatcher")
        state = self.state
        if state.error is not None:
            raise state.error
        if not state.settled:
            data = chunk if isinstance(chunk, bytes) else _as_bytes(chunk)
            if self._dfa is None:
                state.feed(data)
            elif data:
                self._feed_dfa(data)
        return self.result

    def finish(self) -> MatchResult:
        """Process the end-of-input position and return the verdict."""
        state = self.state
        if self._dfa is not None and not state.settled:
            state.settle(self._dfa.accepts_at_end(self._dfa_state))
        state.finish()  # re-raises a tripped budget; no-op once settled
        self._finished = True
        return self.result

    def _feed_dfa(self, data: bytes) -> None:
        state = self.state
        try:
            verdict, offset, self._dfa_state = self._dfa.walk(data, self._dfa_state)
        except LazyDFABlowup as blowup:
            # Permanent degradation: the DFA state's mask is exactly the
            # kernel frontier at this position — resume byte-for-byte
            # from the chunk byte whose transition blew the budget.
            self.dfa_fallbacks += 1
            self._dfa = None
            state.frontier = blowup.state
            state.consumed += blowup.offset
            state.feed(data, blowup.offset)
            return
        state.consumed += offset
        if verdict is not None:
            state.settle(verdict)


class StreamingMultiMatcher:
    """Multi-pattern streaming twin over :class:`MultiMatchVM`.

    Carries the frontier *and* the matched-id set across chunks;
    settles early once every target id has been seen (or the frontier
    dies), mirroring the one-shot loop's top-of-position early exit.
    ``candidates`` narrows the target set exactly as
    :meth:`MultiMatchVM.run` does for the Aho-Corasick prefilter.
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
