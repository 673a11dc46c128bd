"""Budget-bounded lazy DFA over the Thompson program.

The matching kernel (:mod:`repro.vm.kernel`) already runs a position as
one step-table walk over a mask of work PCs
(:meth:`~repro.vm.kernel.DispatchTables.step`); what it still pays per
position is that walk.  This module caches the walks: a DFA state is
the frontier mask the kernel would hold, interned to a small id, and a
transition row is filled in one byte class at a time, only for the
(state, class) pairs the input actually exercises.  Building a
transition is exactly one kernel step, so the two cannot disagree; once
it is cached, re-traversing it costs two list indexings — roughly two
orders of magnitude less than a kernel position.  The DFA and the VM it
is built over share one :class:`~repro.vm.kernel.DispatchTables`, step
table included, so each warms the other's.

Subtlety the state graph must carry: ``NOT_MATCH`` is an ε-move
*conditioned on the current byte*, and it can reach ``ACCEPT_PARTIAL``
within a position.  Acceptance mid-input is therefore a property of the
*transition* (state × byte class), not of the state alone, so cached
transitions encode "match fires at this position" as a distinct
sentinel rather than a successor state.

Only this module reads the rows, in two loops kept apart on measurement
(2-vCPU Xeon, Python 3.11, warm DFA; ``docs/performance.md``).  A
per-byte state-0 skip hook would cost :meth:`LazyDFA.run` 0.64× on
protomata over residue (500 B chunks).  :meth:`LazyDFA.walk` needs its
hook: skipping only at the start of a 64 KiB piece streams brill over
residue with one lowercase byte per 200 B / 2 KB at 22 / 31 instead of
331 / 368 MB/s.  A resumable ``run`` is no faster (0.92×, 1.01×) and
has no skip.

The construction is strictly bounded: interning a state beyond
``max_states`` raises :class:`LazyDFABlowup` with the blown state's mask
and the byte's offset, and :class:`LazyDFAMatcher` continues on the
kernel from there — permanently, for that pattern.  Blowup is a
performance event, never a correctness event (acceptance criterion:
pathological ``(a|aa){n}`` patterns degrade with a
``repro_lazydfa_fallback_total`` increment, never an error or a wrong
verdict).

:meth:`LazyDFAMatcher.match` runs one text on :meth:`LazyDFA.run`;
:meth:`~LazyDFAMatcher.feed` and :meth:`~LazyDFAMatcher.finish` advance
one stream's :class:`~repro.vm.kernel.Enumeration` on
:meth:`LazyDFA.walk` (:class:`~repro.vm.streaming.StreamingMatcher`
wraps them).  One budget rule holds for both: DFA bytes are free, and
``max_vm_steps`` counts kernel steps from the byte the kernel takes
over at (byte 0 once the matcher has fallen back).
"""

from __future__ import annotations

import re
import threading
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..isa.program import Program
from ..vm.kernel import Enumeration, run_once
from ..vm.thompson import MatchResult, ThompsonVM, _as_bytes

#: Default cap on interned DFA states (also the `Budget.max_dfa_states`
#: default).  A state costs its mask of work PCs (one ``int``: 4 bytes
#: per 30 program addresses), one interning dict entry and one
#: transition row of ``num_classes`` ints (distinct operand bytes + 1,
#: not 256): about 0.5 KB for the 21-class states of the protomata ×4
#: rules, so a pattern that runs into the cap holds about 5 MB;
#: literal-ish patterns determinize in well under 100 states.
DEFAULT_MAX_DFA_STATES = 10_000


def byte_class_pattern(byte_values: Iterable[int]) -> "re.Pattern[bytes]":
    """Compile ``[...]`` over raw byte values: the DFA's stop-byte skip
    and the scanner's first-byte filter."""
    members = b"".join(re.escape(bytes((value,))) for value in sorted(set(byte_values)))
    return re.compile(b"[" + members + b"]")


# Transition-row sentinels (all < 0 so real state ids stay >= 0).
_UNBUILT = -3
_MATCHED = -2
_DEAD = -1


class LazyDFABlowup(Exception):
    """The subset construction exceeded ``max_states``.

    A plain exception (not a :class:`ReproError`): it never escapes to
    users — :class:`LazyDFAMatcher` catches it and falls back to the
    VM, and the fuzz oracle counts it as an abstain.
    """

    def __init__(self, max_states: int, pattern: Optional[str] = None):
        self.max_states = max_states
        self.pattern = pattern
        #: Set by :meth:`LazyDFA.run`/:meth:`~LazyDFA.walk`: the blown
        #: state's mask, and the offset of the byte it blew on.
        self.state: Optional[int] = None
        self.offset: Optional[int] = None
        super().__init__(
            f"lazy DFA exceeded max_dfa_states={max_states}"
            + (f" for pattern {pattern!r}" if pattern else "")
        )


class LazyDFA:
    """On-the-fly determinization of one Thompson program.

    Shares (or builds) a :class:`ThompsonVM` for its dispatch tables;
    the cached transition graph grows only as inputs demand and is
    reused across :meth:`run` calls, so scan loops amortize construction
    across the whole corpus.
    """

    def __init__(
        self,
        program: Program,
        max_states: Optional[int] = DEFAULT_MAX_DFA_STATES,
        vm: Optional[ThompsonVM] = None,
    ):
        self.program = program
        #: ``None`` disables the cap (Budget.unlimited() semantics).
        self.max_states = max_states
        self._tables = (vm if vm is not None else ThompsonVM(program)).tables
        self.num_classes = self._tables.num_classes
        #: Transitions built so far (the miss path; cached ones are free).
        #: Each call adds its own count once, under the interning lock,
        #: so threads that share the DFA lose no increment.
        self.transitions_built = 0
        # State interning: id 0 is always the entry state.  Streams and
        # one-shot calls on other threads share the DFA, so a new state
        # is interned under the lock and published in ``_ids`` last.
        self._interning = threading.Lock()
        self._ids: Dict[int, int] = {}
        self._states: List[int] = []
        self._rows: List[List[int]] = []
        self._accept_end: List[bool] = []
        # ``max_states <= 0`` cannot hold even that: the DFA stays empty
        # and every :meth:`run` reports the blowup.
        if max_states is None or max_states > 0:
            self._intern(self._tables.entry)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _intern(self, state: int) -> int:
        state_id = self._ids.get(state)
        if state_id is not None:
            return state_id
        with self._interning:
            state_id = self._ids.get(state)
            if state_id is not None:  # another thread interned it
                return state_id
            states = self._states
            if self.max_states is not None and len(states) >= self.max_states:
                raise LazyDFABlowup(self.max_states, self.program.source_pattern)
            state_id = len(states)
            states.append(state)
            self._rows.append([_UNBUILT] * self.num_classes)
            self._accept_end.append(state & self._tables.accept_mask != 0)
            self._ids[state] = state_id
        return state_id

    def _build_transition(self, state_id: int, byte_class: int) -> int:
        tables = self._tables
        next_state = tables.step(self._states[state_id], byte_class) & tables.next_mask
        if next_state >= tables.fires:
            result = _MATCHED
        elif next_state:
            result = self._intern(next_state)
        else:
            result = _DEAD
        self._rows[state_id][byte_class] = result
        return result

    def _count_built(self, built: int) -> None:
        with self._interning:
            self.transitions_built += built

    @cached_property
    def _stop_search(self):
        """``search(data, index)`` for the next byte that leaves state 0;
        ``None`` when every byte does, ``False`` when none does.  Derived
        on the first :meth:`walk` from successor masks alone: nothing is
        interned, so it cannot blow ``max_states`` on a byte the input
        never holds."""
        tables = self._tables
        entry = self._states[0]
        loops = [
            tables.step(entry, byte_class) & tables.next_mask == entry != 0
            for byte_class in range(self.num_classes)
        ]
        stop_bytes = [
            byte for byte in range(256) if not loops[tables.class_table[byte]]
        ]
        if len(stop_bytes) == 256:
            return None
        return byte_class_pattern(stop_bytes).search if stop_bytes else False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def state_count(self) -> int:
        return len(self._states)

    def run(self, text: Union[str, bytes]) -> MatchResult:
        """Execute over ``text``; verdicts equal :meth:`ThompsonVM.run`.

        The DFA does bounded work per byte by construction, so it takes
        no step budget; its own bound is ``max_states``, enforced during
        building.  Raises :class:`LazyDFABlowup` when the input drives
        the cache past that bound, carrying the blown state's mask and
        the byte's offset as :meth:`walk` does.
        """
        data = text if isinstance(text, bytes) else _as_bytes(text)
        translated = data.translate(self._tables.class_table)
        rows = self._rows
        if not rows:
            raise LazyDFABlowup(self.max_states, self.program.source_pattern)
        state_id = 0
        row = rows[0]
        build = self._build_transition
        built = 0
        try:
            for position, byte_class in enumerate(translated):
                next_id = row[byte_class]
                if next_id < 0:
                    if next_id == _UNBUILT:
                        next_id = build(state_id, byte_class)
                        built += 1
                    if next_id == _MATCHED:
                        return MatchResult(True, position)
                    if next_id == _DEAD:
                        return MatchResult(False, None)
                state_id = next_id
                row = rows[state_id]
        except LazyDFABlowup as blowup:
            blowup.state = self._states[state_id]
            blowup.offset = position
            raise
        finally:
            if built:
                self._count_built(built)
        if self._accept_end[state_id]:
            return MatchResult(True, len(data))
        return MatchResult(False, None)

    def walk(self, data: bytes, state_id: int) -> Tuple[Optional[bool], int, int]:
        """Resume at ``state_id`` over ``data``: :meth:`run` for a stream.

        Returns ``(verdict, offset, state_id)``: ``True`` when the match
        fires on the byte at ``offset``; ``False`` when no suffix can
        match (``offset == len(data)``, as the kernel consumes a dead
        chunk); ``None`` while open, in ``state_id`` after all of
        ``data``.  In state 0 it jumps to the next byte that leaves it
        (:attr:`_stop_search`).  A :class:`LazyDFABlowup` carries the
        mask of the state it blew in — the kernel's frontier there — and
        the offset of the byte, where the kernel takes over.
        """
        stop_search = self._stop_search
        length = len(data)
        if stop_search is False:  # state 0 is the only state
            return None, length, state_id
        rows = self._rows
        build = self._build_transition
        translated = data.translate(self._tables.class_table)
        index = 0
        built = 0
        try:
            while index < length:
                if state_id == 0 and stop_search is not None:
                    found = stop_search(data, index)
                    if found is None:
                        break
                    index = found.start()
                byte_class = translated[index]
                next_id = rows[state_id][byte_class]
                if next_id < 0:
                    if next_id == _UNBUILT:
                        next_id = build(state_id, byte_class)
                        built += 1
                    if next_id == _MATCHED:
                        return True, index, state_id
                    if next_id == _DEAD:
                        return False, length, state_id
                state_id = next_id
                index += 1
        except LazyDFABlowup as blowup:
            blowup.state = self._states[state_id]
            blowup.offset = index
            raise
        finally:
            if built:
                self._count_built(built)
        return None, length, state_id


class LazyDFAMatcher:
    """Lazy DFA with a permanent, metered fallback to the kernel.

    The first :class:`LazyDFABlowup` flips the matcher onto the kernel
    for good — a pattern that blows the state budget once will do so
    again, and half-built caches are not worth re-probing per call.
    :meth:`_hand_off` is the one place the blown walk continues on the
    kernel, for :meth:`match` and for streams alike.  The fallback is
    observable (``repro_lazydfa_fallback_total``) but never behavioral:
    both paths return identical :class:`MatchResult` verdicts.
    """

    def __init__(
        self,
        program: Program,
        max_states: Optional[int] = DEFAULT_MAX_DFA_STATES,
        max_vm_steps: Optional[int] = None,
        metrics=None,
        vm: Optional[ThompsonVM] = None,
    ):
        self.vm = vm if vm is not None else ThompsonVM(program)
        self.dfa = LazyDFA(program, max_states=max_states, vm=self.vm)
        self.max_vm_steps = max_vm_steps
        self.blown = False
        self._metrics = metrics if metrics is not None and metrics.enabled else None
        self._runs = None
        self._fallbacks = None
        self._states_gauge = None
        self._transitions = None
        self._published = 0
        if metrics is not None and metrics.enabled:
            self._runs = metrics.counter(
                "repro_lazydfa_runs_total",
                help_text="lazy-DFA executions (fallback runs excluded)",
            )
            self._fallbacks = metrics.counter(
                "repro_lazydfa_fallback_total",
                help_text="lazy-DFA state-budget blowups degraded to the NFA VM",
            )
            self._states_gauge = metrics.gauge(
                "repro_lazydfa_states",
                help_text="DFA states interned for the current pattern",
            )
            self._transitions = metrics.counter(
                "repro_lazydfa_transitions_total",
                help_text="lazy-DFA transitions built (cached ones excluded)",
            )
        if not self.dfa.state_count:  # the cap cannot hold the entry state
            self._fall_back()

    def _publish(self) -> None:
        dfa = self.dfa
        self._states_gauge.set(dfa.state_count)
        if dfa.transitions_built != self._published:  # a warm run builds none
            # Under the lock the DFA counts under: two threads publishing
            # at once must not both ship the same delta.
            with dfa._interning:
                self._transitions.inc(dfa.transitions_built - self._published)
                self._published = dfa.transitions_built

    def _fall_back(self) -> None:
        with self.dfa._interning:  # two threads that blow meter one fallback
            if self.blown:
                return
            self.blown = True
        if self._fallbacks is not None:
            self._fallbacks.inc()
            self._publish()

    def _hand_off(self, state: Enumeration, blowup: LazyDFABlowup) -> Enumeration:
        """Meter the fallback and seed ``state`` where the DFA blew: its
        frontier is the blown state's mask, its next byte the one the
        walk could not take.  Feeding it from ``blowup.offset`` of the
        same data continues on the kernel, steps counted from there."""
        self._fall_back()
        state.frontier = blowup.state
        state.consumed += blowup.offset
        return state

    def match(self, text: Union[str, bytes]) -> MatchResult:
        data = text if isinstance(text, bytes) else _as_bytes(text)
        if self.blown:
            return self.vm.run(data, self.max_vm_steps, metrics=self._metrics)
        try:
            result = self.dfa.run(data)
        except LazyDFABlowup as blowup:
            state = self._hand_off(
                Enumeration(self.vm.tables, self.max_vm_steps), blowup
            )
            run_once(state, data, "vm.run", None, self._metrics, None,
                     start=blowup.offset)
            return MatchResult(state.position is not None, state.position)
        if self._runs is not None:
            self._runs.inc()
            self._publish()
        return result

    # ------------------------------------------------------------------
    # Streams: one Enumeration per stream, the DFA shared
    # ------------------------------------------------------------------
    def feed(self, state: Enumeration, data: bytes) -> None:
        """Advance one stream's ``state`` (an enumeration over
        ``self.vm.tables`` with ``max_vm_steps``) over its next chunk.
        While the DFA walks, the frontier is the stream's DFA state's
        mask, so the kernel can take over wherever the matcher falls
        back."""
        if self.blown or state.settled:  # a tripped budget implies blown
            return state.feed(data)
        dfa = self.dfa
        try:
            verdict, offset, state_id = dfa.walk(data, dfa._ids[state.frontier])
        except LazyDFABlowup as blowup:
            return self._hand_off(state, blowup).feed(data, blowup.offset)
        if self._transitions is not None:
            self._publish()
        state.consumed += offset
        if verdict is None:
            state.frontier = dfa._states[state_id]
        else:
            state.settle(verdict)

    def finish(self, state: Enumeration) -> None:
        """Run the end-of-input position of one stream's ``state``."""
        if not (self.blown or state.settled):  # free on the DFA
            state.settle(state.frontier & self.vm.tables.accept_mask != 0)
        state.finish()


__all__ = [
    "DEFAULT_MAX_DFA_STATES",
    "LazyDFA",
    "LazyDFABlowup",
    "LazyDFAMatcher",
    "byte_class_pattern",
]
