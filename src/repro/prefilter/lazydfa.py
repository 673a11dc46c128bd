"""Budget-bounded lazy DFA over the Thompson program.

The matching kernel (:mod:`repro.vm.kernel`) already runs a position as
one step-table walk over a mask of work PCs
(:meth:`~repro.vm.kernel.DispatchTables.step`); what it still pays per
position is that walk.  This module caches the walks: a DFA state is
the frontier mask the kernel would hold, interned as its own transition
row, and the row is filled in one byte class at a time, only for the
(state, class) pairs the input actually exercises.  A transition holds
the successor row itself, so re-traversing a cached one costs one list
indexing — roughly two orders of magnitude less than a kernel position.
Building a transition is exactly one kernel step, read from the
kernel's own memos, so the two cannot disagree.  The DFA and the VM it
is built over share one :class:`~repro.vm.kernel.DispatchTables`, step
table included, so each warms the other's.

Subtlety the state graph must carry: ``NOT_MATCH`` is an ε-move
*conditioned on the current byte*, and it can reach ``ACCEPT_PARTIAL``
within a position.  Acceptance mid-input is therefore a property of the
*transition* (state × byte class), not of the state alone, so cached
transitions encode "match fires at this position" as a distinct
sentinel rather than a successor state.

Only this module reads the rows, in one loop with one miss path
(:meth:`LazyDFA._walk`) that :meth:`LazyDFA.run` and
:meth:`LazyDFA.walk` share.  Only ``walk`` skips ahead in state 0, as
measured (2-vCPU Xeon, Python 3.11, warm DFA; ``docs/performance.md``):
a state-0 skip would cost ``run`` 0.64× on protomata over residue
(500 B chunks), while ``walk`` skipping only at the start of a 64 KiB
piece streams brill over residue with one lowercase byte per 200 B /
2 KB at 22 / 31 instead of 331 / 368 MB/s.  ``run`` pays for the shared
loop one identity test per byte.

The construction is strictly bounded, without a lock: interning a
state beyond ``max_states`` raises :class:`LazyDFABlowup` with the
blown state's mask and the byte's offset, and :class:`LazyDFAMatcher`
continues on the kernel from there — permanently, for that pattern.  Blowup is a
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

import itertools
import re
import threading
from functools import cached_property
from typing import Dict, Iterable, Optional, Tuple, Union

from ..isa.program import Program
from ..vm.kernel import Enumeration, run_once
from ..vm.thompson import MatchResult, ThompsonVM, _as_bytes

#: Default cap on interned DFA states (also the `Budget.max_dfa_states`
#: default).  A state costs its mask of work PCs (one ``int``: 4 bytes
#: per 30 program addresses), one dict entry and its row of
#: ``num_classes`` transitions (distinct operand bytes + 1, not 256)
#: plus two slots: about 0.5 KB for the 21-class states of the
#: protomata ×4 rules, so a pattern that runs into the cap holds about 5 MB;
#: literal-ish patterns determinize in well under 100 states.
DEFAULT_MAX_DFA_STATES = 10_000


def byte_class_pattern(byte_values: Iterable[int]) -> "re.Pattern[bytes]":
    """Compile ``[...]`` over raw byte values: the DFA's stop-byte skip
    and the scanner's first-byte filter."""
    members = b"".join(re.escape(bytes((value,))) for value in sorted(set(byte_values)))
    return re.compile(b"[" + members + b"]")


# Transition sentinels.  A row is a non-empty list, so all three are
# falsy and a walk tells a cached successor from them with one truth
# test per byte; they are told apart by identity.
_UNBUILT = None
_MATCHED = 0
_DEAD = ()


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

    A state *is* its row: ``_rows`` maps each interned mask to the list
    ``[t_0 … t_{n-1}, mask, blind]`` of ``num_classes + 2`` slots, where
    ``t_c`` is the successor row on class ``c`` or a sentinel, and
    ``blind`` what the state's byte-blind PCs contribute on any class
    (``None`` until a transition is built from it).  The dict's order is
    first-seen order.
    """

    def __init__(
        self,
        program: Program,
        max_states: Optional[int] = DEFAULT_MAX_DFA_STATES,
        vm: Optional[ThompsonVM] = None,
    ):
        self._rows: Dict[int, list] = {}
        self.program = program
        #: ``None`` disables the cap (Budget.unlimited() semantics).
        self.max_states = max_states
        self._tables = (vm if vm is not None else ThompsonVM(program)).tables
        self.num_classes = self._tables.num_classes
        #: Transitions built so far (the miss path; cached ones are free).
        #: Each call adds its own count once, under ``_counting``, so
        #: threads that share the DFA lose no increment.
        self.transitions_built = 0
        self._counting = threading.Lock()
        # Streams and one-shot calls on other threads share the DFA, and
        # interning takes no lock: a row is built whole, then takes a
        # ticket (a lost race burns one, so the cap may trip early but is
        # never exceeded), then is published with ``dict.setdefault``.
        # The entry row holds ticket 0.
        self._tickets = itertools.count(1)
        #: The entry state's row; ``None`` when ``max_states <= 0``
        #: cannot hold even that, and every :meth:`run` reports the
        #: blowup.
        self._entry_row: Optional[list] = None
        if max_states is None or max_states > 0:
            entry = self._tables.entry
            row = [_UNBUILT] * (self.num_classes + 2)
            row[self.num_classes] = entry
            self._entry_row = self._rows[entry] = row

    def __del__(self):
        # Transitions point at rows, so the rows form cycles: unlink them
        # and a dropped DFA is freed at once, not at a full collection.
        for row in self._rows.values():
            row.clear()

    @cached_property
    def _stop_search(self):
        """``search(data, index)`` for the next byte that leaves state 0;
        ``None`` when every byte does, ``False`` when none does.  Derived
        on the first :meth:`walk` from successor masks alone: nothing is
        interned, so it cannot blow ``max_states`` on a byte the input
        never holds."""
        tables = self._tables
        entry = tables.entry
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
        return len(self._rows)

    def run(self, text: Union[str, bytes]) -> MatchResult:
        """Execute over ``text``; verdicts equal :meth:`ThompsonVM.run`.

        The DFA does bounded work per byte by construction, so it takes
        no step budget; its own bound is ``max_states``, enforced during
        building.  Raises :class:`LazyDFABlowup` when the input drives
        the cache past that bound, carrying the blown state's mask and
        the byte's offset as :meth:`walk` does.
        """
        data = text if isinstance(text, bytes) else _as_bytes(text)
        if self._entry_row is None:
            raise LazyDFABlowup(self.max_states, self.program.source_pattern)
        verdict, offset, row = self._walk(data, self._entry_row, None)
        if verdict is None:
            verdict = row[self.num_classes] & self._tables.accept_mask != 0
        return MatchResult(True, offset) if verdict else MatchResult(False, None)

    def walk(self, data: bytes, row: list) -> Tuple[Optional[bool], int, list]:
        """Resume at ``row`` over ``data``: :meth:`run` for a stream.

        Returns ``(verdict, offset, row)``: ``True`` when the match
        fires on the byte at ``offset``; ``False`` when no suffix can
        match (``offset == len(data)``, as the kernel consumes a dead
        chunk); ``None`` while open, in ``row`` after all of ``data``.
        In state 0 it jumps to the next byte that leaves it
        (:attr:`_stop_search`).
        """
        stop_search = self._stop_search
        if stop_search is False:  # state 0 is the only state
            return None, len(data), row
        return self._walk(data, row, stop_search)

    def _walk(self, data: bytes, row: list, stop_search):
        """The one loop over the rows, and the one miss path.

        A miss is one kernel position, inlined: the row's cached blind
        contribution OR the class's sighted part, read from (and kept
        in) the :class:`~repro.vm.kernel.DispatchTables` memos exactly
        as :meth:`~repro.vm.kernel.DispatchTables.step` does.  While in
        the entry row ``stop_search`` (``None`` for :meth:`run`) skips
        to the next byte that leaves it.  A :class:`LazyDFABlowup`
        carries the mask of the state it blew in — the kernel's frontier
        there — and the offset of the byte, where the kernel takes over.
        """
        tables = self._tables
        blind, blind_mask = tables.blind, tables.blind_mask
        blind_column, or_entries = tables.blind_column, tables._or_entries
        sighted, sighted_memo = tables.sighted, tables.sighted_memo
        steps, next_mask, fires = tables.steps, tables.next_mask, tables.fires
        rows = self._rows
        classes = self.num_classes
        blind_slot = classes + 1
        home = self._entry_row if stop_search is not None else None
        length = len(data)
        translated = data.translate(tables.class_table)
        # The offset of the byte in hand is ``length`` minus what the
        # iterator has left, minus one: only an exit and a skip need it.
        iterator = iter(translated)
        bytes_left = iterator.__length_hint__
        built = 0
        try:
            for byte_class in iterator:
                if row is home:
                    found = stop_search(data, length - bytes_left() - 1)
                    if found is None:
                        break
                    # Resume the iterator past the stop byte (``bytes``
                    # iterators are repositioned by ``__setstate__``).
                    iterator.__setstate__(found.start() + 1)
                    byte_class = translated[found.start()]
                next_row = row[byte_class]
                if not next_row:
                    if next_row is _UNBUILT:
                        state = row[classes]
                        stepped = row[blind_slot]
                        if stepped is None:
                            part = state & blind_mask
                            stepped = blind.get(part)
                            if stepped is None:
                                stepped = or_entries(part, blind_column, blind)
                            row[blind_slot] = stepped
                        part = state & sighted[byte_class]
                        memo = sighted_memo[byte_class]
                        contributed = memo.get(part)
                        if contributed is None:
                            contributed = or_entries(part, steps[byte_class], memo)
                        successor = (stepped | contributed) & next_mask
                        if successor >= fires:
                            next_row = _MATCHED
                        elif not successor:
                            next_row = _DEAD
                        else:
                            next_row = rows.get(successor)
                            if next_row is None:
                                next_row = [_UNBUILT] * (blind_slot + 1)
                                next_row[classes] = successor
                                cap = self.max_states
                                if cap is not None and next(self._tickets) >= cap:
                                    raise LazyDFABlowup(
                                        cap, self.program.source_pattern
                                    )
                                next_row = rows.setdefault(successor, next_row)
                        row[byte_class] = next_row
                        built += 1
                    if next_row is _MATCHED:
                        return True, length - bytes_left() - 1, row
                    if next_row is _DEAD:
                        return False, length, row
                row = next_row
        except LazyDFABlowup as blowup:
            blowup.state = row[classes]
            blowup.offset = length - bytes_left() - 1
            raise
        finally:
            if built:
                with self._counting:
                    self.transitions_built += built
        return None, length, row


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
            with dfa._counting:
                self._transitions.inc(dfa.transitions_built - self._published)
                self._published = dfa.transitions_built

    def _fall_back(self) -> None:
        with self.dfa._counting:  # two threads that blow meter one fallback
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
            verdict, offset, row = dfa.walk(data, dfa._rows[state.frontier])
        except LazyDFABlowup as blowup:
            return self._hand_off(state, blowup).feed(data, blowup.offset)
        if self._transitions is not None:
            self._publish()
        state.consumed += offset
        if verdict is None:
            state.frontier = row[dfa.num_classes]
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
