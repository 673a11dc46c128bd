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
blown state's mask and the byte's offset.  A DFA over a root
alternation is the *product* of its branches' automata, and that is
where it blows; :class:`LazyDFAMatcher` then releases the product's
rows and continues from the blown byte on one DFA per branch
(:func:`branch_components`) — a sum of states, not their product — and
on the kernel only when the program has no such split or the branch
DFAs blow the same budget too; either step is permanent, for that
pattern.  Blowup is a performance event, never a correctness event
(acceptance criterion: pathological ``(a|aa){n}`` patterns degrade with
a ``repro_lazydfa_fallback_total`` increment, never an error or a wrong
verdict).

:meth:`LazyDFAMatcher.match` runs one text on :meth:`LazyDFA.run`;
:meth:`~LazyDFAMatcher.feed` and :meth:`~LazyDFAMatcher.finish` advance
one stream's :class:`~repro.vm.kernel.Enumeration` on
:meth:`LazyDFA.walk` (:class:`~repro.vm.streaming.StreamingMatcher`
wraps them).  One budget rule holds for both: DFA bytes (branch DFAs'
included) are free, and ``max_vm_steps`` counts kernel steps from the
byte the kernel takes over at (byte 0 once the matcher has fallen
back).
"""

from __future__ import annotations

import itertools
import re
import sys
import threading
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..isa.program import Program
from ..vm.kernel import DispatchTables, Enumeration, count_run, mask_pcs
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
        keep: Optional[int] = None,
        tickets: Optional[Iterator[int]] = None,
    ):
        self._rows: Dict[int, list] = {}
        self.program = program
        #: ``None`` disables the cap (Budget.unlimited() semantics).
        self.max_states = max_states
        tables = self._tables = (vm if vm is not None else ThompsonVM(program)).tables
        self.num_classes = tables.num_classes
        #: The work PCs the states hold: all of them, or one branch's
        #: and the search prefix's (:func:`branch_components`).  Nothing
        #: else differs between the product DFA and a branch DFA.
        self.keep = tables.next_mask ^ tables.fires if keep is None else keep
        self.entry = tables.entry & self.keep
        self.next_mask = self.keep | tables.fires
        #: Transitions built so far (the miss path; cached ones are free).
        #: Each call adds its own count once, under ``_counting``, so
        #: threads that share the DFA lose no increment.
        self.transitions_built = 0
        self._counting = threading.Lock()
        # Streams and one-shot calls on other threads share the DFA, and
        # interning takes no lock: a row is built whole, then takes a
        # ticket (a lost race burns one, so the cap may trip early but is
        # never exceeded), then is published with ``dict.setdefault``.
        # Branch DFAs draw from one shared counter, so the cap bounds
        # their rows together.  The entry row takes the first ticket.
        self._tickets = itertools.count() if tickets is None else tickets
        #: The entry state's row; ``None`` when the cap cannot hold even
        #: that (or the rows were released), and every :meth:`run`
        #: reports the blowup.
        self._entry_row: Optional[list] = None
        if max_states is None or next(self._tickets) < max_states:
            row = [_UNBUILT] * (self.num_classes + 2)
            row[self.num_classes] = self.entry
            self._entry_row = self._rows[self.entry] = row

    def __del__(self):
        # Transitions point at rows, so the rows form cycles: unlink them
        # and a dropped DFA is freed at once, not at a full collection.
        for row in self._rows.values():
            row.clear()

    def release(self) -> None:
        """Drop every row once the budget has blown.

        A thread still walking a row finds its transitions unbuilt, and
        the successor it builds is no longer in the table it interns
        into, so that walk blows at once and hands off too (the rows
        keep their length: no such walk indexes past one).  A row it
        took its ticket for before the budget blew lands in the dropped
        table, not in the live one.
        """
        rows, self._rows = self._rows, {}
        self._entry_row = None
        unbuilt = [_UNBUILT] * self.num_classes
        for row in list(rows.values()):
            row[: self.num_classes] = unbuilt
        rows.clear()

    def row_of(self, mask: int) -> list:
        """The row of state ``mask``, interned as :meth:`_walk` interns
        a successor if it is new (raising :class:`LazyDFABlowup` when
        the budget has no ticket left for it)."""
        row = self._rows.get(mask)
        if row is None:
            row = [_UNBUILT] * (self.num_classes + 2)
            row[self.num_classes] = mask
            cap = self.max_states
            if cap is not None and next(self._tickets) >= cap:
                raise LazyDFABlowup(cap, self.program.source_pattern)
            row = self._rows.setdefault(mask, row)
        return row

    @cached_property
    def _stop_search(self):
        """``search(data, index)`` for the next byte that leaves state 0;
        ``None`` when every byte does, ``False`` when none does.  Derived
        on the first :meth:`walk` from successor masks alone: nothing is
        interned, so it cannot blow ``max_states`` on a byte the input
        never holds."""
        tables = self._tables
        entry = self.entry
        loops = [
            tables.step(entry, byte_class) & self.next_mask == entry != 0
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
            raise _blown_at(self, self.entry, 0)
        verdict, offset, row = self._walk(data, self._entry_row, None)
        if verdict is None:
            verdict = row[self.num_classes] & self._tables.accept_mask != 0
        return MatchResult(True, offset) if verdict else MatchResult(False, None)

    def walk(
        self, data: bytes, row: list, start: int = 0
    ) -> Tuple[Optional[bool], int, list]:
        """Resume at ``row`` over ``data[start:]``: :meth:`run` for a
        stream.

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
        return self._walk(data, row, stop_search, start)

    def _walk(self, data: bytes, row: list, stop_search, start: int = 0):
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
        steps, next_mask, fires = tables.steps, self.next_mask, tables.fires
        rows = self._rows
        classes = self.num_classes
        blind_slot = classes + 1
        home = self._entry_row if stop_search is not None else None
        length = len(data)
        translated = data.translate(tables.class_table)
        # The offset of the byte in hand is ``length`` minus what the
        # iterator has left, minus one: only an exit and a skip need it.
        iterator = iter(translated)
        if start:
            iterator.__setstate__(start)
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


def branch_components(tables: DispatchTables) -> List[int]:
    """The state masks of the program's independent branches, or ``[]``.

    A component is a set of work PCs whose successors stay inside it;
    the *prefix* is every other reachable work PC — for an unanchored
    search, the ``.*?`` loop in front of the root alternation.  Starting
    from the PCs that reach every entry PC (the loop reaches them all),
    the rest splits into weakly connected components; one that steps
    back into the prefix is not closed and joins it, until every
    component is.  Each returned mask is the prefix plus one component:
    a branch DFA's ``keep``.

    Why a split is exact: a kernel step is a union over PCs, the prefix
    PCs step identically in every branch DFA, and a component's PCs
    step only into the component (and ``fires``).  So each branch DFA's
    state is the product state restricted to its ``keep``, and the OR of
    the branch states is the product state.  ``[]`` when fewer than two
    components remain (no root alternation, or branches sharing a PC
    such as one accept).
    """
    successors = tables.successors
    reachable = todo = tables.entry
    while todo:
        stepped = 0
        for pc in mask_pcs(todo):
            stepped |= successors[pc]
        todo = stepped & ~reachable
        reachable |= todo
    pcs = mask_pcs(reachable)
    predecessors = dict.fromkeys(pcs, 0)
    for pc in pcs:
        for successor in mask_pcs(successors[pc]):
            predecessors[successor] |= 1 << pc

    def reaching(pc: int) -> int:
        """The PCs with a path of one step or more to ``pc``."""
        found = todo = predecessors[pc]
        while todo:
            stepped = 0
            for source in mask_pcs(todo):
                stepped |= predecessors[source]
            todo = stepped & ~found
            found |= todo
        return found

    prefix = reachable
    for pc in mask_pcs(tables.entry):
        prefix &= reaching(pc)
        if not prefix:
            break
    while True:
        components = []
        rest = reachable & ~prefix
        leaked = 0
        while rest:
            component = todo = rest & -rest
            while todo:
                stepped = 0
                for pc in mask_pcs(todo):
                    stepped |= successors[pc] | predecessors[pc]
                todo = stepped & rest & ~component
                component |= todo
            rest &= ~component
            steps_to = 0
            for pc in mask_pcs(component):
                steps_to |= successors[pc]
            if steps_to & ~component:  # into the prefix: not closed
                leaked |= component
            else:
                components.append(component)
        if not leaked:
            break
        prefix |= leaked
    if len(components) < 2:
        return []
    return [prefix | component for component in components]


class LazyDFAMatcher:
    """Lazy DFA that splits per branch, then falls back to the kernel.

    The first :class:`LazyDFABlowup` of the product DFA (:attr:`dfa`)
    sets :attr:`blown` for good — a pattern that blows the state budget
    once will do so again, and half-built caches are not worth
    re-probing per call.  When the program splits into independent
    branches (:func:`branch_components`), the matcher releases the
    product's rows and continues on :attr:`split`, one :class:`LazyDFA`
    per branch over the same dispatch tables, drawing from one shared
    ``max_states`` budget; otherwise, or once that budget blows too, it
    is :attr:`on_kernel` for good.  Every hand-off continues at the
    blown byte with the blown frontier, for :meth:`match` and for
    streams alike.  The split and the fallback are observable
    (``repro_lazydfa_split_total``, ``repro_lazydfa_fallback_total``)
    but never behavioral: every path returns identical
    :class:`MatchResult` verdicts.
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
        #: The product DFA blew its state budget.
        self.blown = False
        #: The branch DFAs the matcher continues on once :attr:`blown`;
        #: ``None`` when the program does not split.
        self.split: Optional[Tuple[LazyDFA, ...]] = None
        #: Every byte goes to the kernel.
        self.on_kernel = False
        self._metrics = metrics if metrics is not None and metrics.enabled else None
        self._runs = None
        self._fallbacks = None
        self._splits = None
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
            self._splits = metrics.counter(
                "repro_lazydfa_split_total",
                help_text="lazy-DFA state-budget blowups continued on one DFA per branch",
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

    @property
    def state_count(self) -> int:
        """Rows interned and live: the product's, or the branch DFAs'."""
        return self._counts()[0]

    def _counts(self) -> Tuple[int, int]:
        """Live rows and transitions built, over the product and the
        branch DFAs."""
        dfa = self.dfa
        states, built = dfa.state_count, dfa.transitions_built
        for branch in self.split or ():
            states += branch.state_count
            built += branch.transitions_built
        return states, built

    def _publish(self) -> None:
        states, built = self._counts()
        self._states_gauge.set(states)
        if built != self._published:  # a warm run builds none
            # Under the lock the product DFA counts under: two threads
            # publishing at once must not both ship the same delta.
            with self.dfa._counting:
                built = self._counts()[1]
                self._transitions.inc(built - self._published)
                self._published = built

    def _fall_back(self) -> None:
        """The product DFA blew: split it, or go to the kernel."""
        with self.dfa._counting:  # two threads that blow meter one fallback
            if self.blown:
                return
            split = self._split()
            if split is None:
                self.on_kernel = True
            self.split = split
            self.blown = True
        if self._fallbacks is not None:
            (self._fallbacks if split is None else self._splits).inc()
            self._publish()

    def _split(self) -> Optional[Tuple[LazyDFA, ...]]:
        """One branch DFA per component, each holding its entry row, in
        place of the product's released rows; ``None`` when the program
        does not split or the budget cannot hold the branches' entries."""
        dfa = self.dfa
        cap = dfa.max_states
        if cap is None or cap < 2:
            return None
        keeps = branch_components(self.vm.tables)
        if not 2 <= len(keeps) <= cap:
            return None
        dfa.release()
        tickets = itertools.count()
        return tuple(
            LazyDFA(dfa.program, cap, self.vm, keep=keep, tickets=tickets)
            for keep in keeps
        )

    def _split_blew(self) -> None:
        """The branch DFAs blew the shared budget: the kernel, for good."""
        with self.dfa._counting:
            if self.on_kernel:
                return
            self.on_kernel = True
        if self._fallbacks is not None:
            self._fallbacks.inc()
            self._publish()

    def _split_walk(
        self, split, data: bytes, frontier: int, start: int, streaming: bool
    ) -> Tuple[Optional[bool], int, int]:
        """Walk ``data[start:]`` from ``frontier`` on every branch DFA.

        Returns ``(verdict, offset, frontier)`` as :meth:`LazyDFA.walk`
        does, with the OR of the branches' masks as the frontier: the
        verdict is any branch firing, at the earliest offset, and a
        branch walks only up to the best offset found so far.  A walk
        that runs out of tickets is settled by :meth:`_lockstep`.

        A branch walked before the one that fires walks on to the end of
        ``data``, so what a call leaves interned, and so the room a
        later call finds, depends on how the calls were cut (a one-shot
        call past its match holds more rows than a stream cut there).
        Verdicts never do; only where a later call reaches the kernel.
        """
        held = [dfa.state_count for dfa in split]
        best = length = len(data)
        ends = 0
        try:
            for dfa in split:
                mask = frontier & dfa.keep
                if not mask:  # the branch is dead
                    continue
                piece = data if best == length else data[:best]
                row = dfa.row_of(mask)
                if streaming:
                    verdict, offset, row = dfa.walk(piece, row, start)
                else:
                    verdict, offset, row = dfa._walk(piece, row, None, start)
                if verdict:
                    best = offset
                elif verdict is None:
                    ends |= row[dfa.num_classes]
        except LazyDFABlowup:
            return self._lockstep(split, data, frontier, start, held)
        finally:
            if self._transitions is not None:
                self._publish()
        if best < length:
            return True, best, 0
        return (None, length, ends) if ends else (False, length, 0)

    def _lockstep(
        self, split, data: bytes, frontier: int, start: int, held: List[int]
    ) -> Tuple[Optional[bool], int, int]:
        """What a walk of all branches in lockstep gives, ``held`` being
        their row counts when the walk began.

        Position by position, branch by branch, the first row a branch
        needs that it did not hold then takes one unit of the room the
        budget had left; the budget blows at the first position where
        the room runs out, with the OR of the branches' masks there.
        A branch-by-branch walk that fits the room interns a superset of
        these rows, so it agrees; one that does not fit comes here.
        Where the budget blows therefore does not depend on how a
        stream was chunked.  Only masks are stepped here; nothing is
        interned.
        """
        tables = self.vm.tables
        step, fires = tables.step, tables.fires
        room = self.dfa.max_states - sum(held)
        new_rows = [set(list(dfa._rows)[count:]) for dfa, count in zip(split, held)]
        counted = [set() for _ in split]

        def takes_room(index: int, mask: int) -> bool:
            rows = split[index]._rows
            if (mask in rows and mask not in new_rows[index]) or mask in counted[index]:
                return False
            counted[index].add(mask)
            return True

        masks = [frontier & dfa.keep for dfa in split]
        for index, mask in enumerate(masks):
            if mask and takes_room(index, mask):
                room -= 1
        if room < 0:
            raise _blown_at(self.dfa, frontier, start)
        classes = data.translate(tables.class_table)
        for offset in range(start, len(data)):
            byte_class = classes[offset]
            stepped = []
            for index, dfa in enumerate(split):
                successor = masks[index]
                if successor:
                    successor = step(successor, byte_class) & dfa.next_mask
                    if successor >= fires:
                        return True, offset, 0
                    if successor and takes_room(index, successor):
                        room -= 1
                        if room < 0:
                            raise _blown_at(self.dfa, _or(masks), offset)
                stepped.append(successor)
            masks = stepped
            if not any(masks):
                return False, len(data), 0
        return None, len(data), _or(masks)

    def _kernel(self, data: bytes, frontier: int, start: int) -> MatchResult:
        """Run the kernel from ``data[start]`` and ``frontier``.

        With a metrics registry, the run is counted from the
        enumeration's own step count (the step budget's, which skips
        the accepting position); no per-position observer is attached.
        """
        state = Enumeration(self.vm.tables, self.max_vm_steps)
        state.frontier = frontier
        state.consumed = start
        metrics = self._metrics
        if metrics is None:
            state.feed(data, start)
            state.finish()
        else:
            if state.max_steps is None:
                state.max_steps = sys.maxsize  # count the steps
            try:
                state.feed(data, start)
                state.finish()
            finally:
                count_run(metrics, state.executed)
        return MatchResult(state.position is not None, state.position)

    def match(self, text: Union[str, bytes]) -> MatchResult:
        data = text if isinstance(text, bytes) else _as_bytes(text)
        if self.blown:
            frontier, start = self.vm.tables.entry, 0
        else:
            try:
                result = self.dfa.run(data)
            except LazyDFABlowup as blowup:
                self._fall_back()
                frontier, start = blowup.state, blowup.offset
            else:
                if self._runs is not None:
                    self._runs.inc()
                    self._publish()
                return result
        if not self.on_kernel:
            try:
                verdict, offset, frontier_end = self._split_walk(
                    self.split, data, frontier, start, streaming=False
                )
            except LazyDFABlowup as blowup:
                self._split_blew()
                frontier, start = blowup.state, blowup.offset
            else:
                if self._runs is not None:
                    self._runs.inc()
                if verdict is None:
                    verdict = frontier_end & self.vm.tables.accept_mask != 0
                return MatchResult(True, offset) if verdict else MatchResult(False, None)
        return self._kernel(data, frontier, start)

    # ------------------------------------------------------------------
    # Streams: one Enumeration per stream, the DFAs shared
    # ------------------------------------------------------------------
    def feed(self, state: Enumeration, data: bytes) -> None:
        """Advance one stream's ``state`` (an enumeration over
        ``self.vm.tables`` with ``max_vm_steps``) over its next chunk.
        While a DFA walks, the frontier is the stream's DFA state's
        mask (the OR of the branch states' once split), so the kernel
        can take over wherever the matcher falls back."""
        if self.on_kernel or state.settled:  # a tripped budget implies it
            return state.feed(data)
        if not self.blown:
            dfa = self.dfa
            row = dfa._rows.get(state.frontier)  # ``None`` once released
            if row is not None:
                try:
                    verdict, offset, row = dfa.walk(data, row)
                except LazyDFABlowup as blowup:
                    self._fall_back()
                    state.frontier = blowup.state
                    state.consumed += blowup.offset
                    return self._resume(state, data, blowup.offset)
                if self._transitions is not None:
                    self._publish()
                state.consumed += offset
                if verdict is None:
                    state.frontier = row[dfa.num_classes]
                else:
                    state.settle(verdict)
                return
            # Another thread is splitting: wait for it to publish.
            self._fall_back()
        self._resume(state, data, 0)

    def _resume(self, state: Enumeration, data: bytes, start: int) -> None:
        """Continue ``state``, whose frontier and ``consumed`` offset are
        at ``data[start]``, on the branch DFAs or the kernel."""
        split = self.split
        if split is not None and not self.on_kernel:
            try:
                verdict, offset, frontier = self._split_walk(
                    split, data, state.frontier, start, streaming=True
                )
            except LazyDFABlowup as blowup:
                self._split_blew()
                state.frontier = blowup.state
                state.consumed += blowup.offset - start
                return state.feed(data, blowup.offset)
            state.consumed += offset - start
            if verdict is None:
                state.frontier = frontier
            else:
                state.settle(verdict)
            return
        state.feed(data, start)

    def finish(self, state: Enumeration) -> None:
        """Run the end-of-input position of one stream's ``state``."""
        if not (self.on_kernel or state.settled):  # free on the DFAs
            state.settle(state.frontier & self.vm.tables.accept_mask != 0)
        state.finish()


def _or(masks: Iterable[int]) -> int:
    union = 0
    for mask in masks:
        union |= mask
    return union


def _blown_at(dfa: LazyDFA, frontier: int, offset: int) -> LazyDFABlowup:
    blowup = LazyDFABlowup(dfa.max_states, dfa.program.source_pattern)
    blowup.state, blowup.offset = frontier, offset
    return blowup


__all__ = [
    "DEFAULT_MAX_DFA_STATES",
    "LazyDFA",
    "LazyDFABlowup",
    "LazyDFAMatcher",
    "branch_components",
    "byte_class_pattern",
]
