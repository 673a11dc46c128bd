"""Budget-bounded lazy DFA over the Thompson program.

The VM fast path pays a Python-level set expansion per input position;
for scan-heavy workloads that is the dominant cost even when the
frontier is tiny.  This module determinizes the same work-instruction
model *on the fly*: a DFA state is the set of work PCs the VM would
hold in its frontier, kept as one ``int`` with bit ``pc`` set for each
of them, and a transition row is filled in one byte class at a time,
only for the (state, class) pairs the input actually exercises.  Once
a transition is cached, re-traversing it costs two list indexings —
roughly two orders of magnitude less than a VM position.

Byte classes: every distinct ``MATCH``/``NOT_MATCH`` operand gets a
singleton class and all remaining bytes share one residual class.  Two
bytes in the same class are indistinguishable to the program (the only
byte inspections are equality tests against those operands), so one
cached transition covers the whole class; the input is mapped through
the 256-byte class table with :meth:`bytes.translate` — one C-level
pass — before the automaton loop runs.

Subtlety the state graph must carry: ``NOT_MATCH`` is an ε-move
*conditioned on the current byte*, and it can reach ``ACCEPT_PARTIAL``
within a position.  Acceptance mid-input is therefore a property of the
*transition* (state × byte class), not of the state alone, so cached
transitions encode "match fires at this position" as a distinct
sentinel rather than a successor state.

Building a transition is itself lowered one step further.  What a work
instruction contributes to the successor state on a given byte class is
a static property of the program — ``MATCH``/``MATCH_ANY`` contribute
their precomputed successor closure or nothing, ``NOT_MATCH`` whatever
its own successors contribute on that byte, ``ACCEPT_PARTIAL`` "match
fires", ``ACCEPT`` nothing — so it is worked out once per
(PC, byte class), on first use, and kept as a bit mask in a step table
(:class:`_StepColumn`); no instruction is interpreted twice for the
same class.  A transition ORs those masks in two parts.  The
**byte-blind** PCs of the state (``MATCH_ANY``, ``ACCEPT_PARTIAL``)
contribute the same on every class, so their OR is computed once per
distinct ``state & blind_mask`` and looked up after that.  Of the rest
only the **sighted** PCs can contribute on this class — every
``NOT_MATCH`` and the ``MATCH``es of the class's own byte, about three
bits of a 30-PC state — and only those go through the column.

Only this module reads the rows, in two loops kept apart on measurement
(2-vCPU Xeon, Python 3.11, warm DFA; ``docs/performance.md``).  A
per-byte state-0 skip hook would cost :meth:`LazyDFA.run` 0.64× on
protomata over residue (500 B chunks).  :meth:`LazyDFA.walk` needs its
hook: skipping only at the start of a 64 KiB piece streams brill over
residue with one lowercase byte per 200 B / 2 KB at 22 / 31 instead of
331 / 368 MB/s.  A resumable ``run`` is no faster (0.92×, 1.01×) and
has no skip.

The construction is strictly bounded: interning a state beyond
``max_states`` raises :class:`LazyDFABlowup`, and
:class:`LazyDFAMatcher` then falls back — permanently, for that
pattern — to the NFA VM.  Blowup is a performance event, never a
correctness event (acceptance criterion: pathological ``(a|aa){n}``
patterns degrade with a ``repro_lazydfa_fallback_total`` increment,
never an error or a wrong verdict).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..isa.instructions import Opcode
from ..isa.program import Program
from ..vm.kernel import DispatchTables
from ..vm.thompson import MatchResult, ThompsonVM, _as_bytes
from .ahocorasick import byte_class_pattern

#: Default cap on interned DFA states (also the `Budget.max_dfa_states`
#: default).  A state costs its mask of work PCs (one ``int``: 4 bytes
#: per 30 program addresses), one interning dict entry and one
#: transition row of ``num_classes`` ints (distinct operand bytes + 1,
#: not 256): about 0.5 KB for the 21-class states of the protomata ×4
#: rules, so a pattern that runs into the cap holds about 5 MB;
#: literal-ish patterns determinize in well under 100 states.
DEFAULT_MAX_DFA_STATES = 10_000

# Transition-row sentinels (all < 0 so real state ids stay >= 0).
_UNBUILT = -3
_MATCHED = -2
_DEAD = -1

_MATCH = int(Opcode.MATCH)
_MATCH_ANY = int(Opcode.MATCH_ANY)
_NOT_MATCH = int(Opcode.NOT_MATCH)
_ACCEPT = int(Opcode.ACCEPT)
_ACCEPT_PARTIAL = int(Opcode.ACCEPT_PARTIAL)


class LazyDFABlowup(Exception):
    """The subset construction exceeded ``max_states``.

    A plain exception (not a :class:`ReproError`): it never escapes to
    users — :class:`LazyDFAMatcher` catches it and falls back to the
    VM, and the fuzz oracle counts it as an abstain.
    """

    def __init__(self, max_states: int, pattern: Optional[str] = None):
        self.max_states = max_states
        self.pattern = pattern
        #: Set by :meth:`LazyDFA.walk`: the blown state's mask, the byte.
        self.state: Optional[int] = None
        self.offset: Optional[int] = None
        super().__init__(
            f"lazy DFA exceeded max_dfa_states={max_states}"
            + (f" for pattern {pattern!r}" if pattern else "")
        )


def mask_pcs(mask: int) -> List[int]:
    """The PCs whose bits are set in ``mask``, ascending — the one
    decoder of a state (the streaming blow-up hand-over, tests)."""
    pcs = []
    while mask:
        low = mask & -mask
        pcs.append(low.bit_length() - 1)
        mask ^= low
    return pcs


def _mask_of(pcs: Iterable[int]) -> int:
    mask = 0
    for pc in pcs:
        mask |= 1 << pc
    return mask


class _ClosureMasks(dict):
    """``pc -> successors[pc]`` as a bit mask, built on first use."""

    __slots__ = ("_successors",)

    def __init__(self, successors: List[Optional[tuple]]):
        super().__init__()
        self._successors = successors

    def __missing__(self, pc: int) -> int:
        mask = self[pc] = _mask_of(self._successors[pc])
        return mask


class _StepColumn(dict):
    """One byte class of the step table: one-hot PC mask -> mask of the
    PCs that work instruction contributes to the successor state.

    Keyed by the one-hot mask because that is what the transition loop
    holds (``rest & -rest``).  Entries are computed on first lookup, per
    PC, so a cold one-shot match on a large program pays only for the
    PCs its states actually hold.  Holds the shared dispatch tables
    rather than the DFA, so a dropped DFA is freed by reference count,
    not by the cycle collector.
    """

    __slots__ = ("_char", "_tables", "_closures", "_fires")

    def __init__(
        self, char: int, tables: DispatchTables, closures: _ClosureMasks, fires: int
    ):
        super().__init__()
        self._char = char
        self._tables = tables
        self._closures = closures
        self._fires = fires

    def __missing__(self, bit: int) -> int:
        char = self._char
        opcodes = self._tables.opcodes
        operands = self._tables.operands
        successors = self._tables.successors
        contributed = 0
        # A NOT_MATCH that lets this byte through continues, within the
        # position, at its own successors; ε-loops through NOT_MATCH end
        # at the visited set, as in the VM's per-position loop.
        visited = set()
        worklist = [bit.bit_length() - 1]
        while worklist:
            current = worklist.pop()
            if current in visited:
                continue
            visited.add(current)
            opcode = opcodes[current]
            if opcode == _NOT_MATCH:
                if char != operands[current]:
                    worklist.extend(successors[current])
            elif opcode == _MATCH_ANY or (
                opcode == _MATCH and char == operands[current]
            ):
                contributed |= self._closures[current]
            elif opcode == _ACCEPT_PARTIAL:
                contributed |= self._fires
            # ACCEPT needs end-of-input; with a byte in hand it is dead.
        self[bit] = contributed
        return contributed


class LazyDFA:
    """On-the-fly determinization of one Thompson program.

    Shares (or builds) a :class:`ThompsonVM` for its precomputed
    ε-closure dispatch tables; the cached transition graph grows only as
    inputs demand and is reused across :meth:`run` calls, so scan loops
    amortize construction across the whole corpus.
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
        self._vm = vm if vm is not None else ThompsonVM(program)
        self._tables = self._vm.tables
        #: Transitions built so far (the miss path; cached ones are free).
        self.transitions_built = 0
        self._build_byte_classes()
        #: "``ACCEPT_PARTIAL`` is reached: the match fires on this
        #: transition" — the bit above every real PC, so a mask holds it
        #: exactly when it compares ``>=`` to it.
        self._fires = 1 << len(self._tables.opcodes)
        self._closures = _ClosureMasks(self._tables.successors)
        self._steps = [
            _StepColumn(char, self._tables, self._closures, self._fires)
            for char in self._representatives
        ]
        self._build_pc_masks()
        #: ``state & blind_mask`` -> what those PCs contribute, on any
        #: class.  At most one key per interned state, so ``max_states``
        #: bounds it too.
        self._blind: Dict[int, int] = {}
        # State interning: id 0 is always the entry state.
        self._ids: Dict[int, int] = {}
        self._states: List[int] = []
        self._rows: List[List[int]] = []
        self._accept_end: List[bool] = []
        # ``max_states <= 0`` cannot hold even that: the DFA stays empty
        # and every :meth:`run` reports the blowup.
        if max_states is None or max_states > 0:
            self._intern(_mask_of(self._tables.entry))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_byte_classes(self) -> None:
        operand_bytes = sorted(
            {
                self._tables.operands[pc]
                for pc, opcode in enumerate(self._tables.opcodes)
                if opcode in (_MATCH, _NOT_MATCH)
            }
        )
        class_of = [len(operand_bytes)] * 256  # residual class by default
        for index, byte in enumerate(operand_bytes):
            class_of[byte] = index
        # One representative byte per class drives transition building;
        # the residual class (if any byte falls in it) uses the smallest
        # non-operand byte.
        representatives = list(operand_bytes)
        operand_set = set(operand_bytes)
        residual = next(
            (byte for byte in range(256) if byte not in operand_set), None
        )
        if residual is not None:
            representatives.append(residual)
        self.num_classes = len(representatives)
        self._representatives = representatives
        self._class_table = bytes(class_of)

    def _build_pc_masks(self) -> None:
        opcodes = self._tables.opcodes

        def pcs_with(*wanted: int) -> int:
            return _mask_of(
                pc for pc, opcode in enumerate(opcodes) if opcode in wanted
            )

        #: The PCs that contribute the same on every byte class.
        self._blind_mask = pcs_with(_MATCH_ANY, _ACCEPT_PARTIAL)
        self._accept_mask = pcs_with(_ACCEPT, _ACCEPT_PARTIAL)
        # Per class, the PCs that can contribute only by inspecting the
        # byte: every NOT_MATCH and the MATCHes of the class's own byte.
        sighted = dict.fromkeys(self._representatives, pcs_with(_NOT_MATCH))
        for pc, opcode in enumerate(opcodes):
            if opcode == _MATCH:
                sighted[self._tables.operands[pc]] |= 1 << pc
        self._sighted = list(sighted.values())

    def _intern(self, state: int) -> int:
        state_id = self._ids.get(state)
        if state_id is not None:
            return state_id
        if self.max_states is not None and len(self._states) >= self.max_states:
            raise LazyDFABlowup(self.max_states, self.program.source_pattern)
        state_id = len(self._states)
        self._ids[state] = state_id
        self._states.append(state)
        self._rows.append([_UNBUILT] * self.num_classes)
        self._accept_end.append(state & self._accept_mask != 0)
        return state_id

    def _blind_step(self, blind: int) -> int:
        """What the byte-blind PCs in ``blind`` contribute, memoized."""
        opcodes = self._tables.opcodes
        contributed = 0
        for pc in mask_pcs(blind):
            contributed |= (
                self._closures[pc] if opcodes[pc] == _MATCH_ANY else self._fires
            )
        self._blind[blind] = contributed
        return contributed

    def _successor(self, state: int, byte_class: int) -> int:
        """One VM position, specialized to ``byte_class``'s bytes: the
        mask of the next state (``>= _fires`` when the match fires)."""
        blind = state & self._blind_mask
        next_state = self._blind.get(blind)
        if next_state is None:
            next_state = self._blind_step(blind)
        step = self._steps[byte_class]
        rest = state & self._sighted[byte_class]
        while rest:
            low = rest & -rest
            next_state |= step[low]
            rest ^= low
        return next_state

    def _build_transition(self, state_id: int, byte_class: int) -> int:
        self.transitions_built += 1
        next_state = self._successor(self._states[state_id], byte_class)
        if next_state >= self._fires:
            result = _MATCHED
        elif next_state:
            result = self._intern(next_state)
        else:
            result = _DEAD
        self._rows[state_id][byte_class] = result
        return result

    @cached_property
    def _stop_search(self):
        """``search(data, index)`` for the next byte that leaves state 0;
        ``None`` when every byte does, ``False`` when none does.  Derived
        on the first :meth:`walk` from successor masks alone: nothing is
        interned, so it cannot blow ``max_states`` on a byte the input
        never holds."""
        entry = self._states[0]
        loops = [
            self._successor(entry, byte_class) == entry != 0
            for byte_class in range(self.num_classes)
        ]
        stop_bytes = [
            byte for byte in range(256) if not loops[self._class_table[byte]]
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
        the cache past that bound; callers fall back to the VM.
        """
        data = text if isinstance(text, bytes) else _as_bytes(text)
        translated = data.translate(self._class_table)
        rows = self._rows
        if not rows:
            raise LazyDFABlowup(self.max_states, self.program.source_pattern)
        state_id = 0
        row = rows[0]
        build = self._build_transition
        for position, byte_class in enumerate(translated):
            next_id = row[byte_class]
            if next_id < 0:
                if next_id == _UNBUILT:
                    next_id = build(state_id, byte_class)
                if next_id == _MATCHED:
                    return MatchResult(True, position)
                if next_id == _DEAD:
                    return MatchResult(False, None)
            state_id = next_id
            row = rows[state_id]
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
        mask of the state it blew in and the offset of the byte, where
        the VM takes over.
        """
        stop_search = self._stop_search
        length = len(data)
        if stop_search is False:  # state 0 is the only state
            return None, length, state_id
        rows = self._rows
        build = self._build_transition
        translated = data.translate(self._class_table)
        index = 0
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
        return None, length, state_id

    def accepts_at_end(self, state_id: int) -> bool:
        """Whether the end of input accepts in ``state_id``."""
        return self._accept_end[state_id]


class LazyDFAMatcher:
    """Lazy DFA with a permanent, metered fallback to the NFA VM.

    The first :class:`LazyDFABlowup` flips the matcher into VM mode for
    good — a pattern that blows the state budget once will do so again,
    and half-built caches are not worth re-probing per call.  The
    fallback is observable (``repro_lazydfa_fallback_total``) but never
    behavioral: both paths return identical :class:`MatchResult`s.
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
        self._states_gauge.set(self.dfa.state_count)
        built = self.dfa.transitions_built
        if built != self._published:  # a warm run builds none
            self._transitions.inc(built - self._published)
            self._published = built

    def _fall_back(self) -> None:
        self.blown = True
        if self._fallbacks is not None:
            self._fallbacks.inc()
            self._publish()

    def match(self, text: Union[str, bytes]) -> MatchResult:
        if not self.blown:
            try:
                result = self.dfa.run(text)
            except LazyDFABlowup:
                self._fall_back()
            else:
                if self._runs is not None:
                    self._runs.inc()
                    self._publish()
                return result
        return self.vm.run(text, self.max_vm_steps, metrics=self._metrics)


__all__ = [
    "DEFAULT_MAX_DFA_STATES",
    "LazyDFA",
    "LazyDFABlowup",
    "LazyDFAMatcher",
]
