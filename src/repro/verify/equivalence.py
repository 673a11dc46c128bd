"""Translation validation: decide language equivalence of Cicero programs.

The compiler test suite samples behaviour; this module *decides* it.
Two programs are equivalent iff they accept the same set of inputs, and
that is decidable: a program is a finite-state acceptor, so we
determinize both directly over the ISA semantics and walk the product
automaton looking for a distinguishing state — returning a shortest
counterexample input when one exists.

Determinization works on configurations = sets of program counters
pending at the current input position; one transition is one
:func:`~repro.verify.reference.reference_step` of the golden model.  A
fired ``ACCEPT_PARTIAL`` (or ``ACCEPT`` when the input ends) routes to
an absorbing MATCHED state, so "some prefix matched" becomes ordinary
DFA end-acceptance.

Character classes keep this tractable: only the characters named by
either program (plus one representative of "everything else") can be
distinguished, so the effective alphabet is tiny.

Used by `tests/verify/` (the compilers and every optimization level
agree over whole corpora), the fuzz campaign's program-level oracles,
fault injection and :func:`assert_programs_equivalent`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from ..ir.diagnostics import BudgetExceeded
from ..isa.instructions import Opcode
from ..isa.program import Program
from .reference import reference_run, reference_step

#: The absorbing "a match has fired" configuration.
MATCHED = frozenset({-1})


class EquivalenceCheckExceeded(BudgetExceeded):
    """The product walk hit the configured state budget.

    Part of the :class:`~repro.ir.diagnostics.BudgetExceeded` taxonomy:
    the check is *decidable* but the product automaton can be large, so
    services bound it and treat this as "undecided", never as a hang.
    """

    code = "REPRO-BUDGET-EQUIV-STATES"

    def __init__(self, limit: int):
        super().__init__(
            f"equivalence check exceeded {limit} product states",
            limit=limit,
            spent=limit,
        )


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    #: A shortest input accepted by exactly one program (None if equal).
    counterexample: Optional[bytes] = None
    #: Which side accepts the counterexample ("left"/"right").
    accepted_by: Optional[str] = None
    explored_states: int = 0

    def __bool__(self) -> bool:
        return self.equivalent


def _arrays(program: Program) -> Tuple[List[int], List[int]]:
    return [int(i.opcode) for i in program], [i.operand for i in program]


def _advance(
    arrays: Tuple[List[int], List[int]],
    configuration: FrozenSet[int],
    char: Optional[int],
) -> Tuple[FrozenSet[int], bool]:
    """One golden-model position (``char is None``: end of input); a
    fired accept routes to the absorbing MATCHED configuration."""
    if configuration == MATCHED:
        return MATCHED, True
    next_pcs, accepted, _executed = reference_step(*arrays, configuration, char)
    if accepted:
        return MATCHED, True
    return frozenset(next_pcs), False


def _alphabet(left: Program, right: Program) -> List[Optional[int]]:
    """Distinguishable characters: every named char + one 'other'.

    Operands are 13-bit but inputs are bytes, so a ``MATCH c`` with
    ``c > 255`` (possible in hand-built or corrupted programs) can never
    fire — such characters are excluded rather than crashing the walk.
    """
    named = sorted({
        instruction.operand
        for program in (left, right)
        for instruction in program
        if instruction.opcode in (Opcode.MATCH, Opcode.NOT_MATCH)
        and instruction.operand < 256
    })
    for candidate in range(256):
        if candidate not in named:
            return named + [candidate]
    return named


def check_equivalence(
    left: Program,
    right: Program,
    max_states: int = 200_000,
) -> EquivalenceResult:
    """Decide whether two programs accept exactly the same inputs.

    Breadth-first product walk → the returned counterexample (if any)
    is of minimal length.
    """
    left_arrays = _arrays(left)
    right_arrays = _arrays(right)
    alphabet = _alphabet(left, right)

    start = (frozenset({0}), frozenset({0}))
    visited: Dict[Tuple[FrozenSet[int], FrozenSet[int]], bytes] = {start: b""}
    frontier: List[Tuple[FrozenSet[int], FrozenSet[int]]] = [start]

    while frontier:
        next_frontier: List[Tuple[FrozenSet[int], FrozenSet[int]]] = []
        for pair in frontier:
            left_config, right_config = pair
            prefix = visited[pair]
            left_accepts = _advance(left_arrays, left_config, None)[1]
            right_accepts = _advance(right_arrays, right_config, None)[1]
            if left_accepts != right_accepts:
                return EquivalenceResult(
                    equivalent=False,
                    counterexample=prefix,
                    accepted_by="left" if left_accepts else "right",
                    explored_states=len(visited),
                )
            # Dead on both sides: no extension can differ.
            if not left_config and not right_config:
                continue
            if left_config == MATCHED and right_config == MATCHED:
                continue
            for char in alphabet:
                next_pair = (
                    _advance(left_arrays, left_config, char)[0],
                    _advance(right_arrays, right_config, char)[0],
                )
                if next_pair not in visited:
                    if len(visited) >= max_states:
                        raise EquivalenceCheckExceeded(max_states)
                    visited[next_pair] = prefix + bytes([char])
                    next_frontier.append(next_pair)
        frontier = next_frontier
    return EquivalenceResult(equivalent=True, explored_states=len(visited))


def assert_programs_equivalent(
    left: Program, right: Program, max_states: int = 200_000
) -> None:
    """Raise ``AssertionError`` with the counterexample when not equal."""
    result = check_equivalence(left, right, max_states=max_states)
    if not result.equivalent:
        raise AssertionError(
            f"programs differ: input {result.counterexample!r} is accepted "
            f"only by the {result.accepted_by} program\n"
            f"left ({left.compiler}):\n{left.disassemble()}\n"
            f"right ({right.compiler}):\n{right.disassemble()}"
        )


def accepts(program: Program, text: Union[str, bytes]) -> bool:
    """Reference acceptance through the golden model (used to
    cross-check the checker itself against the VM in tests)."""
    data = text.encode("latin-1") if isinstance(text, str) else bytes(text)
    return reference_run(*_arrays(program), data) is not None
