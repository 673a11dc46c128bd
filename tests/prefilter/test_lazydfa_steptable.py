"""The lazy DFA's memoized step table against the interpreter it replaced.

``reference_transition`` is the worklist loop the lazy DFA's miss path
used to run for every transition: one VM position over a state's PCs,
instruction by instruction.  It is kept here as the oracle — every
transition the step table produces must equal it, on every state and
every byte class, and what a DFA state *is* (its PC set, hence the
state count) must not move.  States, closures and step-table keys are
bit masks in the kernel's dispatch tables; everything here reads them
through ``mask_pcs``.
"""

import random
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.arch.simulator import split_chunks
from repro.compiler import CompileOptions, compile_regex
from repro.fuzz.generators import RegexGenerator, derive_inputs
from repro.isa.instructions import (
    Opcode,
    accept,
    accept_partial,
    jmp,
    match,
    match_any,
    not_match,
    split,
)
from repro.isa.program import Program
from repro.prefilter.lazydfa import (
    _DEAD,
    _MATCHED,
    _UNBUILT,
    LazyDFA,
    LazyDFABlowup,
    LazyDFAMatcher,
)
from repro.runtime.errors import ReproError
from repro.vm.kernel import mask_pcs
from repro.vm.thompson import ThompsonVM
from repro.workloads import protomata, sample_and_alternate

FIRES = "fires"


def reference_transition(dfa, state, byte_class):
    """``FIRES`` or the successor PC set of ``state`` on ``byte_class``."""
    return reference_on_byte(
        dfa, state, dfa._tables.representatives[byte_class]
    )


def reference_on_byte(dfa, state, char):
    """``reference_transition`` on a raw byte value instead of a class
    representative, so the byte-class table is under test as well."""
    opcodes = dfa._tables.opcodes
    operands = dfa._tables.operands
    successors = dfa._tables.successors
    visited = set()
    next_roots = []
    worklist = list(state)
    while worklist:
        pc = worklist.pop()
        if pc in visited:
            continue
        visited.add(pc)
        opcode = opcodes[pc]
        if opcode == Opcode.NOT_MATCH:
            if char != operands[pc]:
                worklist.extend(mask_pcs(successors[pc]))
        elif opcode == Opcode.MATCH_ANY:
            next_roots.append(pc)
        elif opcode == Opcode.ACCEPT_PARTIAL:
            return FIRES
        elif opcode == Opcode.MATCH:
            if char == operands[pc]:
                next_roots.append(pc)
        # ACCEPT needs end-of-input; with a byte in hand it is dead.
    return frozenset(
        pc for root in next_roots for pc in mask_pcs(successors[root])
    )


def interned_rows(dfa):
    """The DFA's states — each is its row — in first-seen order."""
    return list(dfa._rows.values())


def state_mask(dfa, row):
    return row[dfa.num_classes]


def state_pcs(dfa, row):
    return frozenset(mask_pcs(state_mask(dfa, row)))


def built_transition(dfa, row, byte_class):
    """The DFA's own answer, in ``reference_transition``'s terms: the
    transition is rebuilt (cached or not) by walking ``row`` over the
    class's representative byte, the miss path every walk takes."""
    row[byte_class] = _UNBUILT
    byte = bytes((dfa._tables.representatives[byte_class],))
    verdict, _offset, reached = dfa._walk(byte, row, None)
    result = row[byte_class]
    if result is _MATCHED:
        assert verdict is True
        return FIRES
    if result is _DEAD:
        assert verdict is False
        return frozenset()
    assert verdict is None
    assert reached is result is dfa._rows[state_mask(dfa, result)]
    return state_pcs(dfa, result)


def assert_transitions_equal_reference(dfa):
    """Every (interned state, byte class) pair; under a state cap, a
    blowup is right exactly when the successor is a state the cap has no
    room for."""
    for row in interned_rows(dfa):
        state = state_pcs(dfa, row)
        for byte_class in range(dfa.num_classes):
            expected = reference_transition(dfa, state, byte_class)
            try:
                got = built_transition(dfa, row, byte_class)
            except LazyDFABlowup:
                assert dfa.state_count == dfa.max_states
                assert expected != FIRES and expected
                assert expected not in {
                    state_pcs(dfa, other) for other in interned_rows(dfa)
                }
            else:
                assert got == expected, (sorted(state), byte_class)


def _dfa_after(program, texts, max_states=None):
    matcher = LazyDFAMatcher(program, max_states=max_states)
    for text in texts:
        matcher.match(text)
    return matcher.dfa


class TestHandBuiltPrograms:
    def test_not_match_chain(self):
        # [^ab] lowers to NOT_MATCH a; NOT_MATCH b; MATCH_ANY.
        program = Program(
            [not_match("a"), not_match("b"), match_any(), match("x"),
             accept_partial()]
        )
        dfa = _dfa_after(program, ["cx", "ax", "bx", "ccx"])
        assert_transitions_equal_reference(dfa)
        assert dfa.run("cx").position == 2
        assert not dfa.run("ax")

    def test_not_match_reaches_accept_partial_within_the_position(self):
        program = Program([not_match("a"), accept_partial()])
        dfa = _dfa_after(program, ["b", "a"])
        assert_transitions_equal_reference(dfa)
        assert dfa.run("b").position == 0
        assert not dfa.run("a")

    def test_epsilon_loop_through_not_match(self):
        # 1 -> (2: jmp 0) -> split -> 1 again within one position.
        program = Program(
            [split(3), not_match("a"), jmp(0), match("b"), accept_partial()]
        )
        dfa = _dfa_after(program, ["xb", "ab", "a", "xxxa"])
        assert_transitions_equal_reference(dfa)
        vm = ThompsonVM(program)
        for text in ["xb", "ab", "a", "xxxa", "b", ""]:
            assert dfa.run(text) == vm.run_reference(text), text

    def test_accept_is_dead_with_a_byte_in_hand(self):
        program = Program([split(3), match("a"), accept(), accept()])
        dfa = _dfa_after(program, ["a", "aa", ""])
        assert_transitions_equal_reference(dfa)
        assert dfa.run("").matched and dfa.run("a").matched
        assert not dfa.run("aa")


class TestBlindAndSightedSplit:
    """A transition is the memoized contribution of the state's
    byte-blind PCs OR-ed with the column entries of its sighted ones."""

    @pytest.mark.parametrize(
        "pattern", ["a..b", ".{3}x", "(.|ab)c.", "x(..)*y", "..", "^.[^ab]."]
    )
    def test_blind_part_alone_equals_reference_where_no_pc_is_sighted(
        self, pattern
    ):
        program = compile_regex(pattern).program
        dfa = _dfa_after(program, ["abcabxcy", "xaabbyy", "zzzzzzzz", "abcx"])
        blind_only = 0
        for row in interned_rows(dfa):
            mask = state_mask(dfa, row)
            state = state_pcs(dfa, row)
            for byte in range(256):
                byte_class = dfa._tables.class_table[byte]
                if mask & dfa._tables.sighted[byte_class]:
                    continue
                blind_only += 1
                expected = reference_on_byte(dfa, state, byte)
                assert built_transition(dfa, row, byte_class) == expected
                # ... and it came from the blind dict, untouched.
                blind = dfa._tables.blind[mask & dfa._tables.blind_mask]
                if expected == FIRES:
                    assert blind >= dfa._tables.fires
                else:
                    assert frozenset(mask_pcs(blind)) == expected
        assert blind_only > 0
        assert len(dfa._tables.blind) <= dfa.state_count

    NOT_A_OR_B = set(range(256)) - {ord("a"), ord("b")}

    @pytest.mark.parametrize(
        "instructions, fires_on",
        [
            ([not_match("a"), not_match("b"), accept_partial()], NOT_A_OR_B),
            # The chain next to a blind PC and a MATCH of one of its bytes.
            ([split(4), not_match("a"), not_match("b"), accept_partial(),
              split(7), match_any(), accept(), match("a"), match("c"),
              accept_partial()], NOT_A_OR_B),
            # An ε-loop through the chain, which never gets out of it.
            ([split(4), not_match("a"), not_match("b"), jmp(0), match("b"),
              accept_partial()], set()),
        ],
    )
    def test_not_match_chain_fires_on_exactly_the_reference_bytes(
        self, instructions, fires_on
    ):
        dfa = LazyDFA(Program(instructions))
        row = dfa._entry_row
        entry = state_pcs(dfa, row)
        fired = set()
        for byte in range(256):
            expected = reference_on_byte(dfa, entry, byte)
            got = built_transition(dfa, row, dfa._tables.class_table[byte])
            assert got == expected, byte
            if got == FIRES:
                fired.add(byte)
        assert fired == fires_on


@pytest.mark.parametrize("max_states", [None, 2])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), optimize=st.booleans())
def test_step_table_equals_reference_on_fuzz_programs(max_states, seed, optimize):
    pattern = RegexGenerator(seed).generate()
    options = CompileOptions() if optimize else CompileOptions.none()
    try:
        program = compile_regex(pattern.text, options).program
    except ReproError:
        # A typed rejection (e.g. factorization moving ``$`` into a nested
        # branch) is the compiler's business: no program, nothing to check.
        assume(False)
    texts = derive_inputs(pattern, random.Random(seed))
    assert_transitions_equal_reference(_dfa_after(program, texts, max_states))


def _protomata4_rules(count):
    pool = protomata.generate_patterns(800, 2025)
    return sample_and_alternate(pool, 200, seed=2025)[:count]


def test_state_count_is_pinned_on_protomata4():
    # What a state is — the set of work PCs after each byte — is
    # part of the contract (StreamingMatcher seeds the VM frontier from
    # it); a faster construction may not intern different states.
    rules = _protomata4_rules(6)
    chunks = split_chunks(protomata.generate_input(rules, 5000, seed=101), 500)
    counts = []
    for rule in rules:
        program = compile_regex(rule).program
        vm = ThompsonVM(program)
        matcher = LazyDFAMatcher(program, vm=vm)
        for chunk in chunks:
            assert matcher.match(chunk) == vm.run(chunk)
        assert not matcher.blown
        counts.append(matcher.dfa.state_count)
    assert counts == [708, 1725, 2493, 1222, 355, 196]


def test_step_entries_are_filled_only_for_pcs_in_interned_states():
    program = compile_regex("|".join(_protomata4_rules(3))).program
    assert len(program) >= 1000
    dfa = LazyDFA(program)
    text = b"MKVLAAGIVGLCA"
    dfa.run(text)
    classes_seen = set(text.translate(dfa._tables.class_table))
    states = [state_pcs(dfa, row) for row in interned_rows(dfa)]
    pcs_in_states = set().union(*states)
    for byte_class, column in enumerate(dfa._tables.steps):
        if byte_class in classes_seen:
            assert {pc for bit in column for pc in mask_pcs(bit)} <= pcs_in_states
        else:
            assert not column
    entries = sum(len(column) for column in dfa._tables.steps)
    assert 0 < entries <= sum(map(len, states)) * len(classes_seen)
    # Far from a whole-program sweep.
    assert entries < len(program)
