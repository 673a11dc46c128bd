"""Exact work counts of the lazy DFA's construction: a count gate with a
0 % bound.

What the miss path costs is decided by its representation — how many
states it interns, how many transitions it builds, how many step-table
and blind-dict entries it fills, how many bytes an interned state keeps
alive.  A timing bound of 25 % cannot see a state growing from 0.5 KB
back to 2 KB, or every PC of a state going through the step table again
instead of the two that inspect the byte; these counts can, in
milliseconds.  The inputs are the ones
``test_state_count_is_pinned_on_protomata4`` pins; every number but the
byte bound is a property of the program and the input, not of the host.
"""

import tracemalloc

import pytest

from repro.arch.simulator import split_chunks
from repro.compiler import compile_regex
from repro.observability import MetricsRegistry
from repro.prefilter.lazydfa import _UNBUILT, LazyDFAMatcher
from repro.vm.thompson import ThompsonVM
from repro.workloads import protomata, sample_and_alternate

#: Per rule: states interned, transitions built, blind-dict entries,
#: step-table entries (all columns).
PINNED = [
    (708, 1955, 289, 120),
    (1725, 4026, 597, 213),
    (2493, 4005, 1427, 179),
    (1222, 2638, 534, 187),
    (355, 1683, 42, 142),
    (196, 687, 37, 124),
]

#: An interned state keeps its PC mask, its dict entry and its row (the
#: transitions, the mask and the blind contribution), and shares the
#: kernel's memos: 506-683 B measured here with the step table and memos
#: included (1,673-2,152 B as a frozenset).
MAX_BYTES_PER_STATE = 700


@pytest.fixture(scope="module")
def built():
    """Each rule's matcher after the pinned chunks, and what it allocated."""
    pool = protomata.generate_patterns(800, 2025)
    rules = sample_and_alternate(pool, 200, seed=2025)[: len(PINNED)]
    chunks = split_chunks(protomata.generate_input(rules, 5000, seed=101), 500)
    matchers = []
    for rule in rules:
        program = compile_regex(rule).program
        vm = ThompsonVM(program)
        registry = MetricsRegistry()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            matcher = LazyDFAMatcher(program, vm=vm, metrics=registry)
            for chunk in chunks:
                matcher.match(chunk)
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert not matcher.blown
        matchers.append((matcher, registry, allocated))
    return matchers, chunks


def test_construction_counts_are_pinned(built):
    matchers, _chunks = built
    counts = [
        (
            matcher.dfa.state_count,
            matcher.dfa.transitions_built,
            len(matcher.dfa._tables.blind),
            sum(len(column) for column in matcher.dfa._tables.steps),
        )
        for matcher, _registry, _allocated in matchers
    ]
    assert counts == PINNED


def test_blind_dict_is_bounded_by_the_states_interned(built):
    # Its keys are ``state & blind_mask`` of states a transition was
    # built from, so ``max_dfa_states`` bounds it with no budget of its own.
    matchers, _chunks = built
    for matcher, _registry, _allocated in matchers:
        dfa = matcher.dfa
        keys = {state & dfa._tables.blind_mask for state in dfa._rows}
        assert set(dfa._tables.blind) <= keys
        assert len(dfa._tables.blind) <= dfa.state_count


def test_bytes_per_interned_state(built):
    matchers, _chunks = built
    for matcher, _registry, allocated in matchers:
        assert allocated / matcher.dfa.state_count < MAX_BYTES_PER_STATE


def unbuilt_transitions(dfa):
    """Transition slots still unbuilt, over every interned row."""
    classes = dfa.num_classes
    return sum(row[:classes].count(_UNBUILT) for row in dfa._rows.values())


def test_transitions_are_counted_on_the_miss_path_only(built):
    matchers, chunks = built
    for matcher, registry, _allocated in matchers:
        dfa = matcher.dfa
        unbuilt = unbuilt_transitions(dfa)
        assert dfa.transitions_built == dfa.state_count * dfa.num_classes - unbuilt
        assert registry.value("repro_lazydfa_transitions_total") == dfa.transitions_built
        for chunk in chunks:  # every transition is cached now
            matcher.match(chunk)
        assert registry.value("repro_lazydfa_transitions_total") == dfa.transitions_built
        assert unbuilt_transitions(dfa) == unbuilt
