"""Exact work counts of the kernel's fallback scan: a count gate with a
0 % bound.

After a lazy DFA blows its state budget, every byte goes through
:meth:`repro.vm.kernel.DispatchTables.step` on a frontier mask that is
never interned.  What that may keep is fixed: step-table entries (at
most one per PC and byte class) and the two step memos, which share
``MEMO_ENTRIES`` keys.  A kernel that interned frontiers again, or grew
a memo past its room, would keep memory per distinct frontier; these
counts and the bytes per memo entry see that in milliseconds.  The rule
and input are ``test_lazydfa_work.py``'s third, whose DFA — had it not
blown — fills exactly the same step-table and blind-memo entries.
"""

import tracemalloc

import pytest

from repro.arch.simulator import split_chunks
from repro.compiler import compile_regex
from repro.observability import MetricsRegistry
from repro.prefilter.lazydfa import LazyDFAMatcher
from repro.vm.kernel import MEMO_ENTRIES
from repro.vm.thompson import ThompsonVM
from repro.workloads import protomata, sample_and_alternate

#: Step-table entries (all columns), blind-memo keys, sighted-memo keys
#: (all classes) after the fallback scan, and the steps it executed.
#: The blowing chunk is charged from its blown byte (21) on: the 660
#: steps of its first 21 bytes are the DFA's, and free.
PINNED = (179, 1427, 273, 177_623)

#: A kept memo entry is a key mask, a value mask and a dict slot:
#: 184 B measured here.
MAX_BYTES_PER_MEMO_ENTRY = 250


def _rule_and_chunks():
    pool = protomata.generate_patterns(800, 2025)
    rules = sample_and_alternate(pool, 200, seed=2025)[:6]
    chunks = split_chunks(protomata.generate_input(rules, 5000, seed=101), 500)
    return rules[2], chunks


def _memo_keys(tables):
    return len(tables.blind) + sum(len(memo) for memo in tables.sighted_memo)


@pytest.fixture(scope="module")
def scanned():
    """The rule's matcher, blown on the first chunk, after a fallback scan
    of the other nine; what that scan kept, in memo keys and bytes."""
    rule, chunks = _rule_and_chunks()
    program = compile_regex(rule).program
    vm = ThompsonVM(program)
    registry = MetricsRegistry()
    matcher = LazyDFAMatcher(
        program, max_states=20, max_vm_steps=10**9, vm=vm, metrics=registry
    )
    matcher.match(chunks[0])
    assert matcher.blown
    kept = _memo_keys(vm.tables)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        verdicts = [matcher.match(chunk) for chunk in chunks[1:]]
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return vm, registry, chunks, verdicts, _memo_keys(vm.tables) - kept, allocated


def test_fallback_counts_are_pinned(scanned):
    vm, registry, _chunks, _verdicts, _added, _allocated = scanned
    tables = vm.tables
    assert (
        sum(len(column) for column in tables.steps),
        len(tables.blind),
        sum(len(memo) for memo in tables.sighted_memo),
        registry.value("repro_vm_steps_total"),
    ) == PINNED
    assert tables.memo_room == MEMO_ENTRIES - _memo_keys(tables)


def test_fallback_verdicts_equal_the_reference(scanned):
    vm, _registry, chunks, verdicts, _added, _allocated = scanned
    assert verdicts == [vm.run_reference(chunk) for chunk in chunks[1:]]


def test_bytes_per_memo_entry(scanned):
    # Everything the scan keeps is step-table entries and memo keys.
    _vm, _registry, _chunks, _verdicts, added, allocated = scanned
    assert added > 0
    assert allocated / added < MAX_BYTES_PER_MEMO_ENTRY


def test_memos_stop_at_their_room():
    rule, chunks = _rule_and_chunks()
    vm = ThompsonVM(compile_regex(rule).program)
    vm.tables.memo_room = 100
    for chunk in chunks:
        assert vm.run(chunk, max_steps=10**9) == vm.run_reference(chunk)
    assert _memo_keys(vm.tables) == 100
    assert vm.tables.memo_room == 0
