"""The shared matching kernel against the golden model.

Four entry points run one loop (:mod:`repro.vm.kernel`): one-shot
single, one-shot multi, streaming single, streaming multi; the lazy
DFA's one-shot and streaming walks are held to the same reference.  The
property here drives all of them over *every* byte value — the other
properties draw inputs from ``"abcdefgh"`` although the lexer builds
negated classes over ``range(256)`` — and pins what chunking must never
change: verdict, position, and where a step budget trips.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_regex
from repro.multimatch import MultiMatchVM, compile_multipattern
from repro.prefilter.lazydfa import LazyDFA, LazyDFABlowup, LazyDFAMatcher
from repro.runtime.errors import VMStepBudgetError
from repro.vm import MatchResult, StreamingMatcher, StreamingMultiMatcher, ThompsonVM
from repro.vm.kernel import Enumeration
from strategies import regex_patterns

FIXED_PATTERNS = [".", "a.c", "[^a]", "[^a]b$", "a$", "(a|aa){3}b"]
patterns = st.one_of(regex_patterns(), st.sampled_from(FIXED_PATTERNS))
#: Full-range bytes, and the same with the patterns' alphabet mixed in
#: so that matches are not vanishingly rare.
inputs = st.one_of(
    st.binary(max_size=32),
    st.lists(
        st.one_of(st.sampled_from(list(b"abcdef")), st.integers(0, 255)),
        max_size=32,
    ).map(bytes),
)


def splits(data):
    """Every 2-way split, and the all-1-byte-chunks split."""
    for cut in range(len(data) + 1):
        yield [data[:cut], data[cut:]]
    yield [data[i:i + 1] for i in range(len(data))]


def stream(matcher, chunks):
    for chunk in chunks:
        verdict = matcher.feed(chunk)
        if verdict is not None:
            return verdict
    return matcher.finish()


@settings(max_examples=60, deadline=None)
@given(pattern=patterns, data=inputs)
def test_single_match_entry_points_agree(pattern, data):
    program = compile_regex(pattern).program
    vm = ThompsonVM(program)
    expected = vm.run_reference(data)
    assert vm.run(data) == expected, (pattern, data)
    try:
        assert LazyDFA(program, vm=vm).run(data) == expected, (pattern, data)
    except LazyDFABlowup:
        pass  # a performance event: the matchers fall back to the VM
    for chunks in splits(data):
        for cap in (0, None, 2):
            matcher = LazyDFAMatcher(program, max_states=cap, vm=vm)
            got = stream(StreamingMatcher(matcher), chunks)
            assert got == expected, (pattern, data, chunks, cap)


@settings(max_examples=40, deadline=None)
@given(
    rules=st.lists(patterns, min_size=1, max_size=3),
    data=inputs,
    draw=st.data(),
)
def test_multi_match_entry_points_agree(rules, data, draw):
    multi = compile_multipattern(rules)
    vm = MultiMatchVM(multi)
    expected = vm.run_reference(data).matched_ids
    assert vm.run(data).matched_ids == expected, (rules, data)
    candidates = frozenset(
        draw.draw(st.sets(st.sampled_from(sorted(multi.patterns))))
    )
    narrowed = vm.run(data, candidates=candidates).matched_ids
    # Narrowing only moves the early exit: every reported id is real and
    # no candidate that matches is missed.
    assert expected & candidates <= narrowed <= expected
    for chunks in splits(data):
        got = stream(StreamingMultiMatcher(multi, vm=vm), chunks)
        assert got.matched_ids == expected, (rules, data, chunks)
        got = stream(
            StreamingMultiMatcher(multi, vm=vm, candidates=candidates), chunks
        )
        assert got.matched_ids == narrowed, (rules, data, chunks, candidates)


@settings(max_examples=40, deadline=None)
@given(
    rules=st.lists(patterns, min_size=1, max_size=3),
    data=st.one_of(inputs, st.permutations(list(range(256))).map(bytes)),
    cuts=st.lists(st.integers(0, 256), max_size=8),
)
def test_multi_match_over_arbitrary_splits(rules, data, cuts):
    # Any number of pieces, empty ones included; one input holds every
    # byte value once.
    multi = compile_multipattern(rules)
    vm = MultiMatchVM(multi)
    expected = vm.run_reference(data).matched_ids
    assert vm.run(data).matched_ids == expected, (rules, data)
    bounds = [0, *sorted(min(cut, len(data)) for cut in cuts), len(data)]
    chunks = [data[start:end] for start, end in zip(bounds, bounds[1:])]
    got = stream(StreamingMultiMatcher(multi, vm=vm), chunks)
    assert got.matched_ids == expected, (rules, data, chunks)


def _outcome(run):
    """``("over", spent)`` or ``("done", verdict)`` of one budgeted run."""
    try:
        return "done", run()
    except VMStepBudgetError as error:
        return "over", error.spent


def _check_budget_is_split_invariant(
    vm, targets, oneshot_run, matcher_for, data, draw, oneshot_state=None
):
    """One-shot and every split agree on verdict, position and where the
    budget trips; every split charges what ``oneshot_state(budget)`` —
    by default a plain enumeration of ``data`` — charged."""
    unbounded = Enumeration(vm.tables, 10**9, targets)
    unbounded.feed(data)
    unbounded.finish()
    budget = draw.draw(st.integers(0, unbounded.executed))

    expected = _outcome(lambda: oneshot_run(budget))
    if oneshot_state is None:
        oneshot = Enumeration(vm.tables, budget, targets)
        try:
            oneshot.feed(data)
            oneshot.finish()
        except VMStepBudgetError:
            pass
    else:
        oneshot = oneshot_state(budget)
    for chunks in splits(data):
        matcher = matcher_for(budget)
        got = _outcome(lambda: stream(matcher, chunks))
        assert got == expected, (data, chunks, budget)
        assert matcher.state.executed == oneshot.executed
        if got[0] == "over":
            assert matcher.bytes_consumed == oneshot.consumed


def _vm_only(program, vm, budget):
    return LazyDFAMatcher(program, max_states=0, max_vm_steps=budget, vm=vm)


@settings(max_examples=40, deadline=None)
@given(pattern=patterns, data=inputs, draw=st.data())
def test_step_budget_trips_identically_for_every_split(pattern, data, draw):
    program = compile_regex(pattern).program
    vm = ThompsonVM(program)
    _check_budget_is_split_invariant(
        vm, None,
        lambda budget: vm.run(data, max_steps=budget),
        lambda budget: StreamingMatcher(_vm_only(program, vm, budget)),
        data, draw,
    )


def _streamed_state(matcher, data):
    """The enumeration of ``data`` streamed as one chunk."""
    streamer = StreamingMatcher(matcher)
    try:
        stream(streamer, [data])
    except VMStepBudgetError:
        pass
    return streamer.state


@settings(max_examples=40, deadline=None)
@given(pattern=patterns, data=inputs, cap=st.sampled_from([1, 2]), draw=st.data())
def test_dfa_step_budget_trips_identically_one_shot_and_streamed(
    pattern, data, cap, draw
):
    # Caps 1 and 2 blow on most patterns: one-shot and every split hand
    # the kernel the same frontier at the same byte, and charge steps
    # from there.
    program = compile_regex(pattern).program
    vm = ThompsonVM(program)

    def matcher(budget):
        return LazyDFAMatcher(program, max_states=cap, max_vm_steps=budget, vm=vm)

    _check_budget_is_split_invariant(
        vm, None,
        lambda budget: matcher(budget).match(data),
        lambda budget: StreamingMatcher(matcher(budget)),
        data, draw,
        oneshot_state=lambda budget: _streamed_state(matcher(budget), data),
    )


def test_one_shot_charges_the_kernel_from_the_blown_byte():
    # At cap 1 the DFA walks the 80 ``ab`` bytes in its entry state and
    # blows on the ``c``; both ways continue on the kernel there.
    # One-shot used to re-run the kernel from byte 0, charging the 80
    # bytes too, and tripped the budget the stream stays within.
    program = compile_regex("[ab]*c[ab]*d").program
    text = "ab" * 40 + "c" + "ab" * 40
    oneshot = LazyDFAMatcher(program, max_states=1, max_vm_steps=410)
    streamed = StreamingMatcher(
        LazyDFAMatcher(program, max_states=1, max_vm_steps=410)
    )
    assert oneshot.match(text) == MatchResult(False, None)
    assert stream(streamed, [text]) == MatchResult(False, None)
    assert oneshot.blown and streamed.matcher.blown


@settings(max_examples=30, deadline=None)
@given(
    rules=st.lists(patterns, min_size=1, max_size=3),
    data=inputs,
    draw=st.data(),
)
def test_multi_step_budget_trips_identically_for_every_split(rules, data, draw):
    multi = compile_multipattern(rules)
    vm = MultiMatchVM(multi)
    _check_budget_is_split_invariant(
        vm, vm.targets(None),
        lambda budget: vm.run(data, max_steps=budget),
        lambda budget: StreamingMultiMatcher(multi, vm=vm, max_steps=budget),
        data, draw,
    )


SINGLE = compile_regex("(a|b)*c").program
MULTI = compile_multipattern(["(a|b)*c", "a+b"])


def _feed_all(matcher):
    for _ in range(20):
        matcher.feed("ab")
    matcher.finish()


@pytest.mark.parametrize(
    "run, pattern",
    [
        (lambda: ThompsonVM(SINGLE).run("ab" * 20, max_steps=10), "(a|b)*c"),
        (lambda: ThompsonVM(SINGLE).run_reference("ab" * 20, max_steps=10),
         "(a|b)*c"),
        (lambda: MultiMatchVM(MULTI).run("ab" * 20, max_steps=10),
         "(a|b)*c | a+b"),
        (lambda: MultiMatchVM(MULTI).run_reference("ab" * 20, max_steps=10),
         "(a|b)*c | a+b"),
        (lambda: _feed_all(StreamingMatcher(_vm_only(SINGLE, None, 10))),
         "(a|b)*c"),
        (lambda: _feed_all(StreamingMultiMatcher(MULTI, max_steps=10)),
         "(a|b)*c | a+b"),
    ],
    ids=["single", "single-ref", "multi", "multi-ref",
         "streaming-single", "streaming-multi"],
)
def test_step_budget_error_names_its_patterns(run, pattern):
    with pytest.raises(VMStepBudgetError) as excinfo:
        run()
    assert excinfo.value.pattern == pattern
    assert pattern in str(excinfo.value)
