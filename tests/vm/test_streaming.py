"""StreamingMatcher: chunked execution ≡ one-shot, plus lifecycle.

A stream runs through a :class:`LazyDFAMatcher`; ``max_states=0``
gives one that streams on the kernel alone.
"""

import random
import sys
import threading

import pytest

from repro.compiler import compile_regex
from repro.multimatch import MultiMatchVM, compile_multipattern
from repro.observability import MetricsRegistry
from repro.prefilter.lazydfa import (
    _UNBUILT,
    LazyDFA,
    LazyDFABlowup,
    LazyDFAMatcher,
)
from repro.runtime.errors import VMStepBudgetError
from repro.vm import StreamingMatcher, StreamingMultiMatcher, ThompsonVM

PATTERNS = [
    "abc",
    "a(b|c)+d",
    "[a-f]{2,4}g",
    "x.*y",
    "(ab|a)c*d?e",
    "[^x]+z",
]
INPUTS = [
    "",
    "abc",
    "abcd",
    "xaybz",
    "abbbcccd",
    "aaff g",
    "abcde" * 7,
    "zzzzabczzzz",
    "x" + "q" * 30 + "y",
]


def _program(pattern):
    return compile_regex(pattern).program


def _splits(text):
    """A deterministic set of chunkings: whole, per-char, and a few
    uneven cuts."""
    yield [text]
    yield list(text)
    for width in (2, 3, 5):
        yield [text[i:i + width] for i in range(0, len(text), width)]


#: The kernel alone.
VM_ONLY = {"max_states": 0}


def _streamer(program, **kwargs):
    return StreamingMatcher(LazyDFAMatcher(program, **kwargs))


def _feed(matcher, chunks):
    for chunk in chunks:
        verdict = matcher.feed(chunk)
        if verdict is not None:
            return verdict
    return matcher.finish()


def _stream(program, chunks, **kwargs):
    return _feed(_streamer(program, **kwargs), chunks)


@pytest.mark.parametrize("use_dfa", [False, True])
def test_every_split_matches_one_shot(use_dfa):
    kwargs = {} if use_dfa else VM_ONLY
    for pattern in PATTERNS:
        program = _program(pattern)
        vm = ThompsonVM(program)
        for text in INPUTS:
            expected = vm.run_reference(text)
            for chunks in _splits(text):
                got = _stream(program, chunks, **kwargs)
                assert bool(got) == bool(expected), (pattern, text, chunks)
                if expected.matched:
                    assert got.position == expected.position


def test_positions_are_absolute_across_chunks():
    # ACCEPT_PARTIAL fires while processing the position *after* the
    # final matched byte, exactly as in one-shot execution — so the
    # settlement arrives on the next feed, at the one-shot offset.
    program = _program("ab")
    matcher = _streamer(program, **VM_ONLY)
    assert matcher.feed("xxxx") is None
    assert matcher.feed("ab") is None
    verdict = matcher.feed("zz")
    assert verdict is not None and verdict.matched
    assert verdict.position == ThompsonVM(program).run("xxxxabzz").position


def test_early_settle_is_sticky_and_feed_becomes_noop():
    matcher = _streamer(_program("ab"))
    assert matcher.feed("zab") is None
    verdict = matcher.feed("tail")
    assert verdict is not None and matcher.settled
    # Further chunks return the same settled result without running.
    consumed = matcher.bytes_consumed
    again = matcher.feed("anything at all")
    assert again == verdict
    assert matcher.bytes_consumed == consumed
    assert matcher.finish() == verdict


def test_feed_after_finish_raises():
    matcher = _streamer(_program("ab"))
    matcher.finish()
    with pytest.raises(RuntimeError):
        matcher.feed("ab")


def test_empty_chunks_are_free():
    matcher = _streamer(_program("ab"))
    assert matcher.feed("") is None
    assert matcher.feed(b"") is None
    assert matcher.bytes_consumed == 0
    assert matcher.feed("a") is None
    assert matcher.bytes_consumed == 1


def test_bytes_and_str_chunks_mix():
    matcher = _streamer(_program("abc"))
    matcher.feed(b"a")
    verdict = matcher.feed("bc")
    assert verdict is None  # ACCEPT needs end-of-input
    assert matcher.finish().matched


def test_budget_error_matches_one_shot_and_is_sticky():
    program = _program("a*b")
    text = "a" * 50
    with pytest.raises(VMStepBudgetError):
        ThompsonVM(program).run(text, max_steps=20)
    matcher = _streamer(program, max_vm_steps=20, **VM_ONLY)
    with pytest.raises(VMStepBudgetError):
        for chunk in (text[i:i + 7] for i in range(0, len(text), 7)):
            matcher.feed(chunk)
        matcher.finish()
    assert matcher.settled
    with pytest.raises(VMStepBudgetError):
        matcher.feed("more")


def test_budget_charges_identical_steps_per_split():
    """The per-position accounting must not depend on chunk geometry."""
    program = _program("(a|b)*c")
    text = "ababab"
    charged = []
    for chunks in _splits(text):
        matcher = _streamer(program, max_vm_steps=10_000, **VM_ONLY)
        for chunk in chunks:
            matcher.feed(chunk)
        matcher.finish()
        charged.append(matcher.state.executed)
    assert len(set(charged)) == 1


def test_dfa_path_accelerates_and_reports():
    matcher = _streamer(_program("needle"))
    assert matcher.accelerated
    assert matcher.feed("hay " * 100) is None
    assert matcher.feed("needle") is None
    verdict = matcher.feed(" more hay")  # match surfaces one byte later
    assert verdict is not None and verdict.matched
    assert matcher.accelerated and not matcher.matcher.blown


def test_dfa_end_acceptance_at_finish():
    matcher = _streamer(_program("needle"))
    matcher.feed("hay needle")
    assert matcher.finish().matched


def test_dfa_blowup_mid_stream_falls_back_to_vm():
    # max_states=2 cannot hold this pattern's subset states, so the
    # walk blows up mid-chunk and must continue on the VM with no
    # verdict change.
    program = _program("a(b|c)+d")
    for text in INPUTS:
        expected = ThompsonVM(program).run_reference(text)
        matcher = _streamer(program, max_states=2)
        verdict = None
        for chunk in (text[i:i + 3] for i in range(0, len(text), 3)):
            verdict = matcher.feed(chunk)
            if verdict is not None:
                break
        if verdict is None:
            verdict = matcher.finish()
        assert bool(verdict) == bool(expected), text
        assert matcher.accelerated != matcher.matcher.blown


def test_dfa_cap_below_one_starts_on_the_vm():
    # ``max_states <= 0`` always trips: not even the entry state
    # fits, so the matcher starts degraded instead of raising.
    program = _program("ab+c")
    matcher = _streamer(program, **VM_ONLY)
    assert not matcher.accelerated and matcher.matcher.blown
    for text in INPUTS + ["xxabbc"]:
        expected = ThompsonVM(program).run_reference(text)
        for chunks in _splits(text):
            got = _stream(program, chunks, **VM_ONLY)
            assert (got.matched, got.position) == (
                expected.matched, expected.position
            ), (text, chunks)


@pytest.mark.parametrize(
    "pattern", ["abc|xyz|pqr", "needle", "a(b|c)+d", "[^x]+z", "x.*y"]
)
def test_stream_falls_back_iff_one_shot_dfa_blows(pattern):
    # The streaming skip over state-0 self-loop bytes used to intern
    # every state-0 successor before the first byte was walked, so a
    # small cap blew on transitions the input never takes
    # (``abc|xyz|pqr``, cap 3, ``"z" * 100``; ``needle``, cap 1).
    program = _program(pattern)
    for cap in range(5):
        for text in INPUTS + ["z" * 100, "hay needle hay", "xyzpqr"]:
            try:
                LazyDFA(program, max_states=cap).run(text)
                blows = False
            except LazyDFABlowup:
                blows = True
            for chunks in _splits(text):
                matcher = _streamer(program, max_states=cap)
                for chunk in chunks:
                    if matcher.feed(chunk) is not None:
                        break
                assert matcher.matcher.blown == blows, (cap, text, chunks)


def test_shared_vm_reuses_dispatch_tables():
    program = _program("ab+c")
    vm = ThompsonVM(program)
    left = _streamer(program, vm=vm)
    right = _streamer(program, vm=vm)
    # Both streams hold the same DispatchTables object as the shared VM.
    assert left.state.tables is vm.tables
    assert right.state.tables is vm.tables
    left.feed("ab")
    assert right.bytes_consumed == 0  # state is per-stream


def test_streams_share_the_matcher_and_its_dfa():
    shared = LazyDFAMatcher(_program("ab+c"))
    left = StreamingMatcher(shared)
    right = StreamingMatcher(shared)
    # Both streams run on the matcher's DispatchTables and lazy DFA.
    assert left.state.tables is right.state.tables is shared.vm.tables
    left.feed("xxabbb")
    assert right.bytes_consumed == 0  # state is per-stream
    built = shared.dfa.transitions_built
    assert built
    right.feed("xxabbb")
    assert shared.dfa.transitions_built == built  # the first one's rows
    assert left.feed("c!") == right.feed("c!")


def test_a_blowup_moves_every_open_stream_to_the_kernel():
    # One stream blows the shared DFA; another, mid-walk, carries on
    # from its own frontier on the kernel.  No verdict moves.
    program = _program("a(b|c)+d")
    shared = LazyDFAMatcher(program, max_states=3)
    walking = StreamingMatcher(shared)
    assert walking.feed("xxab") is None
    assert walking.accelerated
    blowing = StreamingMatcher(shared)
    blowing.feed("abcbcbcbd")
    assert shared.blown and not walking.accelerated
    assert blowing.finish() == ThompsonVM(program).run("abcbcbcbd")
    assert walking.feed("cbd!") == ThompsonVM(program).run("xxabcbd!")


def assert_one_row_per_mask(dfa):
    """Each interned mask has one row, and every built transition points
    at the row the dict holds for its mask: no state was interned twice."""
    classes = dfa.num_classes
    rows = dfa._rows
    assert all(row[classes] == mask for mask, row in rows.items())
    assert len({id(row) for row in rows.values()}) == len(rows)
    for row in rows.values():
        for successor in row[:classes]:
            if successor:  # a row, not a sentinel
                assert rows[successor[classes]] is successor


def _racing(worker, args_for, threads=8):
    """Run ``worker`` on ``threads`` threads at a 1 µs switch interval."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        running = [
            threading.Thread(target=worker, args=args_for(k)) for k in range(threads)
        ]
        for thread in running:
            thread.start()
        for thread in running:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in running)
    finally:
        sys.setswitchinterval(interval)


def test_threads_share_one_dfa_without_losing_a_state():
    # The service runs streams and one-shot calls of a pattern on
    # executor threads over one matcher.  A state interned by two
    # threads at once must get one row: every transition built to it
    # points at the row the dict holds.  Publishing with a plain store
    # instead of ``dict.setdefault`` leaves orphan rows in most runs.
    program = _program("(a|b)*a(a|b){9}c")
    vm = ThompsonVM(program)
    wrong = []

    def worker(shared, seed):
        rng = random.Random(seed)
        for round_ in range(4):
            text = "".join(rng.choice("ab") for _ in range(150)) + "c"
            if round_ % 2:
                got = shared.match(text)
            else:
                chunks = [text[i:i + 7] for i in range(0, len(text), 7)]
                got = _feed(StreamingMatcher(shared), chunks)
            if got != vm.run(text):
                wrong.append(text)

    for trial in range(60):
        shared = LazyDFAMatcher(program, max_states=None, vm=vm)
        _racing(worker, lambda k: (shared, trial * 10 + k))
        assert_one_row_per_mask(shared.dfa)
    assert not wrong


def test_threads_sharing_one_dfa_count_each_transition_once():
    # The service's executor threads share a matcher and its metrics.
    # The DFA's build count and the published counter both move under
    # the DFA's counting lock, once per call; without it a thread switch
    # between reading and writing either one repeats or loses a delta
    # (in about half of these trials, at this switch interval).
    program = _program("(a|b)*a[ab]{6}c")
    vm = ThompsonVM(program)

    def worker(shared, seed, start):
        rng = random.Random(seed)
        start.wait()
        for _ in range(40):
            shared.match("".join(rng.choice("ab") for _ in range(10)) + "c")

    for trial in range(100):
        registry = MetricsRegistry()
        shared = LazyDFAMatcher(
            program, max_states=None, vm=vm, metrics=registry
        )
        start = threading.Barrier(4)
        _racing(worker, lambda k: (shared, trial * 10 + k, start), threads=4)
        # Two threads may build one transition at once, so the
        # count may pass the number of built cells but never fall
        # short of it.
        dfa = shared.dfa
        classes = dfa.num_classes
        unbuilt = sum(row[:classes].count(_UNBUILT) for row in dfa._rows.values())
        cells = dfa.state_count * classes - unbuilt
        published = registry.value("repro_lazydfa_transitions_total")
        assert published == dfa.transitions_built >= cells, trial


def test_threads_racing_to_the_cap_never_pass_it():
    # Interning takes no lock: a new row takes a ticket before it is
    # published, so threads that race for the last places can burn
    # tickets (and trip the cap early) but never intern past the cap.
    # Checking the dict's size instead of taking a ticket lets two
    # threads both see room for one more state and both insert.  A
    # profile hook runs Python code around every C call, so a thread
    # can be switched out between any two calls of the miss path (as
    # on an interpreter that switches more often than CPython 3.11).
    program = _program("(a|b)*a(a|b){9}c")
    vm = ThompsonVM(program)
    cap = 100
    wrong = []

    def worker(shared, seed, start):
        rng = random.Random(seed)
        texts = [
            "".join(rng.choice("ab") for _ in range(100)) + "c" for _ in range(3)
        ]
        start.wait()
        sys.setprofile(lambda frame, event, arg: None)
        try:
            got = [shared.match(text) for text in texts]
        finally:
            sys.setprofile(None)
        wrong.extend(
            text for text, verdict in zip(texts, got) if verdict != vm.run(text)
        )

    for trial in range(100):
        shared = LazyDFAMatcher(program, max_states=cap, vm=vm)
        start = threading.Barrier(8)
        _racing(worker, lambda k: (shared, trial * 10 + k, start))
        assert shared.blown, trial
        assert shared.dfa.state_count <= cap, trial
        assert_one_row_per_mask(shared.dfa)
    assert not wrong


# ----------------------------------------------------------------------
# StreamingMultiMatcher
# ----------------------------------------------------------------------
MULTI_SETS = [
    ["abc", "ab+d", "xyz"],
    ["a", "aa", "aaa"],
    ["cat|dog", "do.", "[a-c]+t"],
]


def _multi_stream(multi, chunks, **kwargs):
    matcher = StreamingMultiMatcher(multi, **kwargs)
    for chunk in chunks:
        result = matcher.feed(chunk)
        if result is not None:
            return result
    return matcher.finish()


def test_multi_matches_one_shot_for_every_split():
    for patterns in MULTI_SETS:
        multi = compile_multipattern(patterns)
        vm = MultiMatchVM(multi)
        for text in INPUTS + ["catdogcat", "aaab"]:
            expected = vm.run_reference(text).matched_ids
            for chunks in _splits(text):
                got = _multi_stream(multi, chunks)
                assert got.matched_ids == expected, (patterns, text, chunks)


def test_multi_settles_early_once_all_targets_match():
    multi = compile_multipattern(["a", "b"])
    matcher = StreamingMultiMatcher(multi)
    result = matcher.feed("ab" + "z" * 100)
    assert result is not None and matcher.settled
    assert result.matched_ids == frozenset({1, 2})
    # The tail after settlement was never walked.
    assert matcher.bytes_consumed < 102


def test_multi_candidates_narrow_targets():
    multi = compile_multipattern(["a", "b", "c"])
    expected = MultiMatchVM(multi).run("abc", candidates=frozenset({2})
                                      ).matched_ids
    got = _multi_stream(multi, ["a", "bc"], candidates=frozenset({2}))
    assert got.matched_ids == expected


def test_multi_budget_error_is_sticky():
    multi = compile_multipattern(["(a|b)*c", "a+b"])
    matcher = StreamingMultiMatcher(multi, max_steps=10)
    with pytest.raises(VMStepBudgetError):
        for _ in range(50):
            matcher.feed("ab")
    with pytest.raises(VMStepBudgetError):
        matcher.finish()
