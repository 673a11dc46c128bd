"""A blown lazy DFA splits into one DFA per branch of the root alternation.

The product DFA of an alternation interns combinations of its branches'
states; once it blows ``max_states``, :class:`LazyDFAMatcher` releases
its rows and continues at the blown byte on one DFA per branch
(:func:`branch_components`), all drawing from the same budget, and goes
to the kernel only when those blow it too.  Nothing of that may show in
a verdict, a position, where a step budget trips, or the number of live
rows.
"""

import random
import re
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_regex
from repro.observability import MetricsRegistry
from repro.prefilter import PrefilteredMatcher
from repro.prefilter.lazydfa import LazyDFA, LazyDFABlowup, LazyDFAMatcher, branch_components
from repro.runtime.errors import VMStepBudgetError
from repro.vm import MatchResult, StreamingMatcher, ThompsonVM
from repro.vm.kernel import mask_pcs
from strategies import concatenations

#: Two branches whose product outgrows a cap of 7 or 8 rows, with a
#: text whose product DFA blows at byte 12 (cap 7) or 13 (cap 8).
GAPPED = "a..b|c..d"
TEXT = "aaccaaccaacc" + "z" * 20 + "cxxd"


def _stream(matcher, chunks):
    streamer = StreamingMatcher(matcher)
    for chunk in chunks:
        verdict = streamer.feed(chunk)
        if verdict is not None:
            return verdict, streamer
    return streamer.finish(), streamer


def _two_way_splits(text):
    return [[text[:cut], text[cut:]] for cut in range(len(text) + 1)]


def _earliest_end(pattern, text):
    """Where a search for ``pattern`` fires: the first end of a match."""
    gold = re.compile(pattern)
    for end in range(len(text) + 1):
        if gold.search(text, 0, end):
            return end
    return None


# ----------------------------------------------------------------------
# The components
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "pattern, branches",
    [
        ("abc|xyz|pqr", 3),
        ("^(abc|xyz)", 2),  # no search prefix
        ("^x*(ab|cd)", 2),  # the prefix is the x* loop
        (GAPPED, 2),
        ("a(b|c)+d", 0),  # no root alternation
        ("(ab|cd)e", 0),  # the branches join again
    ],
)
def test_components_are_the_root_branches(pattern, branches):
    tables = ThompsonVM(compile_regex(pattern).program).tables
    keeps = branch_components(tables)
    assert len(keeps) == branches
    if not keeps:
        return
    prefix = keeps[0]
    for keep in keeps:
        prefix &= keep
    for keep in keeps:
        # Closed: a component's PCs step only into the component.
        for pc in mask_pcs(keep & ~prefix):
            assert tables.successors[pc] & ~(keep & ~prefix) == 0, (pattern, pc)
    # Together they cover every PC the entry reaches.
    union = 0
    for keep in keeps:
        union |= keep
    assert tables.entry & ~union == 0


# ----------------------------------------------------------------------
# Exact hand-offs
# ----------------------------------------------------------------------
def test_the_split_continues_at_the_blown_byte_and_charges_the_kernel_nothing():
    # At cap 8 the product DFA blows on byte 13; the two branch DFAs
    # walk the rest within the cap.  A step budget of 0 trips on any
    # kernel step, so none is taken, one-shot or streamed.
    program = compile_regex(GAPPED).program
    with pytest.raises(LazyDFABlowup) as blowup:
        LazyDFA(program, max_states=8).run(TEXT)
    assert blowup.value.offset == 13
    expected = MatchResult(True, 36)
    assert ThompsonVM(program).run_reference(TEXT) == expected
    oneshot = LazyDFAMatcher(program, max_states=8, max_vm_steps=0)
    assert oneshot.match(TEXT) == expected
    assert oneshot.blown and len(oneshot.split) == 2 and not oneshot.on_kernel
    assert oneshot.dfa.state_count == 0  # the product's rows are released
    assert oneshot.state_count <= 8
    for chunks in _two_way_splits(TEXT):
        matcher = LazyDFAMatcher(program, max_states=8, max_vm_steps=0)
        got, streamer = _stream(matcher, chunks)
        assert got == expected, chunks
        assert streamer.accelerated and streamer.state.executed == 0


def test_the_split_blows_at_one_byte_for_every_chunking():
    # At cap 7 the product blows on byte 12 and the branch DFAs on the
    # ``c`` at byte 33; the kernel takes over there and executes 12
    # steps to the match, whichever way the stream is cut.  A budget
    # of 11 trips at the same place everywhere.
    program = compile_regex(GAPPED).program
    expected = MatchResult(True, 36)
    oneshot = LazyDFAMatcher(program, max_states=7, max_vm_steps=12)
    assert oneshot.match(TEXT) == expected
    assert oneshot.on_kernel and oneshot.split is not None
    with pytest.raises(VMStepBudgetError):
        LazyDFAMatcher(program, max_states=7, max_vm_steps=11).match(TEXT)
    for chunks in _two_way_splits(TEXT):
        got, streamer = _stream(LazyDFAMatcher(program, max_states=7, max_vm_steps=12), chunks)
        assert got == expected, chunks
        assert streamer.state.executed == 12, chunks
        assert not streamer.accelerated
        with pytest.raises(VMStepBudgetError):
            _stream(LazyDFAMatcher(program, max_states=7, max_vm_steps=11), chunks)


def test_a_walk_past_the_earliest_match_does_not_blow_the_split():
    # Branch by branch, the ``a..b`` DFA walks the whole tail after the
    # ``z`` and runs out of tickets there, but the ``z`` branch fires at
    # byte 16 first: the lockstep walk that settles such a run needs no
    # row past the cap, so the match stands and the split stays.  Every
    # chunking agrees, and no kernel step is taken.
    program = compile_regex("a..b|c..d|z").program
    text = "aaccaaccaaccqqq" + "z" + "acaacaaaccaccca" * 3
    expected = MatchResult(True, 16)
    assert ThompsonVM(program).run_reference(text) == expected
    oneshot = LazyDFAMatcher(program, max_states=8, max_vm_steps=0)
    assert oneshot.match(text) == expected
    assert oneshot.state_count == 8 and not oneshot.on_kernel
    for chunks in _two_way_splits(text):
        got, streamer = _stream(
            LazyDFAMatcher(program, max_states=8, max_vm_steps=0), chunks
        )
        assert got == expected and streamer.accelerated, chunks


def test_a_one_shot_walk_past_the_match_leaves_less_room_for_the_next_call():
    # The walk above is one-shot: the ``a..b`` DFA walked on past byte 16
    # and took the last of the 8 tickets.  A stream cut just after the
    # match interns 7 rows.  So the next call that needs a new row sends
    # the one-shot matcher to the kernel for good, while the streamed
    # one stays on its branch DFAs.  What a call leaves interned depends
    # on how it was cut; the verdicts never do.
    program = compile_regex("a..b|c..d|z").program
    text = "aaccaaccaaccqqq" + "z" + "acaacaaaccaccca" * 3
    oneshot = LazyDFAMatcher(program, max_states=8)
    assert oneshot.match(text) == MatchResult(True, 16)
    streamed = LazyDFAMatcher(program, max_states=8)
    assert _stream(streamed, [text[:17], text[17:]])[0] == MatchResult(True, 16)
    assert (oneshot.state_count, streamed.state_count) == (8, 7)
    assert oneshot.match("c") == streamed.match("c") == MatchResult(False, None)
    assert oneshot.on_kernel and not streamed.on_kernel
    assert streamed.state_count == 8


@pytest.mark.parametrize(
    "pattern, cap, text, kernel",
    [
        (GAPPED, None, TEXT, False),  # the product walks it all
        (GAPPED, 8, TEXT, False),  # the branch DFAs take over at byte 13
        (GAPPED, 7, TEXT, True),  # ... and the kernel at byte 33
        ("a(b|c)+d", 3, "xabcbcbcd", True),  # no split: straight to the kernel
    ],
)
def test_one_shot_is_a_stream_of_one_chunk(pattern, cap, text, kernel):
    # ``match`` walks the tiers as a one-chunk stream does: the same
    # verdict, the same tier reached, and the same kernel steps charged,
    # counted once as a lazy-DFA run or as a VM run.
    program = compile_regex(pattern).program
    registry = MetricsRegistry()
    oneshot = LazyDFAMatcher(program, max_states=cap, max_vm_steps=10**9, metrics=registry)
    streamed = LazyDFAMatcher(
        program, max_states=cap, max_vm_steps=10**9, metrics=MetricsRegistry()
    )
    got = oneshot.match(text)
    assert got == ThompsonVM(program).run_reference(text)
    streamed_got, streamer = _stream(streamed, [text])
    assert streamed_got == got
    assert oneshot.on_kernel == streamed.on_kernel == kernel
    assert registry.value("repro_vm_steps_total") == streamer.state.executed
    assert (streamer.state.executed > 0) == kernel
    runs = registry.value("repro_lazydfa_runs_total"), registry.value("repro_vm_runs_total")
    assert runs == ((0, 1) if kernel else (1, 0))


def test_unsplittable_programs_fall_back_as_before():
    program = compile_regex("a(b|c)+d").program
    registry = MetricsRegistry()
    matcher = LazyDFAMatcher(program, max_states=3, metrics=registry)
    assert matcher.match("xabcbcbcd") == MatchResult(True, 9)
    assert matcher.on_kernel and matcher.split is None
    assert matcher.dfa.state_count == 3  # kept, as before
    assert registry.value("repro_lazydfa_fallback_total") == 1
    assert registry.value("repro_lazydfa_split_total") == 0


def test_the_split_is_metered_and_planned():
    registry = MetricsRegistry()
    matcher = PrefilteredMatcher(
        compile_regex(GAPPED).program, max_dfa_states=8, metrics=registry
    )
    assert matcher.plan["stages"][-1] == "lazy-dfa"
    assert matcher.match(TEXT) == MatchResult(True, 36)
    assert matcher.plan["stages"][-1] == "lazy-dfa×2"
    assert registry.value("repro_lazydfa_split_total") == 1
    assert registry.value("repro_lazydfa_fallback_total") == 0
    dfa_matcher = matcher.dfa_matcher
    assert registry.value("repro_lazydfa_states") == dfa_matcher.state_count
    assert registry.value("repro_lazydfa_transitions_total") == sum(
        dfa.transitions_built for dfa in (dfa_matcher.dfa, *dfa_matcher.split)
    )
    assert registry.value("repro_lazydfa_runs_total") == 1
    # Fed the split's own bytes the branch DFAs blow, and the kernel,
    # metered from its own step count, takes over for good.
    assert matcher.match("aaccaaccaacczzcd") == MatchResult(False, None)
    matcher.match("acbdabcdacac" * 3)
    assert dfa_matcher.on_kernel
    assert matcher.plan["stages"][-1] == "vm"
    assert registry.value("repro_lazydfa_fallback_total") == 1
    assert registry.value("repro_vm_runs_total") >= 1
    assert registry.value("repro_vm_steps_total") > 0
    assert registry.value("repro_vm_closure_hits_total") == 0


# ----------------------------------------------------------------------
# The property
# ----------------------------------------------------------------------
#: A bounded gap between two bytes: the motif whose alternations blow up.
gapped = st.builds(
    lambda first, low, span, last: f"{first}.{{{low},{low + span}}}{last}",
    st.sampled_from("abcdef"), st.integers(0, 2), st.integers(0, 2),
    st.sampled_from("abcdef"),
)
alternations = st.lists(
    st.one_of(gapped, concatenations(1)), min_size=2, max_size=4
).map("|".join)
texts = st.text(alphabet="abcdefghijkl", max_size=120)


@settings(max_examples=150, deadline=None)
@given(
    pattern=alternations,
    text=texts,
    after=texts,
    cap=st.sampled_from([1, 2, 8, 64]),
    cuts=st.lists(st.integers(0, 120), max_size=4),
)
def test_one_shot_streamed_kernel_and_re_agree(pattern, text, after, cap, cuts):
    program = compile_regex(pattern).program
    vm = ThompsonVM(program)
    kernel = LazyDFAMatcher(program, max_states=0, vm=vm)
    bounds = [0, *sorted(min(cut, len(text)) for cut in cuts), len(text)]
    chunks = [text[start:end] for start, end in zip(bounds, bounds[1:])]
    oneshot = LazyDFAMatcher(program, max_states=cap, vm=vm)
    streamed = LazyDFAMatcher(program, max_states=cap, vm=vm)
    # The second text runs on whatever the first left: the product, the
    # branch DFAs from their entries, or the kernel.
    for data in (text, after):
        end = _earliest_end(pattern, data)
        expected = MatchResult(end is not None, end)
        assert kernel.match(data) == expected, (pattern, data)
        assert oneshot.match(data) == expected, (pattern, data, cap)
        assert oneshot.state_count <= cap
        got, _streamer = _stream(streamed, chunks if data is text else [data])
        assert got == expected, (pattern, data, cap, chunks)
        assert streamed.state_count <= cap


@settings(max_examples=60, deadline=None)
@given(
    pattern=alternations,
    text=texts,
    cap=st.sampled_from([2, 8, 64]),
    budget=st.integers(0, 200),
    cut=st.integers(0, 120),
)
def test_budgets_trip_where_one_shot_trips(pattern, text, cap, budget, cut):
    # Where the branch DFAs blow, and so what the kernel is charged,
    # does not depend on how the stream is cut.
    program = compile_regex(pattern).program
    vm = ThompsonVM(program)

    def outcome(chunks):
        matcher = LazyDFAMatcher(program, max_states=cap, max_vm_steps=budget, vm=vm)
        try:
            got, streamer = _stream(matcher, chunks)
        except VMStepBudgetError as error:
            return "over", error.spent
        return got, streamer.state.executed

    whole = outcome([text])
    try:
        oneshot = LazyDFAMatcher(
            program, max_states=cap, max_vm_steps=budget, vm=vm
        ).match(text)
    except VMStepBudgetError as error:
        assert whole == ("over", error.spent)
    else:
        assert whole[0] == oneshot
    assert outcome([text[:cut], text[cut:]]) == whole
    assert outcome([text[i:i + 1] for i in range(len(text))]) == whole


# ----------------------------------------------------------------------
# Threads
# ----------------------------------------------------------------------
def test_threads_racing_to_blow_split_once_and_fall_back_once():
    # Threads blow the product DFA at once: one split is published,
    # under the lock the fallback takes.  Then they blow the branches'
    # shared budget at once: one fallback is metered.  Two threads is
    # the race; four also outnumber the cores of a small box.
    program = compile_regex(GAPPED).program
    vm = ThompsonVM(program)
    wrong = []

    def worker(shared, seed, start):
        rng = random.Random(seed)
        texts = ["".join(rng.choice("abcdz") for _ in range(40)) for _ in range(12)]
        start.wait()
        for index, text in enumerate(texts):
            if index % 2:  # a stream, cut at random places
                cuts = sorted(rng.sample(range(len(text) + 1), 3))
                chunks = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
                got = _stream(shared, chunks)[0]
            else:
                got = shared.match(text)
            if got != vm.run(text):
                wrong.append(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(40):
            count = 2 if trial % 2 else 4
            registry = MetricsRegistry()
            shared = LazyDFAMatcher(program, max_states=7, vm=vm, metrics=registry)
            start = threading.Barrier(count)
            threads = [
                threading.Thread(target=worker, args=(shared, trial * 10 + k, start))
                for k in range(count)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert shared.on_kernel and len(shared.split) == 2, trial
            assert registry.value("repro_lazydfa_split_total") == 1, trial
            assert registry.value("repro_lazydfa_fallback_total") == 1, trial
            assert shared.state_count <= 7, trial
    finally:
        sys.setswitchinterval(interval)
    assert not wrong


def test_a_stream_fed_while_another_thread_splits_waits_for_the_split():
    # One thread blows the product DFA; its split releases the product's
    # rows and, slowed down here, publishes the branch DFAs only later.
    # A stream fed meanwhile finds its row gone: it must wait for the
    # split and walk on the branch DFAs, never on the kernel (a step
    # budget of 0 trips on any kernel step), or it would be charged
    # what one-shot ``match`` is not.
    program = compile_regex(GAPPED).program
    shared = LazyDFAMatcher(program, max_states=8, max_vm_steps=0)
    release = shared.dfa.release
    released = threading.Event()

    def slow_release():
        release()
        released.set()
        time.sleep(0.05)

    shared.dfa.release = slow_release
    streamer = StreamingMatcher(shared)
    assert streamer.feed("z") is None  # the stream sits on a product row
    splitter = threading.Thread(target=lambda: shared.match(TEXT))
    splitter.start()
    assert released.wait(timeout=60)
    assert not shared.blown  # the split is not published yet
    errors = []
    try:
        streamer.feed("zz")
    except VMStepBudgetError as error:
        errors.append(error)
    splitter.join(timeout=60)
    assert not errors and not splitter.is_alive()
    assert shared.split is not None and not shared.on_kernel
    streamer.feed("cxxd")
    assert streamer.finish() == MatchResult(True, 7)
    assert streamer.state.executed == 0
