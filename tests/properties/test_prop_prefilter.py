"""Properties the prefilter stack must never violate.

1. **Analysis soundness** — the chunk filter is a necessary condition:
   any input the VM matches must survive the filter (the filter may
   pass non-matching inputs; it must never reject matching ones).
2. **Lazy-DFA equivalence** — DFA verdicts and positions equal the
   golden-reference interpreter, including when a tiny state budget
   forces mid-scan fallback through :class:`LazyDFAMatcher`.
3. **Facade equivalence** — the full prefilter+verify pipeline is a
   drop-in for the bare VM on every path it takes (lazy-DFA verify,
   VM verify under a zero state cap, VM alone without an analysis).
"""

from hypothesis import given, settings

from repro.compiler import compile_regex
from repro.prefilter.analysis import INERT_ANALYSIS, analyze_pattern
from repro.prefilter.lazydfa import LazyDFA, LazyDFABlowup, LazyDFAMatcher
from repro.prefilter.scanner import PrefilteredMatcher, build_chunk_filter
from repro.vm.thompson import ThompsonVM
from strategies import inputs, regex_patterns


@settings(max_examples=80, deadline=None)
@given(pattern=regex_patterns(), text=inputs())
def test_chunk_filter_never_rejects_a_matching_input(pattern, text):
    program = compile_regex(pattern).program
    if not ThompsonVM(program).run(text):
        return
    chunk_filter = build_chunk_filter(analyze_pattern(pattern))
    if chunk_filter is not None:
        assert chunk_filter(text.encode()), (pattern, text)


@settings(max_examples=80, deadline=None)
@given(pattern=regex_patterns(), text=inputs())
def test_lazy_dfa_equals_reference_interpreter(pattern, text):
    program = compile_regex(pattern).program
    vm = ThompsonVM(program)
    expected = vm.run_reference(text)
    got = LazyDFA(program, vm=vm).run(text)
    assert got.matched == expected.matched, (pattern, text)
    assert got.position == expected.position, (pattern, text)


@settings(max_examples=60, deadline=None)
@given(pattern=regex_patterns(), text=inputs())
def test_starved_lazy_dfa_still_agrees_via_fallback(pattern, text):
    # max_states=2 blows up on almost everything; the matcher must
    # degrade to the VM without ever changing a verdict.
    program = compile_regex(pattern).program
    vm = ThompsonVM(program)
    matcher = LazyDFAMatcher(program, max_states=2, vm=vm)
    expected = vm.run_reference(text)
    got = matcher.match(text)
    assert got.matched == expected.matched, (pattern, text)
    assert got.position == expected.position, (pattern, text)


@settings(max_examples=60, deadline=None)
@given(pattern=regex_patterns(), text=inputs())
def test_bare_dfa_blowup_is_the_only_escape(pattern, text):
    # The raw LazyDFA may abstain by raising, never by lying.
    program = compile_regex(pattern).program
    vm = ThompsonVM(program)
    try:
        got = LazyDFA(program, max_states=3, vm=vm).run(text)
    except LazyDFABlowup:
        return
    expected = vm.run_reference(text)
    assert got.matched == expected.matched, (pattern, text)
    assert got.position == expected.position, (pattern, text)


@settings(max_examples=60, deadline=None)
@given(pattern=regex_patterns(), text=inputs())
def test_prefiltered_matcher_is_a_drop_in_for_the_vm(pattern, text):
    program = compile_regex(pattern).program
    vm = ThompsonVM(program)
    expected = vm.run(text)
    for path in (
        {},
        {"max_dfa_states": 0},
        {"analysis": INERT_ANALYSIS, "max_dfa_states": 0},
    ):
        got = PrefilteredMatcher(program, **path).match(text)
        assert got.matched == expected.matched, (pattern, text, path)
        assert got.position == expected.position, (pattern, text, path)
