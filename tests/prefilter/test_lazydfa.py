"""Lazy-DFA equivalence with the VM, bounded-blowup degradation."""

import random
import zlib

import pytest

from repro.compiler import CompileOptions, compile_regex
from repro.observability import MetricsRegistry
from repro.prefilter.lazydfa import (
    DEFAULT_MAX_DFA_STATES,
    LazyDFA,
    LazyDFABlowup,
    LazyDFAMatcher,
)
from repro.vm.thompson import ThompsonVM

#: Exponential-determinization family: (a|aa){1,n}b needs a state per
#: reachable repetition-count subset.
PATHOLOGICAL = "(a|aa){1,14}b"


def _pathological_program():
    # The boundary-quantifier pass legitimately collapses {1,14} under
    # unanchored search semantics; keep the unrolled repetition so the
    # subset construction actually explodes.
    return compile_regex(PATHOLOGICAL, CompileOptions.none()).program


def _random_inputs(seed, count=60, alphabet="abcxy", max_len=24):
    rng = random.Random(seed)
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
        for _ in range(count)
    ]


class TestEquivalence:
    def test_verdict_and_position_match_vm(self, corpus_pattern):
        program = compile_regex(corpus_pattern).program
        vm = ThompsonVM(program)
        dfa = LazyDFA(program, vm=vm)
        for text in _random_inputs(seed=zlib.crc32(corpus_pattern.encode())):
            expected = vm.run(text)
            got = dfa.run(text)
            assert got.matched == expected.matched, (corpus_pattern, text)
            assert got.position == expected.position, (corpus_pattern, text)

    def test_cache_is_reused_across_runs(self):
        program = compile_regex("a[bc]+d").program
        dfa = LazyDFA(program)
        first = dfa.run("xxabcdyy")
        states_after_first = dfa.state_count
        second = dfa.run("xxabcdyy")
        assert first == second
        assert dfa.state_count == states_after_first

    def test_byte_classes_cover_all_bytes(self):
        program = compile_regex("ab").program
        dfa = LazyDFA(program)
        assert len(dfa._tables.class_table) == 256
        assert dfa.num_classes == 3  # 'a', 'b', residual


class TestBlowup:
    def test_small_budget_raises_blowup(self):
        program = _pathological_program()
        dfa = LazyDFA(program, max_states=4)
        with pytest.raises(LazyDFABlowup) as excinfo:
            dfa.run("a" * 40)
        assert excinfo.value.max_states == 4
        assert PATHOLOGICAL in str(excinfo.value)

    def test_unbounded_budget_never_raises(self):
        # Budget.unlimited() maps to max_states=None: no cap at all.
        program = _pathological_program()
        dfa = LazyDFA(program, max_states=None)
        vm = ThompsonVM(program)
        text = "a" * 30 + "b"
        assert dfa.run(text) == vm.run(text)
        assert dfa.state_count > 4  # well past the bounded tests' cap
        assert DEFAULT_MAX_DFA_STATES > dfa.state_count  # sane default

    def test_blowup_is_a_plain_exception(self):
        # Never a ReproError: it must not escape to users as a typed
        # failure — matchers catch it and fall back.
        from repro.runtime.errors import ReproError

        assert not issubclass(LazyDFABlowup, ReproError)


class TestMatcherFallback:
    def test_blowup_degrades_to_vm_with_metric(self):
        registry = MetricsRegistry()
        program = _pathological_program()
        matcher = LazyDFAMatcher(program, max_states=4, metrics=registry)
        vm = ThompsonVM(program)
        for text in ["a" * 40, "a" * 13 + "b", "bbb", "aab"]:
            assert matcher.match(text) == vm.run(text), text
        assert matcher.blown
        assert registry.value("repro_lazydfa_fallback_total") == 1
        # Fallback runs are excluded from the DFA run counter.
        assert registry.value("repro_lazydfa_runs_total") == 0

    def test_fallback_is_permanent(self):
        program = _pathological_program()
        matcher = LazyDFAMatcher(program, max_states=4)
        matcher.match("a" * 40)
        assert matcher.blown
        # Even trivially-rejectable inputs now go through the VM.
        assert not matcher.match("zzz").matched
        assert matcher.blown

    @pytest.mark.parametrize("max_states", [0, -1])
    def test_cap_below_one_starts_blown(self, max_states):
        # budget.py: ``<= 0`` always trips.  The entry state already
        # exceeds the cap, so the matcher is born in VM mode — one
        # fallback, VM verdicts, nothing raised.
        registry = MetricsRegistry()
        program = compile_regex("ab+c").program
        matcher = LazyDFAMatcher(program, max_states=max_states, metrics=registry)
        assert matcher.blown
        assert matcher.dfa.state_count == 0
        vm = ThompsonVM(program)
        for text in ["xxabbc", "abc", "ab", ""]:
            assert matcher.match(text) == vm.run(text), text
        assert registry.value("repro_lazydfa_fallback_total") == 1
        assert registry.value("repro_lazydfa_runs_total") == 0
        assert registry.value("repro_lazydfa_states") == 0
        with pytest.raises(LazyDFABlowup):
            matcher.dfa.run("abc")

    def test_states_gauge_follows_the_dfa_into_the_fallback(self):
        registry = MetricsRegistry()
        matcher = LazyDFAMatcher(
            _pathological_program(), max_states=4, metrics=registry
        )
        matcher.match("b")  # a good run: far fewer than 4 states
        assert registry.value("repro_lazydfa_states") == matcher.dfa.state_count < 4
        built = matcher.dfa.transitions_built
        assert registry.value("repro_lazydfa_transitions_total") == built > 0
        matcher.match("a" * 40)
        assert matcher.blown
        assert registry.value("repro_lazydfa_states") == matcher.dfa.state_count == 4
        # The run that blew up built transitions too; they are published.
        assert matcher.dfa.transitions_built > built
        assert (
            registry.value("repro_lazydfa_transitions_total")
            == matcher.dfa.transitions_built
        )

    def test_healthy_pattern_counts_runs_and_states(self):
        registry = MetricsRegistry()
        program = compile_regex("abc").program
        matcher = LazyDFAMatcher(program, metrics=registry)
        assert matcher.match("xxabcyy").matched
        assert not matcher.match("nothing").matched
        assert registry.value("repro_lazydfa_runs_total") == 2
        assert registry.value("repro_lazydfa_fallback_total") == 0
        assert registry.value("repro_lazydfa_states") >= 1
