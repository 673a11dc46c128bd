"""Chunk filters and the PrefilteredMatcher facade."""

import random

import pytest

from repro.compiler import compile_regex
from repro.observability import MetricsRegistry
from repro.prefilter.analysis import INERT_ANALYSIS, analyze_pattern
from repro.prefilter.lazydfa import byte_class_pattern
from repro.prefilter.scanner import PrefilteredMatcher, build_chunk_filter
from repro.vm.thompson import ThompsonVM

#: The paths one PrefilteredMatcher takes, keyed by the names of the
#: prefilter modes that used to select them: ``auto`` filters and
#: verifies on the lazy DFA, ``literal`` (a state cap the entry state
#: cannot fit) filters and verifies on the VM, ``off`` (no usable
#: analysis under that cap) is the VM alone.
PATHS = {
    "auto": {},
    "literal": {"max_dfa_states": 0},
    "off": {"analysis": INERT_ANALYSIS, "max_dfa_states": 0},
}


def plan_of(pattern, **path):
    return PrefilteredMatcher(compile_regex(pattern).program, **path).plan


class TestBuildChunkFilter:
    def test_inert_analysis_yields_no_filter(self):
        assert build_chunk_filter(INERT_ANALYSIS) is None
        assert build_chunk_filter(analyze_pattern("(a|b)*")) is None

    def test_single_literal_filter(self):
        accept = build_chunk_filter(analyze_pattern("abc"))
        assert accept(b"xxabcxx")
        assert not accept(b"xxabxcx")

    def test_multi_literal_filter_needs_any_branch(self):
        accept = build_chunk_filter(analyze_pattern("foo|bar"))
        assert accept(b"a foo b")
        assert accept(b"a bar b")
        assert not accept(b"a baz b")

    def test_first_byte_filter(self):
        accept = build_chunk_filter(analyze_pattern("[ab][cd]"))
        assert accept(b"xxaxx")  # 'a' present: maybe
        assert not accept(b"xxyzz")  # no possible first byte

    def test_anchored_prefix_filter(self):
        accept = build_chunk_filter(analyze_pattern("^GET /admin"))
        assert accept(b"GET /admin HTTP/1.1")
        # The literal occurs but not at the start: anchoring rejects.
        assert not accept(b"POST GET /admin")


class TestByteClassPattern:
    def test_escapes_metacharacters(self):
        pattern = byte_class_pattern([ord("]"), ord("^"), ord("-"), ord("a")])
        for byte in (b"]", b"^", b"-", b"a"):
            assert pattern.search(byte)
        assert not pattern.search(b"b")


class TestDescribePlan:
    """``PrefilteredMatcher.plan`` names the stages that run."""

    def test_literal_auto_plan(self):
        plan = plan_of("abc")
        assert plan["stages"][-1] == "lazy-dfa"
        assert any(s.startswith("literal") for s in plan["stages"])
        assert plan["inert"] is False

    def test_off_mode_is_vm_only(self):
        assert plan_of("abc", **PATHS["off"])["stages"] == ["vm"]

    def test_inert_auto_still_gets_lazy_dfa(self):
        plan = plan_of("(a|b)*")
        assert plan["stages"] == ["lazy-dfa"]
        assert plan["inert"] is True
        assert plan["inert_reason"]


class TestPrefilteredMatcher:
    @pytest.mark.parametrize("mode", PATHS)
    def test_verdicts_equal_bare_vm(self, corpus_pattern, mode):
        program = compile_regex(corpus_pattern).program
        vm = ThompsonVM(program)
        matcher = PrefilteredMatcher(program, **PATHS[mode])
        rng = random.Random(hash((corpus_pattern, mode)) & 0xFFFF)
        for _ in range(40):
            text = "".join(
                rng.choice("abcdxy ") for _ in range(rng.randint(0, 20))
            )
            expected = vm.run(text)
            got = matcher.match(text)
            assert got.matched == expected.matched, (corpus_pattern, text)
            assert got.position == expected.position, (corpus_pattern, text)

    def test_uses_program_attached_analysis(self):
        program = compile_regex("needle").program
        assert program.analysis is not None
        matcher = PrefilteredMatcher(program)
        assert matcher.analysis is program.analysis
        assert matcher.plan["stages"][0] == "literal(1)"

    def test_counters_track_skips_and_candidates(self):
        registry = MetricsRegistry()
        program = compile_regex("ab$").program  # literal 'ab', end-anchored
        matcher = PrefilteredMatcher(program, metrics=registry)
        assert not matcher.match(b"plain hay").matched  # rejected
        assert matcher.match(b"drab").matched  # verified
        assert not matcher.match(b"abc").matched  # passes, verify says no
        assert registry.value("repro_prefilter_checks_total") == 3
        assert registry.value("repro_prefilter_skips_total") == 1
        assert registry.value("repro_prefilter_candidates_total") == 2

    def test_off_mode_has_no_filter_or_counters(self):
        registry = MetricsRegistry()
        program = compile_regex("needle").program
        matcher = PrefilteredMatcher(program, **PATHS["off"], metrics=registry)
        assert matcher._filter is None
        assert not matcher.match(b"plain hay").matched
        assert not registry.value("repro_prefilter_checks_total")

    def test_explicit_analysis_overrides_program(self):
        program = compile_regex("needle").program
        matcher = PrefilteredMatcher(program, analysis=INERT_ANALYSIS)
        # Inert analysis: no filter, everything verified (and correct).
        assert matcher._filter is None
        assert matcher.match(b"a needle here").matched
