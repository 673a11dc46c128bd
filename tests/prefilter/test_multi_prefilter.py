"""Per-rule chunk-filter candidate pruning over the multimatch engine."""

import dataclasses
import random

from repro.multimatch import MultiMatchVM, compile_multipattern
from repro.observability import MetricsRegistry
from repro.prefilter.multi import PrefilteredMultiMatchVM

RULES = [
    "GET /admin",
    "passwd",
    "SELECT .*FROM",
    "[0-9a-f]{8}cafe",
    "(exec|eval)\\(",
]

EVENTS = [
    "GET /admin HTTP/1.1",
    "cat /etc/passwd",
    "SELECT name FROM users",
    "deadbeefcafe marker",
    "eval(payload)",
    "totally benign traffic",
    "GET /index.html",
    "exec( something ) and passwd too",
    "",
]


class TestVerdictEquivalence:
    def test_matches_bare_vm_on_ids_scenario(self):
        multi = compile_multipattern(RULES)
        bare = MultiMatchVM(multi)
        filtered = PrefilteredMultiMatchVM(multi)
        for event in EVENTS:
            assert (
                filtered.run(event).matched_ids == bare.run(event).matched_ids
            ), event

    def test_matches_bare_vm_on_random_inputs(self):
        multi = compile_multipattern(["abc", "bca", "c{2}d", "[xy]z"])
        bare = MultiMatchVM(multi)
        filtered = PrefilteredMultiMatchVM(multi)
        rng = random.Random(0x1D5)
        for _ in range(120):
            text = "".join(
                rng.choice("abcdxyz") for _ in range(rng.randint(0, 16))
            )
            assert (
                filtered.run(text).matched_ids == bare.run(text).matched_ids
            ), text

    def test_overlapping_rule_literals_attribute_both(self):
        # A compiled re alternation ab|ba sees only "ab" in "aba" (the
        # scanner resumes after each match); one filter per rule sees
        # both.
        multi = compile_multipattern(["ab", "ba"])
        filtered = PrefilteredMultiMatchVM(multi)
        assert filtered.run("aba").matched_ids == frozenset({1, 2})

    def test_literal_inside_another(self):
        multi = compile_multipattern(["he", "she", "hers"])
        filtered = PrefilteredMultiMatchVM(multi)
        assert filtered.run("ushers").matched_ids == frozenset({1, 2, 3})

    def test_shared_literal_multiple_rules(self):
        multi = compile_multipattern(["sig", "xsig|sig"])
        filtered = PrefilteredMultiMatchVM(multi)
        assert filtered.run("xxsigyy").matched_ids == frozenset({1, 2})

    def test_no_hits(self):
        multi = compile_multipattern(["abc"])
        filtered = PrefilteredMultiMatchVM(multi)
        assert filtered.run("xyz").matched_ids == frozenset()
        assert filtered.run("").matched_ids == frozenset()

    def test_candidates_are_the_rules_whose_literal_occurs(self):
        # Literal rules, so the candidate set is exactly "literal is a
        # substring", and pruning never drops a matching rule.
        rng = random.Random(0xAC0)
        alphabet = "abcd"
        for _ in range(50):
            literals = sorted({
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
                for _ in range(rng.randint(1, 6))
            })
            multi = compile_multipattern(literals)
            filtered = PrefilteredMultiMatchVM(multi)
            bare = MultiMatchVM(multi)
            for _ in range(10):
                haystack = "".join(
                    rng.choice(alphabet) for _ in range(rng.randint(0, 30))
                )
                expected = frozenset(
                    index + 1
                    for index, literal in enumerate(literals)
                    if literal in haystack
                )
                data = haystack.encode()
                assert frozenset(
                    match_id
                    for match_id, accept in filtered._filters
                    if accept(data)
                ) == expected
                assert filtered.run(haystack).matched_ids == expected
                assert bare.run(haystack).matched_ids == expected


class TestPruning:
    def test_sparse_event_skips_vm_entirely(self):
        registry = MetricsRegistry()
        multi = compile_multipattern(RULES)
        filtered = PrefilteredMultiMatchVM(multi, metrics=registry)
        result = filtered.run("x" * 200)
        assert result.matched_ids == frozenset()
        assert result.patterns == multi.patterns
        assert registry.value("repro_prefilter_skips_total") == 1

    def test_rules_without_literals_stay_permanent_candidates(self):
        # "(a|b)*" matches the empty string: inert, never pruned.
        multi = compile_multipattern(["needle", "(a|b)*"])
        filtered = PrefilteredMultiMatchVM(multi)
        assert filtered.always_candidates == frozenset({2})
        assert filtered.filtered_ids == frozenset({1})
        bare = MultiMatchVM(multi)
        for text in ["ab", "needle", "xx", "ab needle"]:
            assert (
                filtered.run(text).matched_ids == bare.run(text).matched_ids
            ), text

    def test_first_byte_rules_are_pruned(self):
        # "[ab][cd]" has no literal, but its first-byte set [ab] filters.
        registry = MetricsRegistry()
        multi = compile_multipattern(["needle", "[ab][cd]"])
        filtered = PrefilteredMultiMatchVM(multi, metrics=registry)
        assert filtered.always_candidates == frozenset()
        assert filtered.filtered_ids == frozenset({1, 2})
        assert filtered.run("xx").matched_ids == frozenset()
        assert registry.value("repro_prefilter_skips_total") == 1
        bare = MultiMatchVM(multi)
        for text in ["ac", "needle", "xx", "ad needle", "ba"]:
            assert (
                filtered.run(text).matched_ids == bare.run(text).matched_ids
            ), text

    def test_off_mode_delegates_everything(self):
        # Without analyses no rule can be pruned, so every run goes
        # straight to the VM.
        multi = dataclasses.replace(compile_multipattern(RULES), analyses={})
        filtered = PrefilteredMultiMatchVM(multi)
        assert filtered._filters == ()
        bare = MultiMatchVM(multi)
        for event in EVENTS:
            assert (
                filtered.run(event).matched_ids == bare.run(event).matched_ids
            )


class TestCandidateRestrictedVM:
    def test_candidates_narrow_the_enumeration(self):
        multi = compile_multipattern(["abc", "abd"])
        vm = MultiMatchVM(multi)
        full = vm.run("abc abd")
        assert full.matched_ids == frozenset({1, 2})
        only_first = vm.run("abc abd", candidates=frozenset({1}))
        assert only_first.matched_ids == frozenset({1})

    def test_empty_candidates_short_circuit(self):
        multi = compile_multipattern(["abc"])
        vm = MultiMatchVM(multi)
        assert vm.run("abc", candidates=frozenset()).matched_ids == frozenset()

    def test_unknown_candidate_ids_ignored(self):
        multi = compile_multipattern(["abc"])
        vm = MultiMatchVM(multi)
        result = vm.run("abc", candidates=frozenset({1, 99}))
        assert result.matched_ids == frozenset({1})
