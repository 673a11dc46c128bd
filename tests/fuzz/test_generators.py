"""The fuzz case generators: seeded, valid, bit-reproducible."""

import random

import pytest

from repro.compiler import compile_regex
from repro.frontend.parser import parse_regex
from repro.fuzz import (
    ModuleGenerator,
    RegexGenerator,
    count_nodes,
    derive_inputs,
    module_text,
    pattern_text,
)
from repro.runtime.budget import DEFAULT_BUDGET
from repro.runtime.guards import check_pattern_budget

SEEDS = list(range(25))


def test_regex_generator_is_deterministic():
    first = [RegexGenerator(99).generate().text for _ in range(1)]
    a = RegexGenerator(99)
    b = RegexGenerator(99)
    for _ in range(10):
        assert a.generate().text == b.generate().text
    assert first[0] == RegexGenerator(99).generate().text


def test_different_seeds_differ():
    texts = {RegexGenerator(seed).generate().text for seed in range(20)}
    assert len(texts) > 15


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_patterns_parse_and_compile(seed):
    pattern = RegexGenerator(seed).generate()
    reparsed = parse_regex(pattern.text)
    check_pattern_budget(reparsed, DEFAULT_BUDGET)
    # The nullability guard keeps every pattern inside the ISA subset:
    # compilation must never reject a generated pattern.
    program = compile_regex(pattern.text).program
    assert len(program) > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_module_generator_emits_valid_modules(seed):
    module = ModuleGenerator(seed).generate()
    module.verify()
    text = module_text(module)
    parse_regex(text)  # the emitted text must round-trip


def test_module_generator_is_deterministic():
    assert module_text(ModuleGenerator(5).generate()) == module_text(
        ModuleGenerator(5).generate()
    )


def test_pattern_text_round_trips_anchors():
    pattern = RegexGenerator(3).generate()
    reparsed = parse_regex(pattern.text)
    assert pattern_text(reparsed) == pattern.text


def test_derive_inputs_deterministic_and_newline_free():
    pattern = RegexGenerator(11).generate()
    first = derive_inputs(pattern, random.Random(42))
    second = derive_inputs(pattern, random.Random(42))
    assert first == second
    assert "" in first
    for probe in first:
        assert "\n" not in probe
        assert all(ord(char) <= 0xFF for char in probe)


def test_derive_inputs_reach_non_printable_bytes():
    probes = [
        probe
        for seed in range(20)
        for probe in derive_inputs(RegexGenerator(seed).generate(), random.Random(seed))
    ]
    assert any(not 0x20 <= ord(char) <= 0x7E for probe in probes for char in probe)


def test_derive_inputs_include_language_members():
    """At least one probe should actually match (sampled positives)."""
    import re

    from repro.dialects.regex.emit_pattern import emit_python_re
    from repro.dialects.regex.from_ast import pattern_to_regex_dialect

    pattern = parse_regex("ab|cd+")
    probes = derive_inputs(pattern, random.Random(0))
    gold = re.compile(
        emit_python_re(pattern_to_regex_dialect(pattern).body.operations[0])
    )
    assert any(gold.search(probe) for probe in probes)


def test_count_nodes_minimal_pattern():
    # Pattern -> Alternation -> Concatenation -> Piece -> Char
    assert count_nodes(parse_regex("a")) == 5
    assert count_nodes(parse_regex("ab")) == 7
