"""Property round-trips: binary encoding, textual IR, dialect lifting."""

from hypothesis import given, settings

from repro.compiler import CompileOptions, compile_regex
from repro.dialects.cicero.codegen import generate_program, program_to_dialect
from repro.ir.context import default_context
from repro.ir.parser import parse_op
from repro.ir.printer import print_op
from repro.isa.encoding import decode_program, encode_program
from repro.isa.metrics import d_offset
from strategies import regex_patterns


@settings(max_examples=60, deadline=None)
@given(pattern=regex_patterns())
def test_binary_roundtrip(pattern):
    program = compile_regex(pattern).program
    assert list(decode_program(encode_program(program))) == list(program)


@settings(max_examples=40, deadline=None)
@given(pattern=regex_patterns())
def test_regex_ir_text_roundtrip(pattern):
    from repro.dialects.regex.from_ast import regex_to_module

    module = regex_to_module(pattern)
    text = print_op(module)
    reparsed = parse_op(text, default_context())
    assert reparsed.is_structurally_equal(module)


@settings(max_examples=40, deadline=None)
@given(pattern=regex_patterns())
def test_cicero_dialect_roundtrip(pattern):
    program = compile_regex(pattern, CompileOptions.none()).program
    lifted = program_to_dialect(program)
    assert list(generate_program(lifted)) == list(program)


@settings(max_examples=60, deadline=None)
@given(pattern=regex_patterns())
def test_jump_simplification_monotone(pattern):
    """The low-level pass never grows the program, and never makes the
    VM execute more instructions (fewer jumps on every path)."""
    from repro.vm.thompson import ThompsonVM

    baseline = compile_regex(pattern, CompileOptions.none()).program
    # The high-level passes may change size either way, so compare the
    # low-level pass in isolation.
    lowlevel_only = compile_regex(
        pattern,
        CompileOptions(regex_pipeline=()),
    ).program
    assert len(lowlevel_only) <= len(baseline)

    import random

    rng = random.Random(0xD0FF5E7)
    baseline_vm = ThompsonVM(baseline)
    optimized_vm = ThompsonVM(lowlevel_only)
    for _ in range(5):
        text = "".join(rng.choice("abcdefgh") for _ in range(rng.randint(0, 12)))
        _r1, stats_base = baseline_vm.run_with_stats(text)
        _r2, stats_opt = optimized_vm.run_with_stats(text)
        assert _r1.matched == _r2.matched
        assert stats_opt.instructions_executed <= stats_base.instructions_executed
