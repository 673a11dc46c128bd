"""Regex → Cicero dialect lowering: structure and ISA mapping."""

import pytest

from repro.compiler import CompileOptions, compile_regex
from repro.dialects.cicero.lowering import lower_to_cicero
from repro.dialects.cicero.ops import ProgramOp
from repro.dialects.regex.from_ast import regex_to_module
from repro.frontend.errors import UnsupportedRegexError
from repro.ir.diagnostics import LoweringError
from repro.ir.operation import ModuleOp
from repro.isa.instructions import Opcode
from repro.vm import run_program


def lowered_opcodes(pattern, **options):
    opts = CompileOptions.none() if not options else CompileOptions(**options)
    program = compile_regex(pattern, opts).program
    return [instruction.opcode for instruction in program]


def test_prefix_loop_shape():
    """`.*` prefix: split; match_any; jmp — Listing 2 lines 0–2."""
    opcodes = lowered_opcodes("a")
    assert opcodes[:3] == [Opcode.SPLIT, Opcode.MATCH_ANY, Opcode.JMP]


def test_no_prefix_when_anchored():
    opcodes = lowered_opcodes("^a")
    assert opcodes[0] == Opcode.MATCH


def test_accept_partial_for_implicit_suffix():
    assert Opcode.ACCEPT_PARTIAL in lowered_opcodes("ab")
    assert Opcode.ACCEPT not in lowered_opcodes("ab")


def test_accept_for_dollar_anchor():
    opcodes = lowered_opcodes("^ab$")
    assert Opcode.ACCEPT in opcodes
    assert Opcode.ACCEPT_PARTIAL not in opcodes


def test_negated_class_is_notmatch_chain():
    """Paper §3.3: [^ab] → NotMatch(a); NotMatch(b); MatchAny."""
    opcodes = lowered_opcodes("^[^ab]")
    assert opcodes[:3] == [Opcode.NOT_MATCH, Opcode.NOT_MATCH, Opcode.MATCH_ANY]


def test_positive_class_is_split_chain():
    opcodes = lowered_opcodes("^[abc]$")
    assert opcodes.count(Opcode.SPLIT) == 2
    assert opcodes.count(Opcode.MATCH) == 3


def test_single_member_class_is_plain_match():
    # unoptimized layout: branch code, jump-to-acceptance, acceptance
    assert lowered_opcodes("^[a]$") == [Opcode.MATCH, Opcode.JMP, Opcode.ACCEPT]


def test_bounded_quantifier_duplication():
    # ^a{3}$ -> three MATCH a
    opcodes = lowered_opcodes("^a{3}$")
    assert opcodes.count(Opcode.MATCH) == 3


def test_optional_chain():
    # ^a{1,3}$ -> match, then two optional (split+match) copies
    opcodes = lowered_opcodes("^a{1,3}$")
    assert opcodes.count(Opcode.MATCH) == 3
    assert opcodes.count(Opcode.SPLIT) == 2


def test_star_loop():
    # ^a*$ -> split; match; jmp(loop); jmp(acc); accept
    assert lowered_opcodes("^a*$") == [
        Opcode.SPLIT, Opcode.MATCH, Opcode.JMP, Opcode.JMP, Opcode.ACCEPT,
    ]


def test_plus_loop():
    # ^a+$ -> match; split(back); jmp(acc); accept
    assert lowered_opcodes("^a+$") == [
        Opcode.MATCH, Opcode.SPLIT, Opcode.JMP, Opcode.ACCEPT,
    ]


def test_zero_repetition_emits_nothing():
    assert lowered_opcodes("^a{0}b$") == [Opcode.MATCH, Opcode.JMP, Opcode.ACCEPT]


def test_dollar_branch_gets_exact_accept():
    opcodes = lowered_opcodes("a$|b")
    assert Opcode.ACCEPT in opcodes          # for the a$ branch
    assert Opcode.ACCEPT_PARTIAL in opcodes  # for the b branch


def test_mid_pattern_dollar_rejected():
    # Rejected by the frontend, so the same way at every optimization level.
    for pattern in ("(a$)b", "(ga|gb$)", "x(a|b$)", "(a|b$)c", "a$b"):
        for options in (CompileOptions(), CompileOptions.none()):
            with pytest.raises(UnsupportedRegexError) as excinfo:
                compile_regex(pattern, options)
            assert excinfo.value.code == "REPRO-UNSUPPORTED"


@pytest.mark.parametrize("pattern", ["ga|gb$", "ab$", "^abc$", "a$|b"])
@pytest.mark.parametrize("options", [CompileOptions(), CompileOptions.none()])
def test_dollar_ending_a_top_level_branch_compiles(pattern, options):
    assert compile_regex(pattern, options).program


def test_nullable_unbounded_rejected():
    for pattern in ["(a?)*", "(a*)+", "(a|b*)*", "(a{0,2})+"]:
        with pytest.raises(LoweringError):
            compile_regex(pattern, CompileOptions.none())


def test_nullable_bounded_allowed():
    # Bounded quantifiers over nullable atoms are finite chains: legal.
    program = compile_regex("(a?){3}", CompileOptions.none()).program
    # An empty-matching pattern with implicit wildcards accepts any input.
    assert run_program(program, "aa").matched
    assert run_program(program, "").matched
    assert run_program(program, "zzz").matched


def test_lowering_requires_single_root():
    with pytest.raises(LoweringError):
        lower_to_cicero(ModuleOp())


def test_lowered_module_contains_program_op():
    module = regex_to_module("ab")
    lowered = lower_to_cicero(module)
    assert isinstance(lowered.body.operations[0], ProgramOp)
    lowered.verify()


def test_labels_resolve_on_corpus(corpus_pattern):
    module = regex_to_module(corpus_pattern)
    lowered = lower_to_cicero(module)
    program_op = lowered.body.operations[0]
    labels = program_op.label_map()
    for op in program_op.instructions:
        if op.name in ("cicero.split", "cicero.jump"):
            assert op.target in labels
