"""Exact work counts of one compile: a count gate with a 0 % bound.

Timing cannot tell a pass that rebuilds its label table once from one
that rebuilds it per erased jump until the program is large; a call
count can, in milliseconds.  Every count here is taken by wrapping the
function for the length of one ``NewCompiler().compile(pattern)`` and is
compared with a number read off the compile's own IR (pieces, groups,
instructions), so none of them depends on the host.
"""

import contextlib
import time
from collections import Counter

import pytest

import repro.compiler as compiler_module
import repro.dialects.cicero.lowering as lowering_module
import repro.ir.attributes as attributes_module
import repro.dialects.cicero.ops as cicero_ops
from repro.compiler import CompileOptions, NewCompiler
from repro.dialects.cicero.ops import ACCEPTANCE_OPS, ProgramOp
from repro.dialects.cicero.transforms import jump_simplification
from repro.dialects.regex.ops import DollarOp, GroupOp, PieceOp
from repro.ir.operation import Block, Operation
from repro.isa.program import Program

PATTERNS = [
    "a(b|c)d*e",
    "L[IVM].{1,3}[DE]R|[^ab]{2,4}x+(foo|bar|baz)$",
    "(the|a) [a-z]{2,5} (is|was) [A-D]{3}|th(is|at|ose)",
]


@contextlib.contextmanager
def patched(owner, name: str, value):
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


def counting(counts: Counter, owner, name: str, key: str, when=lambda: True):
    """Patch ``owner.name`` to count its calls under ``key`` while ``when()``."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        if when():
            counts[key] += 1
        return original(*args, **kwargs)

    return patched(owner, name, wrapper)


def counting_reads(counts: Counter, owner, name: str, key: str):
    """Patch the property ``owner.name`` to count its reads under ``key``."""
    getter = getattr(owner, name).fget

    def wrapper(self):
        counts[key] += 1
        return getter(self)

    return patched(owner, name, property(wrapper))


def counted_compile(pattern: str):
    """``NewCompiler().compile(pattern)`` plus how often it did what."""
    counts = Counter()
    lowered = {}
    lower = compiler_module.lower_to_cicero

    def lowering_spy(module, **kwargs):
        result = lower(module, **kwargs)
        program = result.body.operations[0]
        lowered["ops"] = len(program.instructions)
        lowered["built"] = counts["cicero ops built"]
        lowered["acceptances"] = sum(
            isinstance(op, ACCEPTANCE_OPS) for op in program.instructions
        )
        return result

    def in_cicero_passes():
        return "ops" in lowered

    with contextlib.ExitStack() as stack:
        for owner, name, key in [
            (ProgramOp, "label_map", "label_map"),
            (ProgramOp, "_label_table", "label tables"),
            (lowering_module, "emit_piece", "emit_piece"),
            (attributes_module, "_set_bits", "mask decodes"),
            # Each instruction op's constructor fills its own slots.
            (cicero_ops.CiceroInstructionOp, "__init__", "cicero ops built"),
            (cicero_ops._BranchOp, "__init__", "cicero ops built"),
            (cicero_ops._CharOp, "__init__", "cicero ops built"),
            (jump_simplification, "_thread_jump_chains", "jump sweeps"),
            (Program, "validate", "program validations"),
        ]:
            stack.enter_context(counting(counts, owner, name, key))
        for owner, name, key in [
            (PieceOp, "bounds", "bounds reads"),
            (Operation, "parent_block", "parent_block reads"),
        ]:
            stack.enter_context(counting_reads(counts, owner, name, key))
        for name in ("index_of", "remove"):
            stack.enter_context(
                counting(counts, Block, name, "block scans", in_cicero_passes)
            )
        stack.enter_context(patched(compiler_module, "lower_to_cicero", lowering_spy))
        result = NewCompiler().compile(pattern)
    return counts, lowered, result


def top_level_pieces(result) -> int:
    root = result.regex_module.body.operations[0]
    return sum(
        not isinstance(piece.atom, DollarOp)
        for branch in root.alternatives
        for piece in branch.pieces
    )


def group_ops(result) -> int:
    return sum(isinstance(op, GroupOp) for op in result.regex_module.walk())


def piece_ops(result) -> int:
    """Pieces of the optimized module, nested ones included."""
    return sum(isinstance(op, PieceOp) for op in result.regex_module.walk())


def acceptance_duplicates(pattern: str, lowered_acceptances: int) -> int:
    """Acceptances Jump Simplification adds, read off a compile without DCE."""
    no_dce = CompileOptions(cicero_pipeline=("cicero-jump-simplification",))
    kept = NewCompiler(no_dce).compile(pattern)
    program = kept.cicero_module.body.operations[0]
    return (
        sum(isinstance(op, ACCEPTANCE_OPS) for op in program.instructions)
        - lowered_acceptances
    )


@pytest.mark.parametrize("pattern", PATTERNS)
def test_one_compile_does_each_piece_of_work_once(pattern):
    counts, lowered, result = counted_compile(pattern)
    # Label tables: one for Jump Simplification (label → op), one for
    # DCE (label → address) — never one per erased jump.  Codegen finds
    # the labels in the walk that encodes the ops.
    assert counts["label_map"] == 1
    assert counts["label tables"] == 2
    # The finished program is checked once, as it is built.
    assert counts["program validations"] == 1
    # A piece's bounds are read once by each stage that needs them — the
    # prefilter analysis, the lowering and its provenance rendering — and
    # by the rewrite patterns only for sub-regex and boundary pieces.
    assert counts["bounds reads"] <= 4 * piece_ops(result)
    # The rewrite driver asks whether an op was erased only of the ops a
    # pattern anchors on.
    assert counts["parent_block reads"] < 3 * piece_ops(result)
    # Provenance is rendered for the outermost pieces only.
    assert counts["emit_piece"] == top_level_pieces(result)
    # A character class is decoded once, however many copies {m,n} makes
    # and however many stages (analysis, rendering, lowering) read it.
    groups = group_ops(result)
    assert min(1, groups) <= counts["mask decodes"] <= groups
    # The cicero passes never erase or replace one op at a time.
    assert counts["block scans"] == 0
    # Lowering builds exactly the ops it emits; afterwards only rule 2
    # builds any (one acceptance per jump it replaces).
    assert lowered["built"] == lowered["ops"]
    duplicates = acceptance_duplicates(pattern, lowered["acceptances"])
    assert duplicates > 0
    assert counts["cicero ops built"] == lowered["ops"] + duplicates
    # Fixpoint: one productive iteration of the three rules, one idle.
    assert counts["jump sweeps"] == 2


def alternation(branches: int) -> str:
    return "|".join(
        f"{chr(ord('a') + index % 26)}{index:03d}[xy]z" for index in range(branches)
    )


def test_work_counts_do_not_grow_with_the_program():
    """50 → 400 branches: constant counts stay put, the rest stay 1:1."""
    small_counts, small_lowered, small = counted_compile(alternation(50))
    large_counts, large_lowered, large = counted_compile(alternation(400))
    assert large_lowered["ops"] > 7 * small_lowered["ops"]
    for key in (
        "label_map", "label tables", "block scans", "jump sweeps",
        "program validations",
    ):
        assert large_counts[key] == small_counts[key], key
    for counts, lowered, result in (
        (small_counts, small_lowered, small),
        (large_counts, large_lowered, large),
    ):
        assert counts["emit_piece"] == top_level_pieces(result)
        assert counts["mask decodes"] <= group_ops(result)
        assert lowered["built"] == lowered["ops"]
        assert counts["cicero ops built"] == lowered["ops"] + acceptance_duplicates(
            result.pattern, lowered["acceptances"]
        )


def test_an_untraced_compile_reads_the_clock_only_for_the_pass_budget():
    """Spans are the only timing of stages and passes; untraced, the one
    clock left is a pair of reads around each pass pipeline, which
    ``Budget.max_pass_seconds`` is charged with."""
    counts = Counter()
    with counting(counts, time, "perf_counter", "clock reads"):
        NewCompiler().compile(PATTERNS[1])
    assert counts["clock reads"] == 4
