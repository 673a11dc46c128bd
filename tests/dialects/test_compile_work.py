"""Exact work counts of one compile: a count gate with a 0 % bound.

Timing cannot tell a pass that rebuilds its label table once from one
that rebuilds it per erased jump until the program is large; a call
count can, in milliseconds.  Every count here is taken by wrapping the
function for the length of one ``NewCompiler().compile(pattern)`` and is
compared with a number read off the compile's own IR (pieces, groups,
instructions), so none of them depends on the host.
"""

import contextlib
from collections import Counter

import pytest

import repro.compiler as compiler_module
import repro.dialects.cicero.lowering as lowering_module
import repro.ir.attributes as attributes_module
from repro.compiler import CompileOptions, NewCompiler
from repro.dialects.cicero.ops import ACCEPTANCE_OPS, CiceroInstructionOp, ProgramOp
from repro.dialects.cicero.transforms import jump_simplification
from repro.dialects.regex.ops import DollarOp, GroupOp
from repro.ir.operation import Block

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
            (CiceroInstructionOp, "__init__", "cicero ops built"),
            (jump_simplification, "_thread_jump_chains", "jump sweeps"),
        ]:
            stack.enter_context(counting(counts, owner, name, key))
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
    # Label tables: one for Jump Simplification (label → op), one each
    # for DCE and codegen (label → address) — never one per erased jump.
    assert counts["label_map"] <= 2
    assert counts["label tables"] == 3
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
    for key in ("label_map", "label tables", "block scans", "jump sweeps"):
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
