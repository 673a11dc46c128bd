"""The single-sweep cicero passes against the erase-and-rescan oracle.

``reference_passes.py`` holds the pass bodies this package shipped
before; every comparison here is on the emitted instructions, the
``source_map`` and the printed ``cicero`` module, so a pass that keeps
the program but renames a label or drops a ``source`` attribute fails.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_passes import REFERENCE_PASSES, reference_chars
from repro.compiler import (
    COMPILER_NAME,
    DEFAULT_CICERO_PIPELINE,
    DEFAULT_REGEX_PIPELINE,
    CompileOptions,
    NewCompiler,
)
from repro.dialects.cicero.codegen import generate_program
from repro.dialects.cicero.ops import (
    AcceptOp,
    AcceptPartialOp,
    JumpOp,
    MatchAnyOp,
    MatchCharOp,
    NotMatchCharOp,
    ProgramOp,
    SplitOp,
)
from repro.dialects.cicero.transforms import (
    DeadCodeEliminationPass,
    JumpSimplificationPass,
)
from repro.dialects.cicero.transforms import jump_simplification as jump_rules
from repro.ir.attributes import CharSetAttr
from repro.ir.diagnostics import LoweringError
from repro.ir.printer import print_op
from repro.workloads import brill, protomata, sample_and_alternate
from strategies import regex_patterns

PER_SUITE = 20
SIMPLIFY, FACTORIZE, BOUNDARY = DEFAULT_REGEX_PIPELINE
JUMP, DCE = DEFAULT_CICERO_PIPELINE

OPTION_SETS = {
    "default": CompileOptions(),
    "all-off": CompileOptions.none(),
    "no-simplify-subregex": CompileOptions(regex_pipeline=(FACTORIZE, BOUNDARY)),
    "no-factorize": CompileOptions(regex_pipeline=(SIMPLIFY, BOUNDARY)),
    "no-boundary-quantifier": CompileOptions(regex_pipeline=(SIMPLIFY, FACTORIZE)),
    "no-jump-simplification": CompileOptions(cicero_pipeline=(DCE,)),
    "no-dce": CompileOptions(cicero_pipeline=(JUMP,)),
    "jump-simplification-twice": CompileOptions(cicero_pipeline=(JUMP, JUMP, DCE)),
}


def suite_patterns(name: str):
    generator = protomata if name.startswith("protomata") else brill
    if not name.endswith("4"):
        return generator.generate_patterns(PER_SUITE, 2025)
    pool = generator.generate_patterns(4 * PER_SUITE, 2025)
    return sample_and_alternate(pool, PER_SUITE, seed=2025)


def observed(module, program):
    return (
        [(int(i.opcode), i.operand) for i in program.instructions],
        program.source_map,
        print_op(module),
    )


def assert_matches_reference(pattern: str, options: CompileOptions) -> None:
    result = NewCompiler(options).compile(pattern)
    # The same lowering, then the reference bodies in the same order.
    regex, cicero = options.pipelines()
    unoptimized = CompileOptions(regex_pipeline=regex, cicero_pipeline=())
    module = NewCompiler(unoptimized).compile(pattern).cicero_module
    for name in cicero:
        REFERENCE_PASSES[name](module)
    program = generate_program(
        module.body.operations[0], source_pattern=pattern, compiler=COMPILER_NAME
    )
    assert observed(result.cicero_module, result.program) == observed(
        module, program
    ), pattern


@pytest.mark.parametrize("options", OPTION_SETS.values(), ids=OPTION_SETS.keys())
@pytest.mark.parametrize("suite", ["protomata", "brill", "protomata4", "brill4"])
def test_suites_match_reference(suite, options):
    for pattern in suite_patterns(suite):
        assert_matches_reference(pattern, options)


@settings(max_examples=120, deadline=None)
@given(
    regex_patterns(),
    st.sampled_from(["default", "no-dce", "jump-simplification-twice"]),
)
def test_generated_regexes_match_reference(pattern, options):
    assert_matches_reference(pattern, OPTION_SETS[options])


# ----------------------------------------------------------------------
# Hand-built and random programs
# ----------------------------------------------------------------------
def program_of(*ops) -> ProgramOp:
    program = ProgramOp()
    for op in ops:
        program.regions[0].entry_block.append(op)
    return program


def run_both(program: ProgramOp, passes=(JUMP, DCE)):
    """Printed form after the production passes and after the oracle's."""
    production = {JUMP: JumpSimplificationPass(), DCE: DeadCodeEliminationPass()}
    outcomes = []
    for bodies in (
        {name: production[name].run for name in production},
        REFERENCE_PASSES,
    ):
        copy = program.clone()
        try:
            for name in passes:
                bodies[name](copy)
            copy.verify()
            outcomes.append(print_op(copy))
        except LoweringError as error:
            outcomes.append(f"LoweringError: {error}")
    return outcomes


HAND_BUILT = {
    "jump-chain": program_of(
        JumpOp("a"),
        MatchCharOp("x"),
        JumpOp("b", label="a"),
        MatchCharOp("y"),
        JumpOp("c", label="b"),
        JumpOp("d", label="c"),
        MatchCharOp("z", label="d"),
        AcceptPartialOp(),
    ),
    "backward-chain": program_of(
        SplitOp("far"),
        MatchCharOp("x", label="head"),
        AcceptOp(),
        JumpOp("head", label="mid"),
        JumpOp("mid", label="far"),
    ),
    "labelled-jump-to-next-unlabelled-successor": program_of(
        SplitOp("gone"),
        MatchCharOp("a"),
        JumpOp("next", label="gone"),
        MatchCharOp("b", label="next"),
        AcceptPartialOp(),
    ),
    "labelled-jumps-to-next-in-a-row": program_of(
        SplitOp("first"),
        SplitOp("second"),
        MatchCharOp("a"),
        JumpOp("second", label="first"),
        JumpOp("third", label="second"),
        MatchCharOp("b", label="third"),
        SplitOp("first"),
        AcceptPartialOp(),
    ),
    "jump-to-next-takes-over-label": program_of(
        SplitOp("gone"),
        JumpOp("after", label="gone"),
        MatchCharOp("b", label="after"),
        JumpOp("gone"),
        AcceptPartialOp(),
    ),
    "split-targets-jump-to-acceptance": program_of(
        SplitOp("hop"),
        MatchCharOp("a"),
        JumpOp("acc"),
        MatchCharOp("b"),
        JumpOp("acc", label="hop"),
        MatchCharOp("c"),
        AcceptPartialOp(label="acc"),
    ),
    "jump-to-a-jump-to-acceptance": program_of(
        SplitOp("two"),
        JumpOp("one"),
        JumpOp("acc", label="one"),
        MatchAnyOp(label="two"),
        JumpOp("one"),
        AcceptOp(label="acc"),
    ),
    "jump-cycle": program_of(
        SplitOp("a"),
        AcceptPartialOp(),
        JumpOp("b", label="a"),
        JumpOp("a", label="b"),
    ),
    "self-loop": program_of(
        SplitOp("a"),
        AcceptPartialOp(),
        JumpOp("a", label="a"),
    ),
}


@pytest.mark.parametrize("name", HAND_BUILT)
@pytest.mark.parametrize("passes", [(JUMP,), (JUMP, DCE), (DCE, JUMP), (JUMP, JUMP)])
def test_hand_built_programs_match_reference(name, passes):
    ours, reference = run_both(HAND_BUILT[name], passes)
    assert ours == reference


def test_hand_built_cases_exercise_what_they_name():
    ours, _ = run_both(HAND_BUILT["jump-chain"], (JUMP,))
    # Every hop threaded to the end of the chain.
    assert "target = @d" in ours
    assert not any(f"target = @{hop}" in ours for hop in "abc")
    ours, _ = run_both(HAND_BUILT["labelled-jumps-to-next-in-a-row"], (JUMP,))
    assert "cicero.jump" not in ours and ours.count("@third") == 3
    ours, _ = run_both(HAND_BUILT["split-targets-jump-to-acceptance"], (JUMP,))
    assert 'cicero.accept_partial {sym_name = "hop"}' in ours
    assert run_both(HAND_BUILT["jump-cycle"])[0].startswith("LoweringError")


_SOURCES = [None, "a", "(b|c)*"]


@st.composite
def labelled_programs(draw):
    """Small label-valid programs: any op order, any branch targets."""
    size = draw(st.integers(min_value=1, max_value=12))
    labelled = draw(
        st.lists(st.booleans(), min_size=size, max_size=size).filter(any)
    )
    labels = [f"L{i}" if has else None for i, has in enumerate(labelled)]
    targets = st.sampled_from([label for label in labels if label is not None])
    ops = []
    for label in labels:
        kind = draw(st.sampled_from("mmnasjjjxp"))
        if kind == "m":
            op = MatchCharOp(draw(st.sampled_from("abc")), label=label)
        elif kind == "n":
            op = NotMatchCharOp("a", label=label)
        elif kind == "a":
            op = MatchAnyOp(label=label)
        elif kind == "s":
            op = SplitOp(draw(targets), label=label)
        elif kind == "j":
            op = JumpOp(draw(targets), label=label)
        elif kind == "x":
            op = AcceptOp(label=label)
        else:
            op = AcceptPartialOp(label=label)
        op.set_source(draw(st.sampled_from(_SOURCES)))
        ops.append(op)
    return program_of(*ops)


@settings(max_examples=400, deadline=None)
@given(
    labelled_programs(),
    st.sampled_from([(JUMP,), (JUMP, DCE), (DCE, JUMP, DCE), (JUMP, JUMP, DCE)]),
)
def test_random_programs_match_reference(program, passes):
    ours, reference = run_both(program, passes)
    assert ours == reference


@settings(max_examples=200, deadline=None)
@given(labelled_programs())
def test_label_table_is_current_after_every_rule(program):
    """The invariant the sweeps rely on instead of rebuilding the table."""
    labels = program.labelled_ops()
    try:
        for _ in range(len(program.instructions) + 1):
            jumps = [
                (index, op)
                for index, op in enumerate(program.instructions)
                if isinstance(op, JumpOp)
            ]
            changed = jump_rules._thread_jump_chains(jumps, labels)
            assert labels == program.labelled_ops()
            changed |= jump_rules._duplicate_acceptance_targets(
                program, jumps, labels
            )
            assert labels == program.labelled_ops()
            changed |= jump_rules._remove_jumps_to_next(program, jumps, labels)
            assert labels == program.labelled_ops()
            if not changed:
                break
    except LoweringError:
        pass  # a jump cycle; covered above


@given(st.integers(min_value=0, max_value=(1 << 256) - 1))
def test_chars_matches_the_range_scan(mask):
    assert CharSetAttr(mask=mask).chars() == reference_chars(mask)


@pytest.mark.parametrize("mask", [0, 1, 1 << 255, (1 << 256) - 1, 0xFF << 96])
def test_chars_edge_masks(mask):
    assert CharSetAttr(mask=mask).chars() == reference_chars(mask)
