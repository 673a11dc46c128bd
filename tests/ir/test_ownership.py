"""Ownership of compiled artifacts: nothing a compile leaves behind needs
the cyclic garbage collector.

IR ownership runs downward (op → region → block → op) through strong
references and upward through weak ones, so a dropped module is freed by
reference counting alone; :class:`~repro.isa.Instruction` s are uniqued,
so a program is a list of shared values.  The digests at the end were
recorded from the compilers before either change, over the first 50
REs of each of the four suites: sharing instructions and weakening
parent links must not move one emitted instruction or source-map entry.
"""

import copy
import gc
import hashlib
import pickle
import weakref

import pytest

from repro.compiler import NewCompiler
from repro.engine import Engine
from repro.ir.diagnostics import IRError
from repro.ir.operation import ModuleOp, Operation
from repro.isa.instructions import Instruction, Opcode, match
from repro.multimatch import compile_multipattern
from repro.oldcompiler.compiler import OldCompiler
from repro.workloads import brill, protomata, sample_and_alternate

PATTERN = "th(is|at)[a-z]+x{2,5}"
SUITES = ("protomata", "brill", "protomata4", "brill4")
PER_SUITE = 50


def _op(name="test.op"):
    return Operation(name=name)


# ----------------------------------------------------------------------
# The cyclic collector finds nothing after a compile
# ----------------------------------------------------------------------
COMPILES = {
    "new": lambda: NewCompiler().compile(PATTERN),
    "old": lambda: OldCompiler(optimize=True).compile(PATTERN),
    "multimatch": lambda: compile_multipattern([PATTERN, "ab+c", "[^x]y"]),
    "engine-match": lambda: Engine().match(PATTERN, "this thatxx"),
}


@pytest.mark.parametrize("name", sorted(COMPILES))
def test_a_dropped_compile_leaves_no_cyclic_garbage(name):
    compile_once = COMPILES[name]
    compile_once()  # module-level caches and lazy imports fill here
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        compile_once()
        found = gc.collect()
        kinds = sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert found == 0, kinds


def test_a_dropped_module_is_freed_by_reference_counting():
    enabled = gc.isenabled()
    gc.disable()
    try:
        module = ModuleOp()
        op = module.body.append(Operation(name="test.outer", num_regions=1))
        inner = op.regions[0].entry_block.append(_op())
        alive = weakref.ref(module)
        del module, op
        assert alive() is None
        # An op that outlives its block reads as detached.
        assert inner.parent_block is None
        assert inner.parent_op is None
    finally:
        if enabled:
            gc.enable()


# ----------------------------------------------------------------------
# Instructions are shared values
# ----------------------------------------------------------------------
def test_instructions_are_interned():
    shared = Instruction(Opcode.MATCH, 97)
    assert Instruction(Opcode.MATCH, 97) is shared
    assert match("a") is shared
    assert Instruction(5, 97) is shared
    assert Instruction(Opcode.NOT_MATCH, 97) is not shared
    assert repr(shared) == "Instruction(opcode=<Opcode.MATCH: 5>, operand=97)"


def test_interning_survives_pickle_and_deepcopy():
    program = NewCompiler().compile("ab|cd").program
    for clone in (
        pickle.loads(pickle.dumps(program)),
        copy.deepcopy(program),
    ):
        assert clone.instructions == program.instructions
        assert all(
            mine is theirs
            for mine, theirs in zip(clone.instructions, program.instructions)
        )
    shared = Instruction(Opcode.SPLIT, 3)
    assert pickle.loads(pickle.dumps(shared)) is shared
    assert copy.deepcopy(shared) is shared
    assert copy.copy(shared) is shared


# ----------------------------------------------------------------------
# Weak upward links keep today's semantics while the tree is alive
# ----------------------------------------------------------------------
def test_parent_links_while_the_module_is_alive():
    module = ModuleOp()
    op = module.body.append(_op())
    assert op.parent_block is module.body
    assert op.parent_op is module
    assert module.body.parent_region is module.regions[0]
    assert module.regions[0].parent_op is module
    assert module.parent_op is None and module.parent_block is None


def test_erase_and_replace_with_detach():
    module = ModuleOp()
    erased = module.body.append(_op("test.a"))
    replaced = module.body.append(_op("test.b"))
    erased.erase()
    assert erased.parent_block is None and erased.parent_op is None
    with pytest.raises(IRError):
        erased.erase()
    substitute = _op("test.c")
    replaced.replace_with(substitute)
    assert replaced.parent_block is None
    assert substitute.parent_op is module
    assert [op.name for op in module.body] == ["test.c"]
    # A detached op may join another block.
    other = ModuleOp()
    other.body.append(replaced)
    assert replaced.parent_op is other


def test_clone_is_detached_and_owns_its_copy():
    module = ModuleOp()
    outer = module.body.append(Operation(name="test.outer", num_regions=1))
    outer.regions[0].entry_block.append(_op())
    clone = outer.clone()
    assert clone.parent_block is None
    assert clone.regions[0].parent_op is clone
    (inner,) = clone.regions[0].entry_block.operations
    assert inner.parent_op is clone
    with pytest.raises(IRError):
        module.body.append(outer)


# ----------------------------------------------------------------------
# Emitted programs are bit-identical to the ones before sharing
# ----------------------------------------------------------------------
#: sha256 per compiler over (opcode, operand) lists and source maps.
GOLDEN = {
    "new": "85d355080f2d8f5e6079659629d537d506096dd790ab9c46d5bbf1ed2e2d3ada",
    "old": "c209d14461e086a7fcd99d61990a2e220e1a7d5a3dd26485dff4b0e472190531",
    "multimatch": "59cf90d63cc6ec486dc9d36236de239b31887eedcf07eda3d8284cc05224f6fb",
}


def _suite(name: str):
    generator = protomata if name.startswith("protomata") else brill
    if not name.endswith("4"):
        return generator.generate_patterns(200, 2025)[:PER_SUITE]
    return sample_and_alternate(
        generator.generate_patterns(800, 2025), 200, seed=2025
    )[:PER_SUITE]


def _fingerprint(program) -> str:
    return repr(
        (
            [(int(i.opcode), i.operand) for i in program.instructions],
            program.source_map,
        )
    )


def _digest(programs) -> str:
    digest = hashlib.sha256()
    for program in programs:
        digest.update(_fingerprint(program).encode())
    return digest.hexdigest()


def emitted_digests() -> dict:
    patterns = {name: _suite(name) for name in SUITES}
    every = [pattern for name in SUITES for pattern in patterns[name]]
    old = OldCompiler(optimize=True)
    return {
        "new": _digest(NewCompiler().compile(p).program for p in every),
        "old": _digest(old.compile(p).program for p in every),
        # Two rules per combined program keep each under the size budget.
        "multimatch": _digest(
            compile_multipattern(every[start:start + 2]).program
            for start in range(0, len(every), 2)
        ),
    }


def test_emitted_programs_are_unchanged():
    assert emitted_digests() == GOLDEN
