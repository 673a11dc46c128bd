"""Shared attribute instances must not be observable.

``CharAttr`` is uniqued per byte, the lowering hands one
``SymbolRefAttr`` to every branch to a label and one ``StringAttr`` to
every instruction of a source piece, and Jump Simplification moves
``sym_name``/``source`` attributes between ops.  That is only sound
because attributes are immutable and ops replace, never edit, them.
"""

import pytest

from repro.compiler import CompileOptions, compile_regex
from repro.dialects.cicero.ops import JumpOp, SplitOp
from repro.ir.attributes import CharAttr, CharSetAttr, StringAttr, SymbolRefAttr
from repro.ir.context import default_context
from repro.ir.diagnostics import IRError
from repro.ir.parser import parse_op
from repro.ir.printer import print_op

PATTERNS = ["a[bc]+d|x{2,4}y", "th(is|at|ose)$|[^ab]{2}c*", "(a|b)(c|d)e?"]


def lowered_program(pattern, options=CompileOptions.none()):
    return compile_regex(pattern, options).cicero_module.body.operations[0]


def test_char_attr_is_one_instance_per_byte():
    assert CharAttr(97) is CharAttr("a") is CharAttr(97.0)
    assert CharAttr(0) is not CharAttr(1)
    assert all(CharAttr(code).value == code for code in range(256))
    for bad in (256, -1, "ab", "", "☃"):
        with pytest.raises(IRError):
            CharAttr(bad)


def test_shared_instances_are_still_immutable():
    program = lowered_program(PATTERNS[0])
    shared = [CharAttr("a"), CharSetAttr("ab")]
    for op in program.instructions:
        shared.extend(op.attributes.values())
    for attr in shared:
        for slot in type(attr).__slots__:
            with pytest.raises(IRError, match="attributes are immutable"):
                setattr(attr, slot, "changed")


def test_charset_decoding_is_shared_but_not_assignable():
    charset = CharSetAttr("cab")
    assert charset.chars() is charset.chars() == (97, 98, 99)
    with pytest.raises(IRError, match="attributes are immutable"):
        charset._chars = (1, 2, 3)
    assert CharSetAttr("abc") == charset and hash(CharSetAttr("abc")) == hash(charset)


def test_lowering_shares_one_reference_per_label_and_one_source_per_piece():
    program = lowered_program("a[bcd]e")
    by_target = {}
    for op in program.instructions:
        if isinstance(op, (SplitOp, JumpOp)):
            by_target.setdefault(op.target, []).append(op.attributes[op.TARGET_ATTR])
    joins = [refs for refs in by_target.values() if len(refs) > 1]
    assert joins and all(ref is refs[0] for refs in joins for ref in refs)
    class_ops = [op for op in program.instructions if op.source == "[b-d]"]
    assert len(class_ops) > 1
    shared_source = class_ops[0].attributes["source"]
    assert all(op.attributes["source"] is shared_source for op in class_ops)


@pytest.mark.parametrize("pattern", PATTERNS)
def test_editing_a_clone_leaves_the_original_alone(pattern):
    program = lowered_program(pattern)
    before = print_op(program)
    attributes_before = [dict(op.attributes) for op in program.instructions]
    clone = program.clone()
    for op in clone.instructions:
        op.set_label("relabelled" if op.label else None)
        op.set_source("elsewhere")
        if isinstance(op, (SplitOp, JumpOp)):
            op.set_target("relabelled")
    assert print_op(clone) != before
    assert print_op(program) == before
    for op, attributes in zip(program.instructions, attributes_before):
        assert op.attributes == attributes
        assert all(op.attributes[key] is attributes[key] for key in attributes)


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("options", [CompileOptions.none(), CompileOptions()])
def test_print_parse_print_is_a_fixpoint(pattern, options):
    module = compile_regex(pattern, options).cicero_module
    text = print_op(module)
    reparsed = parse_op(text, default_context())
    assert print_op(reparsed) == text
    assert reparsed.is_structurally_equal(module)


def test_optimized_module_owns_its_moved_attributes():
    """Rule 1/2 move ``sym_name``/``source`` attributes between ops."""
    program = lowered_program("ab|cd|ef", CompileOptions())
    before = print_op(program)
    for op in program.clone().instructions:
        op.set_label("x")
        op.set_source(None)
    assert print_op(program) == before
    assert {type(op.attributes.get("sym_name")) for op in program.instructions} <= {
        StringAttr,
        type(None),
    }
    assert all(
        isinstance(op.attributes[op.TARGET_ATTR], SymbolRefAttr)
        for op in program.instructions
        if isinstance(op, (SplitOp, JumpOp))
    )
