"""ISA instruction semantics and construction helpers."""

import pytest

from repro.isa.instructions import (
    Instruction,
    MAX_OPERAND,
    Opcode,
    accept,
    accept_partial,
    jmp,
    match,
    match_any,
    not_match,
    split,
)


class TestOpcodeClasses:
    """The three ISA classes of paper Table 1."""

    def test_matching_class(self):
        assert Opcode.MATCH.is_match
        assert Opcode.MATCH_ANY.is_match
        assert Opcode.NOT_MATCH.is_match
        assert not Opcode.SPLIT.is_match

    def test_control_flow_class(self):
        assert Opcode.SPLIT.is_control_flow
        assert Opcode.JMP.is_control_flow
        assert not Opcode.MATCH.is_control_flow

    def test_acceptance_class(self):
        assert Opcode.ACCEPT.is_acceptance
        assert Opcode.ACCEPT_PARTIAL.is_acceptance

    def test_input_advancing(self):
        """NOT_MATCH reads but does not advance cc (paper Table 1)."""
        assert Opcode.MATCH.advances_input
        assert Opcode.MATCH_ANY.advances_input
        assert not Opcode.NOT_MATCH.advances_input
        assert not Opcode.SPLIT.advances_input

    def test_operand_carrying(self):
        assert Opcode.SPLIT.has_operand
        assert Opcode.MATCH.has_operand
        assert not Opcode.ACCEPT.has_operand
        assert not Opcode.MATCH_ANY.has_operand


class TestConstruction:
    def test_helpers(self):
        assert match("a") == Instruction(Opcode.MATCH, ord("a"))
        assert not_match(98) == Instruction(Opcode.NOT_MATCH, 98)
        assert split(7) == Instruction(Opcode.SPLIT, 7)
        assert jmp(0) == Instruction(Opcode.JMP, 0)
        assert accept() == Instruction(Opcode.ACCEPT)
        assert accept_partial() == Instruction(Opcode.ACCEPT_PARTIAL)
        assert match_any() == Instruction(Opcode.MATCH_ANY)

    def test_operand_range_enforced(self):
        Instruction(Opcode.SPLIT, MAX_OPERAND)
        with pytest.raises(ValueError):
            Instruction(Opcode.SPLIT, MAX_OPERAND + 1)
        with pytest.raises(ValueError):
            Instruction(Opcode.JMP, -1)

    @pytest.mark.parametrize("operand", [97.0, True, "a"])
    def test_operand_must_be_an_int(self, operand):
        # Instructions are shared: an ill-typed operand admitted once
        # would be the instance every later ``MATCH 'a'`` program gets.
        with pytest.raises(ValueError):
            Instruction(Opcode.MATCH, operand)
        assert type(match("a").operand) is int
        assert Instruction(Opcode.MATCH, 1).render() == "MATCH      char 0x01"

    def test_no_operand_enforced(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.MATCH_ANY, 1)

    def test_acceptance_operand_is_match_id(self):
        tagged = Instruction(Opcode.ACCEPT_PARTIAL, 7)
        assert tagged.match_id == 7
        assert Instruction(Opcode.MATCH, 7).match_id == 0

    def test_int_opcode_coerced(self):
        assert Instruction(2, 5).opcode is Opcode.SPLIT

    def test_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            match("a").operand = 3


class TestRendering:
    def test_split_shows_both_targets(self):
        assert split(3).render(0) == "000: SPLIT      {1,3}"

    def test_jmp(self):
        assert jmp(7).render(2) == "002: JMP to     7"

    def test_match_char(self):
        assert "char a" in match("a").render(4)

    def test_nonprintable_char(self):
        assert "0x0A" in match(0x0A).render(0)

    def test_render_without_address(self):
        assert "SPLIT" in split(3).render()
