"""The Cicero instruction set (paper Table 1).

Three classes of instructions:

* **Matching** — ``MATCH_ANY``, ``MATCH(c)``, ``NOT_MATCH(c)``; a failed
  match kills the executing thread.  ``NOT_MATCH`` inspects the current
  character but does *not* advance ``cc`` (it exists to chain negated
  character classes, §3.3).
* **Control flow** — ``SPLIT(addr)`` continues at both ``PC+1`` and
  ``addr``; ``JMP(addr)`` continues at ``addr``.
* **Acceptance** — ``ACCEPT`` matches only when the whole input has been
  consumed; ``ACCEPT_PARTIAL`` matches at any point of the stream.
"""

from __future__ import annotations

import enum
from dataclasses import FrozenInstanceError


class Opcode(enum.IntEnum):
    """Binary opcodes; values fit the 3-bit field of the encoding."""

    ACCEPT = 0
    ACCEPT_PARTIAL = 1
    SPLIT = 2
    JMP = 3
    MATCH_ANY = 4
    MATCH = 5
    NOT_MATCH = 6

    @property
    def mnemonic(self) -> str:
        return self.name

    @property
    def is_match(self) -> bool:
        return self in (Opcode.MATCH_ANY, Opcode.MATCH, Opcode.NOT_MATCH)

    @property
    def is_control_flow(self) -> bool:
        return self in (Opcode.SPLIT, Opcode.JMP)

    @property
    def is_acceptance(self) -> bool:
        return self in (Opcode.ACCEPT, Opcode.ACCEPT_PARTIAL)

    @property
    def advances_input(self) -> bool:
        """Does successful execution consume the current character?"""
        return self in (Opcode.MATCH_ANY, Opcode.MATCH)

    @property
    def has_operand(self) -> bool:
        """Does the base ISA (paper Table 1) define an operand?

        Acceptance instructions take none in the base ISA; the
        multi-matching extension (paper §8 future work, implemented in
        :mod:`repro.multimatch`) reuses their operand field as the RE
        identifier — see :attr:`Instruction.match_id`.
        """
        return self in (Opcode.SPLIT, Opcode.JMP, Opcode.MATCH, Opcode.NOT_MATCH)


#: Width of the operand field; addresses and characters must fit here.
OPERAND_BITS = 13
MAX_OPERAND = (1 << OPERAND_BITS) - 1
#: Programs are bounded by the address space of jump/split operands.
MAX_PROGRAM_LENGTH = 1 << OPERAND_BITS


class Instruction:
    """One Cicero instruction: an opcode plus a 13-bit operand.

    The operand is a target address for control flow and a character
    code for ``MATCH``/``NOT_MATCH``.  For acceptance instructions the
    base ISA leaves it zero; the multi-matching ISA extension
    (paper §8, :mod:`repro.multimatch`) stores the RE identifier there,
    exposed as :attr:`match_id`.  ``MATCH_ANY`` takes no operand.

    Instructions are immutable values and uniqued like
    :class:`~repro.ir.attributes.CharAttr`: ``Instruction(Opcode.MATCH,
    97) is match("a")``.  Every program shares the one instance per
    ``(opcode, operand)`` — at most 7 × 2¹³ of them — so a compiled
    program adds no object for the cyclic garbage collector to walk
    beyond its list.  The operand must be an ``int`` (not a ``bool``):
    a ``97.0`` or ``True`` admitted once would become the shared
    instance every later program gets.
    """

    __slots__ = ("opcode", "operand")

    opcode: Opcode
    operand: int

    def __new__(cls, opcode, operand: int = 0) -> "Instruction":
        if type(operand) is not int:
            operand = _check_operand_type(operand)
        shared = _INSTRUCTIONS.get((opcode, operand))
        if shared is not None:
            return shared
        opcode = Opcode(opcode)
        if not 0 <= operand <= MAX_OPERAND:
            raise ValueError(f"operand {operand} does not fit {OPERAND_BITS} bits")
        # The one opcode with neither an operand nor a match id.
        if operand != 0 and opcode is Opcode.MATCH_ANY:
            raise ValueError(f"{opcode.mnemonic} takes no operand")
        shared = super().__new__(cls)
        object.__setattr__(shared, "opcode", opcode)
        object.__setattr__(shared, "operand", operand)
        return _INSTRUCTIONS.setdefault((opcode, operand), shared)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Unpickling and copying go back through the table.
        return Instruction, (self.opcode, self.operand)

    def __eq__(self, other) -> bool:
        if type(other) is not Instruction:
            return NotImplemented
        return self.opcode == other.opcode and self.operand == other.operand

    def __hash__(self) -> int:
        return hash((self.opcode, self.operand))

    def __repr__(self) -> str:
        return f"Instruction(opcode={self.opcode!r}, operand={self.operand!r})"

    @property
    def match_id(self) -> int:
        """The RE identifier of an acceptance instruction (0 = untagged)."""
        return self.operand if self.opcode.is_acceptance else 0

    def render(self, address: int = None) -> str:
        """Disassembly in the paper's Listing-2 style."""
        prefix = f"{address:03d}: " if address is not None else ""
        if self.opcode is Opcode.SPLIT:
            fallthrough = address + 1 if address is not None else "+1"
            return f"{prefix}SPLIT      {{{fallthrough},{self.operand}}}"
        if self.opcode is Opcode.JMP:
            return f"{prefix}JMP to     {self.operand}"
        if self.opcode in (Opcode.MATCH, Opcode.NOT_MATCH):
            char = chr(self.operand)
            shown = f"char {char}" if char.isprintable() else f"char 0x{self.operand:02X}"
            return f"{prefix}{self.opcode.mnemonic:<10} {shown}"
        return f"{prefix}{self.opcode.mnemonic}"


#: The one :class:`Instruction` per ``(opcode, operand)``, filled on first use.
_INSTRUCTIONS: dict = {}

#: ``shared_instruction((opcode, operand))`` is that instruction if it has
#: been built before, else ``None``: one dict lookup where calling
#: :class:`Instruction` costs a constructor call, for code generators
#: that encode the same few instructions over and over.
shared_instruction = _INSTRUCTIONS.get


def _check_operand_type(operand) -> int:
    """An ``int`` subclass other than ``bool`` as a plain ``int``."""
    if isinstance(operand, bool) or not isinstance(operand, int):
        raise ValueError(
            f"operand must be an int, not {type(operand).__name__}: {operand!r}"
        )
    return int(operand)


def accept() -> Instruction:
    return Instruction(Opcode.ACCEPT)


def accept_partial() -> Instruction:
    return Instruction(Opcode.ACCEPT_PARTIAL)


def split(target: int) -> Instruction:
    return Instruction(Opcode.SPLIT, target)


def jmp(target: int) -> Instruction:
    return Instruction(Opcode.JMP, target)


def match_any() -> Instruction:
    return Instruction(Opcode.MATCH_ANY)


def match(char) -> Instruction:
    code = ord(char) if isinstance(char, str) else int(char)
    return Instruction(Opcode.MATCH, code)


def not_match(char) -> Instruction:
    code = ord(char) if isinstance(char, str) else int(char)
    return Instruction(Opcode.NOT_MATCH, code)
