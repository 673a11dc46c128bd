"""Attribute system for the IR framework.

Attributes are immutable, hashable values attached to operations, exactly
as in MLIR.  The regex and cicero dialects only need a small zoo:

* :class:`BoolAttr`, :class:`IntegerAttr`, :class:`StringAttr` — scalars.
* :class:`CharAttr` — a single byte (the operand of ``Match``/``NoMatch``).
* :class:`ArrayAttr` — an ordered sequence of attributes.
* :class:`CharSetAttr` — the 256-entry boolean bitmap of ``GroupOp``.
* :class:`SymbolRefAttr` — a symbolic reference to a labelled operation,
  used for jump/split targets before address assignment.

Every attribute knows how to print itself in the textual IR syntax and the
parser in :mod:`repro.ir.parser` knows how to read each form back.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

from .diagnostics import IRError

_PRINTABLE = set(range(0x21, 0x7F))  # visible ASCII, no space
_CHARSET_ESCAPES = {ord("\\"), ord('"'), ord("-")}


class Attribute:
    """Base class of all attributes.  Subclasses must be immutable."""

    __slots__ = ()

    def to_text(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.to_text()})"


class BoolAttr(Attribute):
    """A boolean attribute, printed as ``true`` / ``false``."""

    __slots__ = ("value",)

    def __init__(self, value: bool):
        object.__setattr__(self, "value", bool(value))

    def __setattr__(self, name, value):
        raise IRError("attributes are immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, BoolAttr) and other.value == self.value

    def __hash__(self) -> int:
        return hash((BoolAttr, self.value))

    def __bool__(self) -> bool:
        return self.value

    def to_text(self) -> str:
        return "true" if self.value else "false"


class IntegerAttr(Attribute):
    """A 64-bit signed integer attribute."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        object.__setattr__(self, "value", int(value))

    def __setattr__(self, name, value):
        raise IRError("attributes are immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerAttr) and other.value == self.value

    def __hash__(self) -> int:
        return hash((IntegerAttr, self.value))

    def __int__(self) -> int:
        return self.value

    def to_text(self) -> str:
        return str(self.value)


class StringAttr(Attribute):
    """A UTF-8 string attribute, printed with double quotes."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        object.__setattr__(self, "value", str(value))

    def __setattr__(self, name, value):
        raise IRError("attributes are immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, StringAttr) and other.value == self.value

    def __hash__(self) -> int:
        return hash((StringAttr, self.value))

    def to_text(self) -> str:
        escaped = self.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'


class CharAttr(Attribute):
    """A single byte (0..255), the operand of match instructions.

    Printed as ``char 'a'`` for printable ASCII and ``char 0xNN``
    otherwise.  The value space is 256 wide, so instances are uniqued:
    ``CharAttr(97) is CharAttr("a")``.
    """

    __slots__ = ("value",)

    def __new__(cls, value):
        shared = _CHAR_ATTRS.get(value)
        if shared is not None:  # ``value`` is a byte value seen before
            return shared
        if isinstance(value, str):
            if len(value) != 1:
                raise IRError(f"CharAttr expects one character, got {value!r}")
            value = ord(value)
        value = int(value)
        if not 0 <= value <= 255:
            raise IRError(f"CharAttr value out of byte range: {value}")
        shared = _CHAR_ATTRS.get(value)
        if shared is None:
            shared = super().__new__(cls)
            object.__setattr__(shared, "value", value)
            shared = _CHAR_ATTRS.setdefault(value, shared)
        return shared

    def __setattr__(self, name, value):
        raise IRError("attributes are immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, CharAttr) and other.value == self.value

    def __hash__(self) -> int:
        return hash((CharAttr, self.value))

    @property
    def char(self) -> str:
        return chr(self.value)

    def to_text(self) -> str:
        if self.value in _PRINTABLE and self.value not in (ord("'"), ord("\\")):
            return f"char '{chr(self.value)}'"
        return f"char 0x{self.value:02X}"


#: The one :class:`CharAttr` per byte value, filled on first use.
_CHAR_ATTRS: dict = {}


class ArrayAttr(Attribute):
    """An ordered, immutable sequence of attributes."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[Attribute]):
        elems = tuple(elements)
        for elem in elems:
            if not isinstance(elem, Attribute):
                raise IRError(f"ArrayAttr element is not an Attribute: {elem!r}")
        object.__setattr__(self, "elements", elems)

    def __setattr__(self, name, value):
        raise IRError("attributes are immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, ArrayAttr) and other.elements == self.elements

    def __hash__(self) -> int:
        return hash((ArrayAttr, self.elements))

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def to_text(self) -> str:
        return "[" + ", ".join(elem.to_text() for elem in self.elements) + "]"


def _set_bits(mask: int) -> Tuple[int, ...]:
    """Positions of the set bits of ``mask``, ascending."""
    positions = []
    while mask:
        lowest = mask & -mask
        positions.append(lowest.bit_length() - 1)
        mask ^= lowest
    return tuple(positions)


class CharSetAttr(Attribute):
    """The boolean bitmap argument of ``GroupOp`` (paper Table 3).

    Stored as a 256-bit integer mask for cheap set algebra.  Printed in a
    compact range syntax, e.g. ``charset"a-cx\\x0A"``.
    """

    __slots__ = ("mask", "_chars")

    def __init__(self, chars: Iterable = (), mask: int = None):
        if mask is None:
            mask = 0
            for item in chars:
                code = ord(item) if isinstance(item, str) else int(item)
                if not 0 <= code <= 255:
                    raise IRError(f"charset member out of byte range: {code}")
                mask |= 1 << code
        if mask < 0 or mask >> 256:
            raise IRError("charset mask must fit in 256 bits")
        object.__setattr__(self, "mask", mask)
        # Decoded member tuple, filled by the first chars() call: the
        # attribute is immutable, so every later reader shares it.
        object.__setattr__(self, "_chars", None)

    def __setattr__(self, name, value):
        raise IRError("attributes are immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, CharSetAttr) and other.mask == self.mask

    def __hash__(self) -> int:
        return hash((CharSetAttr, self.mask))

    def __contains__(self, item) -> bool:
        code = ord(item) if isinstance(item, str) else int(item)
        return bool(self.mask >> code & 1)

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def chars(self) -> Tuple[int, ...]:
        """Member byte values in ascending order."""
        members = self._chars
        if members is None:
            members = _set_bits(self.mask)
            object.__setattr__(self, "_chars", members)
        return members

    def ranges(self) -> Tuple[Tuple[int, int], ...]:
        """Members grouped into inclusive ``(lo, hi)`` runs."""
        runs = []
        run_start = None
        prev = None
        for code in self.chars():
            if run_start is None:
                run_start = prev = code
            elif code == prev + 1:
                prev = code
            else:
                runs.append((run_start, prev))
                run_start = prev = code
        if run_start is not None:
            runs.append((run_start, prev))
        return tuple(runs)

    def complement(self) -> "CharSetAttr":
        return CharSetAttr(mask=~self.mask & (1 << 256) - 1)

    def union(self, other: "CharSetAttr") -> "CharSetAttr":
        return CharSetAttr(mask=self.mask | other.mask)

    @staticmethod
    def _escape(code: int) -> str:
        if code in _PRINTABLE and code not in _CHARSET_ESCAPES:
            return chr(code)
        if code in _CHARSET_ESCAPES:
            return "\\" + chr(code)
        return f"\\x{code:02X}"

    def to_text(self) -> str:
        parts = []
        for lo, hi in self.ranges():
            if hi - lo >= 2:
                parts.append(f"{self._escape(lo)}-{self._escape(hi)}")
            else:
                parts.extend(self._escape(code) for code in range(lo, hi + 1))
        return f'charset"{"".join(parts)}"'


class SymbolRefAttr(Attribute):
    """A reference to a labelled operation, printed as ``@name``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name:
            raise IRError("symbol reference needs a non-empty name")
        object.__setattr__(self, "name", str(name))

    def __setattr__(self, name, value):
        raise IRError("attributes are immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, SymbolRefAttr) and other.name == self.name

    def __hash__(self) -> int:
        return hash((SymbolRefAttr, self.name))

    def to_text(self) -> str:
        return f"@{self.name}"


def wrap_attribute(value) -> Attribute:
    """Coerce a plain Python value into the matching :class:`Attribute`.

    Booleans must be checked before integers because ``bool`` subclasses
    ``int``.
    """
    if isinstance(value, Attribute):
        return value
    if isinstance(value, bool):
        return BoolAttr(value)
    if isinstance(value, int):
        return IntegerAttr(value)
    if isinstance(value, str):
        return StringAttr(value)
    if isinstance(value, (list, tuple)):
        return ArrayAttr(wrap_attribute(elem) for elem in value)
    if isinstance(value, (set, frozenset)):
        return CharSetAttr(value)
    raise IRError(f"cannot convert {value!r} to an attribute")
