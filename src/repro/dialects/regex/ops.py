"""The ``regex`` dialect: high-level, architecture-agnostic RE IR.

Operation set (paper Table 3):

================  ==========================================
RE operator       Operation
================  ==========================================
root              ``regex.root {hasPrefix, hasSuffix}``
sequence          ``regex.concatenation``
piece wrapper     ``regex.piece``
``{min,max}``     ``regex.quantifier {min, max}``
literal           ``regex.match_char {char}``
``.``             ``regex.match_any_char``
``[...]``         ``regex.group {targetChars, negated}``
``(...)``         ``regex.sub_regex``
``$``             ``regex.dollar``
================  ==========================================

Structural conventions:

* ``regex.root`` and ``regex.sub_regex`` hold a single region whose ops
  are all ``regex.concatenation``; consecutive concatenations are
  implicitly joined by ``|`` (paper §3.1).
* ``regex.concatenation`` holds ``regex.piece`` ops in match order.
* ``regex.piece`` holds exactly one *atom* op, optionally followed by one
  ``regex.quantifier`` that applies to that atom.  (The paper's Listing 1
  sketches ``c{3,6}`` with the atom pre-replicated; we keep the
  unexpanded single-atom form and let the lowering do the replication,
  which is semantically identical and keeps high-level transforms
  simple.)
* ``regex.group`` stores the characters *written in the class* plus a
  ``negated`` flag, so the lowering can emit the paper's
  ``NotMatch…;MatchAny`` sequence for ``[^...]``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ...ir.attributes import BoolAttr, CharAttr, CharSetAttr, IntegerAttr
from ...ir.context import Dialect
from ...ir.diagnostics import UNKNOWN_LOCATION, Location, VerificationError
from ...ir.operation import Operation

UNBOUNDED = -1

REGEX_DIALECT = Dialect("regex", "High-level IR for RE semantics (paper §3.1)")


def _check_region_ops(op: Operation, region_index: int, allowed: Iterable[str]) -> None:
    allowed = set(allowed)
    for region_op in op.regions[region_index].ops():
        if region_op.name not in allowed:
            raise VerificationError(
                f"'{op.name}' region may only contain {sorted(allowed)}, "
                f"found '{region_op.name}'",
                op,
            )


@REGEX_DIALECT.register_op
class RootOp(Operation):
    """Top-level pattern op; region = implicitly alternated concatenations."""

    OP_NAME = "regex.root"

    def __init__(
        self,
        has_prefix: bool = True,
        has_suffix: bool = True,
        location: Location = UNKNOWN_LOCATION,
    ):
        self._init_slots(
            {"hasPrefix": BoolAttr(has_prefix), "hasSuffix": BoolAttr(has_suffix)},
            location,
            body=True,
        )

    @property
    def has_prefix(self) -> bool:
        return self.bool_attr("hasPrefix")

    @has_prefix.setter
    def has_prefix(self, value: bool) -> None:
        self.set_attr("hasPrefix", value)

    @property
    def has_suffix(self) -> bool:
        return self.bool_attr("hasSuffix")

    @has_suffix.setter
    def has_suffix(self, value: bool) -> None:
        self.set_attr("hasSuffix", value)

    @property
    def alternatives(self):
        return self.body_ops()

    def verify_op(self) -> None:
        self.expect_num_regions(1)
        self.expect_attr("hasPrefix", BoolAttr)
        self.expect_attr("hasSuffix", BoolAttr)
        _check_region_ops(self, 0, [ConcatenationOp.OP_NAME])
        if not self.alternatives:
            raise VerificationError("'regex.root' needs at least one branch", self)


@REGEX_DIALECT.register_op
class ConcatenationOp(Operation):
    """A sequence of pieces; an empty region matches the empty string."""

    OP_NAME = "regex.concatenation"

    def __init__(self, location: Location = UNKNOWN_LOCATION):
        self._init_slots({}, location, body=True)

    @property
    def pieces(self):
        return self.body_ops()

    def verify_op(self) -> None:
        self.expect_num_regions(1)
        _check_region_ops(self, 0, [PieceOp.OP_NAME])


ATOM_OP_NAMES = frozenset(
    {
        "regex.match_char",
        "regex.match_any_char",
        "regex.group",
        "regex.sub_regex",
        "regex.dollar",
    }
)


@REGEX_DIALECT.register_op
class PieceOp(Operation):
    """Wrapper of one atom plus an optional trailing quantifier."""

    OP_NAME = "regex.piece"

    def __init__(self, location: Location = UNKNOWN_LOCATION):
        self._init_slots({}, location, body=True)

    @property
    def atom(self) -> Operation:
        return self.regions[0].blocks[0].operations[0]

    @property
    def quantifier(self) -> Optional["QuantifierOp"]:
        ops = self.regions[0].blocks[0].operations
        if len(ops) == 2:
            return ops[1]
        return None

    @property
    def bounds(self):
        """(min, max) applied to the atom; (1, 1) when unquantified."""
        ops = self.regions[0].blocks[0].operations
        if len(ops) != 2:
            return (1, 1)
        attributes = ops[1].attributes
        return (attributes["min"].value, attributes["max"].value)

    def set_bounds(self, minimum: int, maximum: int) -> None:
        """Set/replace/remove the quantifier to encode ``(min, max)``."""
        quantifier = self.quantifier
        if (minimum, maximum) == (1, 1):
            if quantifier is not None:
                quantifier.erase()
            return
        if quantifier is None:
            self.regions[0].entry_block.append(QuantifierOp(minimum, maximum))
        else:
            quantifier.set_attr("min", minimum)
            quantifier.set_attr("max", maximum)

    def verify_op(self) -> None:
        self.expect_num_regions(1)
        ops = self.body_ops()
        if not ops:
            raise VerificationError("'regex.piece' needs an atom", self)
        if ops[0].name not in ATOM_OP_NAMES:
            raise VerificationError(
                f"'regex.piece' first op must be an atom, got '{ops[0].name}'",
                self,
            )
        if len(ops) > 2:
            raise VerificationError(
                "'regex.piece' may hold one atom and one quantifier only", self
            )
        if len(ops) == 2 and ops[1].name != QuantifierOp.OP_NAME:
            raise VerificationError(
                f"'regex.piece' second op must be a quantifier, got '{ops[1].name}'",
                self,
            )


@REGEX_DIALECT.register_op
class QuantifierOp(Operation):
    """Repetition bounds for the preceding atom; max = -1 is unbounded."""

    OP_NAME = "regex.quantifier"

    def __init__(
        self, minimum: int = 1, maximum: int = 1, location: Location = UNKNOWN_LOCATION
    ):
        self._init_slots(
            {"min": IntegerAttr(minimum), "max": IntegerAttr(maximum)}, location
        )

    @property
    def minimum(self) -> int:
        return self.int_attr("min")

    @property
    def maximum(self) -> int:
        return self.int_attr("max")

    def verify_op(self) -> None:
        self.expect_num_regions(0)
        self.expect_attr("min", IntegerAttr)
        self.expect_attr("max", IntegerAttr)
        if self.minimum < 0:
            raise VerificationError("quantifier min must be >= 0", self)
        if self.maximum != UNBOUNDED and self.maximum < self.minimum:
            raise VerificationError("quantifier max must be >= min or -1", self)


@REGEX_DIALECT.register_op
class MatchCharOp(Operation):
    """Match one specific byte."""

    OP_NAME = "regex.match_char"

    def __init__(self, char=None, location: Location = UNKNOWN_LOCATION):
        self._init_slots({} if char is None else {"char": CharAttr(char)}, location)

    @property
    def code(self) -> int:
        return self.attributes["char"].value

    def verify_op(self) -> None:
        self.expect_num_regions(0)
        self.expect_attr("char", CharAttr)


@REGEX_DIALECT.register_op
class MatchAnyCharOp(Operation):
    """Match any byte (the ``.`` wildcard)."""

    OP_NAME = "regex.match_any_char"

    def __init__(self, location: Location = UNKNOWN_LOCATION):
        self._init_slots({}, location)

    def verify_op(self) -> None:
        self.expect_num_regions(0)


@REGEX_DIALECT.register_op
class GroupOp(Operation):
    """A character class; ``targetChars`` holds the written members."""

    OP_NAME = "regex.group"

    def __init__(
        self,
        chars: Iterable = (),
        negated: bool = False,
        location: Location = UNKNOWN_LOCATION,
    ):
        charset = chars if isinstance(chars, CharSetAttr) else CharSetAttr(chars)
        self._init_slots(
            {"targetChars": charset, "negated": BoolAttr(negated)}, location
        )

    @property
    def charset(self) -> CharSetAttr:
        return self.attributes["targetChars"]

    @property
    def negated(self) -> bool:
        return self.bool_attr("negated")

    def matches(self, code: int) -> bool:
        inside = code in self.charset
        return not inside if self.negated else inside

    def verify_op(self) -> None:
        self.expect_num_regions(0)
        self.expect_attr("targetChars", CharSetAttr)
        self.expect_attr("negated", BoolAttr)
        if len(self.charset) == 0:
            raise VerificationError("'regex.group' charset is empty", self)


@REGEX_DIALECT.register_op
class SubRegexOp(Operation):
    """A parenthesized sub-pattern; region mirrors ``regex.root``'s."""

    OP_NAME = "regex.sub_regex"

    def __init__(self, location: Location = UNKNOWN_LOCATION):
        self._init_slots({}, location, body=True)

    @property
    def alternatives(self):
        return self.body_ops()

    def verify_op(self) -> None:
        self.expect_num_regions(1)
        _check_region_ops(self, 0, [ConcatenationOp.OP_NAME])
        if not self.alternatives:
            raise VerificationError(
                "'regex.sub_regex' needs at least one branch", self
            )


@REGEX_DIALECT.register_op
class DollarOp(Operation):
    """Match the end of the input string."""

    OP_NAME = "regex.dollar"

    def __init__(self, location: Location = UNKNOWN_LOCATION):
        self._init_slots({}, location)

    def verify_op(self) -> None:
        self.expect_num_regions(0)
