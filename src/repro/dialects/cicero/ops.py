"""The ``cicero`` dialect: low-level IR mapping 1:1 onto the Cicero ISA.

Operation set (paper Table 4):

=================  ==============================  =====================
Cicero ISA         Operation                       Arguments
=================  ==============================  =====================
Accept             ``cicero.accept``
Accept Partial     ``cicero.accept_partial``
Split              ``cicero.split``                ``splitReturn: @sym``
Jump               ``cicero.jump``                 ``target: @sym``
MatchAny           ``cicero.match_any``
Match              ``cicero.match_char``           ``char``
NotMatch           ``cicero.not_match_char``       ``char``
=================  ==============================  =====================

Structure: a ``cicero.program`` op holds one region with a single block
whose operation order *is* the instruction-memory layout (the "mapping of
basic blocks to instruction memory" happens at lowering, §3).  Control
flow targets are symbolic until code generation: any instruction op may
carry a ``sym_name`` label, and ``cicero.split``/``cicero.jump``
reference labels, so transformations may insert and remove instructions
without address fix-ups.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Union

from ...ir.attributes import CharAttr, StringAttr, SymbolRefAttr
from ...ir.context import Dialect
from ...ir.diagnostics import UNKNOWN_LOCATION, VerificationError
from ...ir.operation import Operation

CICERO_DIALECT = Dialect("cicero", "Low-level IR for the Cicero ISA (paper §3.3)")


#: The regions of every instruction op: none, and one shared empty tuple
#: rather than a list per op for the garbage collector to track.
_NO_REGIONS = ()


class CiceroInstructionOp(Operation):
    """Base class of the seven instruction ops; handles labels.

    A compile builds hundreds of these, all region-free, so each
    constructor fills the Operation slots itself, in one call, instead
    of going through the generic attribute-wrapping, region-building
    constructor.
    """

    def __init__(self, label: Optional[str] = None, location=UNKNOWN_LOCATION):
        self.name = self.OP_NAME
        self.attributes = {} if label is None else {"sym_name": StringAttr(label)}
        self.regions = _NO_REGIONS
        self._parent_block = None
        self.location = location

    @property
    def label(self) -> Optional[str]:
        attr = self.attributes.get("sym_name")
        return attr.value if attr is not None else None

    def set_label(self, label: Optional[str]) -> None:
        if label is None:
            self.attributes.pop("sym_name", None)
        else:
            self.attributes["sym_name"] = StringAttr(label)

    @property
    def source(self) -> Optional[str]:
        """The source-regex fragment this instruction was lowered from.

        Provenance for the profiler's attribution reports; carried as an
        open ``source`` attribute so transforms that move or duplicate
        instructions keep it alive without special handling.
        """
        attr = self.attributes.get("source")
        return attr.value if attr is not None else None

    def set_source(self, fragment: Optional[str]) -> None:
        if fragment is None:
            self.attributes.pop("source", None)
        else:
            self.attributes["source"] = StringAttr(fragment)

    def verify_op(self) -> None:
        self.expect_num_regions(0)
        label = self.attributes.get("sym_name")
        if label is not None and not isinstance(label, StringAttr):
            raise VerificationError("'sym_name' must be a string", self)

    #: Does control continue to the next op after this one?  Acceptance
    #: ends the thread; a jump transfers unconditionally.  Everything
    #: else (including split, which also continues at its target) falls
    #: through.
    falls_through = True


@CICERO_DIALECT.register_op
class AcceptOp(CiceroInstructionOp):
    """Accept only if the whole input has been consumed."""

    OP_NAME = "cicero.accept"
    falls_through = False


@CICERO_DIALECT.register_op
class AcceptPartialOp(CiceroInstructionOp):
    """Accept at any point in the input stream."""

    OP_NAME = "cicero.accept_partial"
    falls_through = False


class _BranchOp(CiceroInstructionOp):
    """A split or jump: one symbolic target under ``TARGET_ATTR``.

    A target is a label's name or the ``SymbolRefAttr`` naming it —
    immutable, so every branch to one label may share one instance.
    """

    TARGET_ATTR: str

    def __init__(self, target=None, label=None, location=UNKNOWN_LOCATION):
        self.name = self.OP_NAME
        attributes = {} if label is None else {"sym_name": StringAttr(label)}
        if target is not None:
            attributes[self.TARGET_ATTR] = (
                target if type(target) is SymbolRefAttr else SymbolRefAttr(target)
            )
        self.attributes = attributes
        self.regions = _NO_REGIONS
        self._parent_block = None
        self.location = location

    @property
    def target(self) -> str:
        return self.attributes[self.TARGET_ATTR].name

    def set_target(self, label: Union[str, SymbolRefAttr]) -> None:
        self.attributes[self.TARGET_ATTR] = (
            label if isinstance(label, SymbolRefAttr) else SymbolRefAttr(label)
        )

    def verify_op(self) -> None:
        super().verify_op()
        self.expect_attr(self.TARGET_ATTR, SymbolRefAttr)


@CICERO_DIALECT.register_op
class SplitOp(_BranchOp):
    """Fork execution: one thread falls through, one jumps to the target."""

    OP_NAME = "cicero.split"
    TARGET_ATTR = "splitReturn"


@CICERO_DIALECT.register_op
class JumpOp(_BranchOp):
    """Unconditional jump to the target label."""

    OP_NAME = "cicero.jump"
    TARGET_ATTR = "target"
    falls_through = False


@CICERO_DIALECT.register_op
class MatchAnyOp(CiceroInstructionOp):
    """Consume any one character."""

    OP_NAME = "cicero.match_any"


class _CharOp(CiceroInstructionOp):
    """A match or not-match: one byte operand under ``char``: a
    :class:`CharAttr`, a byte value or a one-character string."""

    def __init__(self, char=None, label=None, location=UNKNOWN_LOCATION):
        self.name = self.OP_NAME
        attributes = {} if label is None else {"sym_name": StringAttr(label)}
        if char is not None:
            attributes["char"] = char if type(char) is CharAttr else CharAttr(char)
        self.attributes = attributes
        self.regions = _NO_REGIONS
        self._parent_block = None
        self.location = location

    @property
    def code(self) -> int:
        return self.attributes["char"].value

    def verify_op(self) -> None:
        super().verify_op()
        self.expect_attr("char", CharAttr)


@CICERO_DIALECT.register_op
class MatchCharOp(_CharOp):
    """Consume the current character if it equals the operand."""

    OP_NAME = "cicero.match_char"


@CICERO_DIALECT.register_op
class NotMatchCharOp(_CharOp):
    """Continue (without consuming) if the current character differs."""

    OP_NAME = "cicero.not_match_char"


TARGET_CARRYING_OPS = (SplitOp, JumpOp)
ACCEPTANCE_OPS = (AcceptOp, AcceptPartialOp)


@CICERO_DIALECT.register_op
class ProgramOp(Operation):
    """Container whose single block is the instruction-memory layout."""

    OP_NAME = "cicero.program"

    def __init__(self, **kwargs):
        super().__init__(num_regions=1, **kwargs)

    @property
    def instructions(self):
        return self.body_ops()

    def _label_table(self, values: Iterable) -> dict:
        """Label → the entry of ``values`` at the labelled op's position."""
        entries = [
            (op.attributes["sym_name"].value, value)
            for op, value in zip(self.instructions, values)
            if "sym_name" in op.attributes
        ]
        table = dict(entries)
        if len(table) != len(entries):
            seen = set()
            for label, _ in entries:
                if label in seen:
                    raise VerificationError(f"duplicate label '{label}'", self)
                seen.add(label)
        return table

    def label_map(self) -> Dict[str, int]:
        """Label → instruction index (i.e. the address after layout)."""
        return self._label_table(itertools.count())

    def labelled_ops(self) -> Dict[str, CiceroInstructionOp]:
        """Label → the instruction carrying it."""
        return self._label_table(self.instructions)

    def verify_op(self) -> None:
        self.expect_num_regions(1)
        for op in self.instructions:
            if not isinstance(op, CiceroInstructionOp):
                raise VerificationError(
                    f"'cicero.program' may only contain cicero instructions, "
                    f"found '{op.name}'",
                    self,
                )
        labels = self.label_map()
        for op in self.instructions:
            if isinstance(op, TARGET_CARRYING_OPS) and op.target not in labels:
                raise undefined_label(op, self)


def undefined_label(op: Operation, where: Operation) -> VerificationError:
    """The typed error for ``op``, whose target no instruction carries."""
    return VerificationError(
        f"'{op.name}' targets undefined label '{op.target}'", where
    )


def programs_under(root: Operation) -> List[ProgramOp]:
    """Every ``cicero.program`` at or below ``root``, in layout order.

    Stops at each program: instructions hold no regions, so there is
    nothing to find beneath one.
    """
    if isinstance(root, ProgramOp):
        return [root]
    return [
        program
        for region in root.regions
        for block in region.blocks
        for op in block.operations
        for program in programs_under(op)
    ]
