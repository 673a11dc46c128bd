"""Lowering from the ``regex`` dialect to the ``cicero`` dialect.

This stage performs the paper's "mapping of basic blocks to instruction
memory and insertion of control instructions" (§3): the nested high-level
IR is flattened into the linear instruction layout of ``cicero.program``,
with symbolic labels standing in for addresses until code generation.

The emitted layout matches the paper's Listing 2 (column "No
optimization") exactly:

* ``.*`` prefix: ``L: split(@body); match_any; jump(@L)``.
* Root alternation: each branch ends with a jump to a single shared
  acceptance op that sits right after the *first* branch; the branches
  are chained by splits placed at each branch's start.
* ``.*`` suffix: the shared acceptance is ``accept_partial``; without it
  (``$``), ``accept``.
* Quantifiers: ``{m,n}`` duplicates the atom ``m`` times then chains
  ``n-m`` optional copies (``split(@after); atom``); ``{m,}`` ends with a
  backward split over the last copy; ``*`` uses the split/jump loop.
* Character classes: positive classes become a split chain over their
  members; negated classes become the ``not_match…; match_any`` sequence
  (§3.3).

Nested sub-regex alternations join forward to a continuation label, with
the last branch falling through.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional

from ...ir.attributes import StringAttr, SymbolRefAttr
from ...ir.diagnostics import LoweringError
from ...ir.operation import Block, ModuleOp, Operation
from ..regex.emit_pattern import emit_piece
from ..regex.ops import (
    ConcatenationOp as RegexConcatenationOp,
    DollarOp as RegexDollarOp,
    GroupOp as RegexGroupOp,
    MatchAnyCharOp as RegexMatchAnyCharOp,
    MatchCharOp as RegexMatchCharOp,
    PieceOp as RegexPieceOp,
    RootOp as RegexRootOp,
    SubRegexOp as RegexSubRegexOp,
    UNBOUNDED,
)
from .ops import (
    AcceptOp,
    AcceptPartialOp,
    JumpOp,
    MatchAnyOp,
    MatchCharOp,
    NotMatchCharOp,
    ProgramOp,
    SplitOp,
)


#: Provenance of the control instructions no source piece stands for.
_PREFIX_SOURCE = StringAttr(".* prefix")
_ALTERNATION_SOURCE = StringAttr("(alternation)")
_ACCEPT_SOURCE = StringAttr("(accept)")


class _Emitter:
    """Appends instruction ops to the program block, managing labels.

    A label is the ``SymbolRefAttr`` that names it: every split and jump
    to the label shares that one attribute.  Several constructs may
    place their label at the same position (e.g. a sub-regex join point
    coinciding with the end of an optional chain); the first pending
    label is attached to the instruction and the rest become aliases,
    resolved over the emitted splits and jumps in :meth:`finish`.
    """

    def __init__(self, block: Block):
        self._operations = block.operations
        #: The weak upward link every emitted op shares.
        self._block_link = weakref.ref(block)
        self._label_counter = 0
        self._pending_labels: List[SymbolRefAttr] = []
        self._aliases: Dict[str, SymbolRefAttr] = {}
        #: Every split and jump emitted: the only ops an alias can reach.
        self._branches: List[Operation] = []
        #: Stamped on every emitted instruction: the rendered top-level
        #: piece being lowered — the unit the profiler's "70% of steps
        #: burned in ``(a|ab|b)*``" reports speak in — or ``None``.
        self.source: Optional[StringAttr] = None

    def fresh_label(self, hint: str = "L") -> SymbolRefAttr:
        self._label_counter += 1
        return SymbolRefAttr(f"{hint}{self._label_counter}")

    def place_label(self, label: SymbolRefAttr) -> None:
        """Attach ``label`` to the next emitted instruction."""
        self._pending_labels.append(label)

    def _attach_pending(self, op: Operation) -> None:
        canonical = self._pending_labels[0]
        op.attributes["sym_name"] = StringAttr(canonical.name)
        for alias in self._pending_labels[1:]:
            self._aliases[alias.name] = canonical
        self._pending_labels = []

    def emit(self, op: Operation, source: Optional[StringAttr] = None) -> Operation:
        if self._pending_labels:
            self._attach_pending(op)
        source = source or self.source
        if source is not None:
            op.attributes["source"] = source
        # Block.append minus its call: ``op`` is always freshly built.
        op._parent_block = self._block_link
        self._operations.append(op)
        return op

    def branch(
        self, op_class, target: SymbolRefAttr, source: Optional[StringAttr] = None
    ) -> None:
        """Emit a split or jump to ``target``."""
        op = op_class(target)
        self._branches.append(op)
        self.emit(op, source)

    def emit_run(self, ops: List[Operation], branches: List[Operation]) -> None:
        """Emit freshly built ``ops`` in order, the pending labels going to
        the first; ``branches`` are the splits and jumps among them.  One
        call for a whole character class."""
        if self._pending_labels:
            self._attach_pending(ops[0])
        source = self.source
        link = self._block_link
        for op in ops:
            if source is not None:
                op.attributes["source"] = source
            op._parent_block = link
        self._operations.extend(ops)
        self._branches.extend(branches)

    def finish(self) -> None:
        if self._pending_labels:
            raise LoweringError(
                f"labels {[label.name for label in self._pending_labels]} "
                "placed past the program end"
            )
        aliases = self._aliases
        if aliases:
            for op in self._branches:
                canonical = aliases.get(op.attributes[op.TARGET_ATTR].name)
                if canonical is not None:
                    op.attributes[op.TARGET_ATTR] = canonical


def _atom_nullable(atom: Operation) -> bool:
    """Can this atom match the empty string?"""
    if isinstance(atom, RegexSubRegexOp):
        return any(
            all(_piece_nullable(piece) for piece in branch.pieces)
            for branch in atom.alternatives
        )
    return isinstance(atom, RegexDollarOp)


def _piece_nullable(piece: RegexPieceOp) -> bool:
    minimum, _maximum = piece.bounds
    return minimum == 0 or _atom_nullable(piece.atom)


class RegexToCiceroLowering:
    """Stateful lowering of one ``regex.root``."""

    def __init__(self):
        self.emitter: Optional[_Emitter] = None

    # ------------------------------------------------------------------
    # Atoms
    # ------------------------------------------------------------------
    def lower_atom(self, atom: Operation) -> None:
        if isinstance(atom, RegexMatchCharOp):
            self.emitter.emit(MatchCharOp(atom.attributes["char"]))
        elif isinstance(atom, RegexMatchAnyCharOp):
            self.emitter.emit(MatchAnyOp())
        elif isinstance(atom, RegexGroupOp):
            self.lower_group(atom)
        elif isinstance(atom, RegexSubRegexOp):
            self.lower_alternation(list(atom.alternatives))
        elif isinstance(atom, RegexDollarOp):
            raise LoweringError(
                "'$' is only supported at the end of a branch "
                "(the Cicero ISA has no mid-pattern end-of-input test)"
            )
        else:
            raise LoweringError(f"cannot lower atom '{atom.name}'")

    def lower_group(self, group: RegexGroupOp) -> None:
        emitter = self.emitter
        codes = group.charset.chars()
        if group.negated:
            # [^ab] -> not_match a; not_match b; match_any   (paper §3.3)
            ops = [NotMatchCharOp(code) for code in codes]
            ops.append(MatchAnyOp())
            emitter.emit_run(ops, [])
            return
        if len(codes) == 1:
            emitter.emit(MatchCharOp(codes[0]))
            return
        # [abc] -> split chain over the members, joining after the class:
        # split(@g1); match a; jump(@G); g1: split(@g2); match b; ...
        # Each member's split carries the label the previous one targets.
        join = emitter.fresh_label("G")
        ops = []
        branches = []
        label = None
        for code in codes[:-1]:
            next_member = emitter.fresh_label("g")
            split = SplitOp(next_member, label)
            jump = JumpOp(join)
            ops += (split, MatchCharOp(code), jump)
            branches += (split, jump)
            label = next_member.name
        for code in codes[-1:]:  # the last member needs no split/jump
            ops.append(MatchCharOp(code, label))
        if ops:
            emitter.emit_run(ops, branches)
        emitter.place_label(join)

    # ------------------------------------------------------------------
    # Pieces (quantifiers)
    # ------------------------------------------------------------------
    def lower_piece(self, piece: RegexPieceOp) -> None:
        minimum, maximum = piece.bounds
        atom = piece.atom
        if isinstance(atom, RegexDollarOp):
            # Validated tail-position '$' is consumed by lower_branch.
            raise LoweringError("stray '$' inside a branch")
        if maximum == UNBOUNDED and _atom_nullable(atom):
            # The split/jump loop around an empty-matching body is an
            # ε-cycle: Cicero threads would respawn at the same input
            # position forever.  The ISA cannot express this.
            raise LoweringError(
                "unbounded quantifier over a possibly-empty sub-pattern "
                "(e.g. '(a?)*') cannot be lowered to the Cicero ISA"
            )
        if maximum == UNBOUNDED:
            if minimum == 0:
                self._lower_star(atom)
            else:
                for _ in range(minimum - 1):
                    self.lower_atom(atom)
                self._lower_plus(atom)
            return
        for _ in range(minimum):
            self.lower_atom(atom)
        optional_count = maximum - minimum
        if optional_count > 0:
            self._lower_optionals(atom, optional_count)

    def _lower_star(self, atom: Operation) -> None:
        """``x*``: ``L: split(@after); x; jump(@L); after:``."""
        loop = self.emitter.fresh_label("S")
        after = self.emitter.fresh_label("A")
        self.emitter.place_label(loop)
        self.emitter.branch(SplitOp, after)
        self.lower_atom(atom)
        self.emitter.branch(JumpOp, loop)
        self.emitter.place_label(after)

    def _lower_plus(self, atom: Operation) -> None:
        """``x+`` (last copy): ``L: x; split(@L)`` falling through after."""
        loop = self.emitter.fresh_label("P")
        self.emitter.place_label(loop)
        self.lower_atom(atom)
        self.emitter.branch(SplitOp, loop)

    def _lower_optionals(self, atom: Operation, count: int) -> None:
        """``x{0,count}``: a chain of ``split(@after); x`` copies."""
        after = self.emitter.fresh_label("O")
        for _ in range(count):
            self.emitter.branch(SplitOp, after)
            self.lower_atom(atom)
        self.emitter.place_label(after)

    # ------------------------------------------------------------------
    # Branches and alternations
    # ------------------------------------------------------------------
    def lower_branch(self, branch: RegexConcatenationOp, top_level=False) -> bool:
        """Lower one concatenation; returns True if it ended with ``$``.

        Only the pieces of a ``top_level`` (root) branch are rendered as
        provenance; everything nested inside one inherits its fragment.
        """
        pieces = list(branch.pieces)
        ends_with_dollar = False
        if pieces and isinstance(pieces[-1].atom, RegexDollarOp):
            if pieces[-1].bounds != (1, 1):
                raise LoweringError("'$' cannot be quantified")
            ends_with_dollar = True
            pieces = pieces[:-1]
        for piece in pieces:
            if top_level:
                self.emitter.source = StringAttr(emit_piece(piece))
            self.lower_piece(piece)
        if top_level:
            self.emitter.source = None
        return ends_with_dollar

    def lower_alternation(self, branches: List[Operation]) -> None:
        """Nested (sub-regex) alternation joining forward to one label."""
        if len(branches) == 1:
            self._lower_nested_branch(branches[0])
            return
        join = self.emitter.fresh_label("J")
        for branch in branches[:-1]:
            next_branch = self.emitter.fresh_label("B")
            self.emitter.branch(SplitOp, next_branch)
            self._lower_nested_branch(branch)
            self.emitter.branch(JumpOp, join)
            self.emitter.place_label(next_branch)
        self._lower_nested_branch(branches[-1])
        self.emitter.place_label(join)

    def _lower_nested_branch(self, branch: RegexConcatenationOp) -> None:
        if self.lower_branch(branch):
            raise LoweringError(
                "'$' is only supported at the end of a top-level branch"
            )

    # ------------------------------------------------------------------
    # Root
    # ------------------------------------------------------------------
    def lower_root(self, root: RegexRootOp) -> ProgramOp:
        program = ProgramOp(location=root.location)
        self.emitter = _Emitter(program.regions[0].entry_block)

        emitter = self.emitter
        if root.has_prefix:
            # .* prefix: L: split(@body); match_any; jump(@L); body: ...
            loop = emitter.fresh_label("PRE")
            body = emitter.fresh_label("BODY")
            emitter.place_label(loop)
            emitter.branch(SplitOp, body, _PREFIX_SOURCE)
            emitter.emit(MatchAnyOp(), _PREFIX_SOURCE)
            emitter.branch(JumpOp, loop, _PREFIX_SOURCE)
            emitter.place_label(body)

        accept_label = emitter.fresh_label("ACC")
        default_acceptance = (
            AcceptPartialOp if root.has_suffix else AcceptOp
        )

        branches = list(root.alternatives)
        accept_placed = False
        for index, branch in enumerate(branches):
            is_last = index == len(branches) - 1
            next_branch = None
            if not is_last:
                next_branch = emitter.fresh_label("B")
                emitter.branch(SplitOp, next_branch, _ALTERNATION_SOURCE)
            ends_with_dollar = self.lower_branch(branch, top_level=True)
            if ends_with_dollar and root.has_suffix:
                # A '$'-terminated branch of an implicit-suffix root needs
                # its own exact-acceptance op, distinct from the shared
                # accept_partial.
                emitter.emit(AcceptOp(), _ACCEPT_SOURCE)
            else:
                # Unoptimized Listing-2 layout: every branch ends with a
                # jump to the single shared acceptance, which sits right
                # after the first branch's jump (so that first jump
                # targets the very next address — Jump Simplification's
                # food).
                emitter.branch(JumpOp, accept_label, _ACCEPT_SOURCE)
                if not accept_placed:
                    emitter.place_label(accept_label)
                    emitter.emit(default_acceptance(), _ACCEPT_SOURCE)
                    accept_placed = True
            if next_branch is not None:
                emitter.place_label(next_branch)

        self.emitter.finish()
        return program


def lower_to_cicero(module: ModuleOp, verify: bool = False) -> ModuleOp:
    """Lower a module holding one ``regex.root`` to ``cicero.program``.

    ``verify=True`` re-checks the emitted program's invariants (tests
    and debug builds; code generation validates targets regardless).
    """
    roots = [op for op in module.body.operations if isinstance(op, RegexRootOp)]
    if len(roots) != 1:
        raise LoweringError(
            f"expected exactly one regex.root in the module, found {len(roots)}"
        )
    program = RegexToCiceroLowering().lower_root(roots[0])
    lowered = ModuleOp(location=module.location)
    lowered.body.append(program)
    if verify:
        lowered.verify()
    return lowered
