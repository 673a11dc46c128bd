"""Sub-regex simplification / canonicalization (paper §3.2, first set).

Removes unnecessary parentheses while respecting operator precedence:

* ``(abc)``  → ``abc``   (unquantified group inlined into the parent)
* ``(a+)``   → ``a+``    (unquantified group around a single piece)
* ``(a)+``   → ``a+``    (quantifier hoisted onto the single inner atom)
* ``(a|b)``  → branches spliced into the parent alternation when the
  group is the only piece of its branch
* ``(a{2,3}){4,7}`` stays unchanged — the paper deliberately keeps nested
  quantifiers unmerged.

All rewrites preserve the recognized language exactly.
"""

from __future__ import annotations

from typing import List

from ....ir.operation import Operation
from ....ir.rewriter import RewritePattern
from ..ops import ConcatenationOp, PieceOp, RootOp, SubRegexOp


def _single_branch(sub_regex: Operation):
    """The group's only concatenation, or None if it has several."""
    branches = sub_regex.alternatives
    if len(branches) == 1:
        return branches[0]
    return None


class InlineUnquantifiedSubRegex(RewritePattern):
    """``x(abc)y`` → ``xabcy``: splice a single-branch, unquantified group.

    Covers both ``(abc)`` → ``abc`` (multi-piece) and ``(a+)`` → ``a+``
    (single piece keeping its own quantifier).
    """

    op_name = PieceOp.OP_NAME
    benefit = 2

    def match_and_rewrite(self, op: Operation) -> bool:
        atom = op.atom
        if not isinstance(atom, SubRegexOp) or op.bounds != (1, 1):
            return False
        branch = _single_branch(atom)
        if branch is None:
            return False
        inner_pieces: List[Operation] = list(branch.pieces)
        for piece in inner_pieces:
            piece.erase()
        op.replace_with(*inner_pieces)
        return True


class HoistQuantifierIntoSubRegex(RewritePattern):
    """``(a)+`` → ``a+``: group of one unquantified piece, outer quantified."""

    op_name = PieceOp.OP_NAME
    benefit = 2

    def match_and_rewrite(self, op: Operation) -> bool:
        atom = op.atom
        if not isinstance(atom, SubRegexOp):
            return False
        if op.bounds == (1, 1):
            return False  # handled by InlineUnquantifiedSubRegex
        branch = _single_branch(atom)
        if branch is None or len(branch.pieces) != 1:
            return False
        inner_piece = branch.pieces[0]
        if inner_piece.bounds != (1, 1):
            return False  # nested quantifiers stay unmerged (paper §3.2)
        inner_atom = inner_piece.atom
        inner_atom.erase()
        atom.replace_with(inner_atom)
        return True


class SpliceAlternationSubRegex(RewritePattern):
    """``(a|b)`` alone in a branch → hoist its branches to the parent.

    Matches on the *parent* alternation container so replacing whole
    branches is a local rewrite; one instance anchors on ``regex.root``,
    one on ``regex.sub_regex``.
    """

    benefit = 1

    def __init__(self, op_name: str):
        self.op_name = op_name

    def match_and_rewrite(self, op: Operation) -> bool:
        block = op.regions[0].entry_block
        for branch in list(block.operations):
            pieces = branch.pieces
            if len(pieces) != 1:
                continue
            piece = pieces[0]
            if piece.bounds != (1, 1):
                continue
            atom = piece.atom
            if not isinstance(atom, SubRegexOp):
                continue
            inner_branches = list(atom.alternatives)
            if len(inner_branches) < 2:
                continue  # single-branch case is InlineUnquantifiedSubRegex's
            for inner in inner_branches:
                inner.erase()
            branch.replace_with(*inner_branches)
            return True
        return False


def simplify_subregex_patterns() -> List[RewritePattern]:
    return [
        InlineUnquantifiedSubRegex(),
        HoistQuantifierIntoSubRegex(),
        SpliceAlternationSubRegex(RootOp.OP_NAME),
        SpliceAlternationSubRegex(SubRegexOp.OP_NAME),
    ]
