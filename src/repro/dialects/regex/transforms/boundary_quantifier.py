"""Boundary quantifier reduction (paper §3.2, third set).

For engines that report *any* match (rather than the longest one), a
quantified piece at a pattern boundary adjacent to the implicit ``.*``
can be reduced to its minimum repetition count::

    a{2,3}|b{4,5}  →  a{2}|b{4}
    abcd*|efgh+    →  abc|efgh
    ab+.*          →  ab.*          (paper §3.2)
    ab*$           →  unchanged     (suffix wildcard explicitly disabled)

Soundness: with ``.*`` after the pattern, any input containing
``x{min+k}·rest`` also contains ``x{min}`` followed by characters the
wildcard absorbs, so *whether* a match exists is preserved — only the
matched span changes (hence "shortest-match aware").  Reduction of the
leading piece is symmetric through the ``.*`` prefix.

The rewrite only touches the outermost pieces of the root's branches:
reducing inside a sub-regex or mid-branch would change the language.
This is the only transform of §3.2 that is not fully
semantics-preserving, so it is its own pass
(``regex-boundary-quantifier``), which a pipeline may leave out.
"""

from __future__ import annotations

from typing import List, Optional

from ....ir.operation import Operation
from ....ir.rewriter import RewritePattern
from ..ops import DollarOp, RootOp, UNBOUNDED


def _reduce_piece(piece: Operation) -> Optional[str]:
    """Reduce one boundary piece; returns what changed (or None).

    ``x{min,max}`` with ``max > min`` becomes ``x{min}``; a piece whose
    minimum is zero is removed outright.
    """
    minimum, maximum = piece.bounds
    if isinstance(piece.atom, DollarOp):
        return None  # '$' is a zero-width anchor, not reducible
    if minimum == 0:
        piece.erase()
        return "erased"
    if maximum != minimum:
        piece.set_bounds(minimum, minimum)
        return "reduced"
    return None


def _reduce_boundary(branch: Operation, last: bool) -> bool:
    """Reduce the boundary piece; keep going while pieces get erased."""
    changed = False
    while branch.pieces:
        piece = branch.pieces[-1] if last else branch.pieces[0]
        outcome = _reduce_piece(piece)
        if outcome is None:
            break
        changed = True
        if outcome == "reduced":
            break  # now {min,min}; a second reduction cannot apply
    return changed


class ReduceBoundaryQuantifiers(RewritePattern):
    """Reduce leading/trailing quantified pieces of every root branch."""

    op_name = RootOp.OP_NAME

    def match_and_rewrite(self, op: Operation) -> bool:
        changed = False
        for branch in op.alternatives:
            if op.has_suffix:
                changed |= _reduce_boundary(branch, last=True)
            if op.has_prefix:
                changed |= _reduce_boundary(branch, last=False)
        return changed


def boundary_quantifier_patterns() -> List[RewritePattern]:
    return [ReduceBoundaryQuantifiers()]
