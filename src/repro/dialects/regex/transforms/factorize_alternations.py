"""Alternation prefix factorization (paper §3.2, second set).

Applies the distributivity of concatenation over alternation to pull
common prefixes out of alternations, for the root and for sub-regexes::

    this|that|those  →  th(is|at|ose)
    a(bc|bd)         →  a(b(c|d))

The rewrite groups branches whose *first piece* is structurally equal
(atom and quantifier), extracts the longest common piece prefix of each
group, and wraps the remainders in a fresh ``regex.sub_regex``.  Since
the Cicero ISA has no capture groups or match priorities, regrouping
branches preserves the recognized language.

A branch that ends in ``$`` is never factored: the end anchor is only
expressible at the end of a *top-level* branch (it lowers to the
exact-end ``ACCEPT``), so moving ``gb$`` of ``ga|gb$`` into ``g(a|b$)``
would turn a valid pattern into a lowering error.  Such a branch stays
where it is and the rest of its group is factored without it.
"""

from __future__ import annotations

from typing import List, Sequence

from ....ir.operation import Operation
from ....ir.rewriter import RewritePattern
from ..ops import ConcatenationOp, DollarOp, PieceOp, RootOp, SubRegexOp


def _common_prefix_length(branches: Sequence[Operation]) -> int:
    """Longest k such that the first k pieces of all branches are equal."""
    limit = min(len(branch.pieces) for branch in branches)
    length = 0
    while length < limit:
        reference = branches[0].pieces[length]
        if all(
            branch.pieces[length].is_structurally_equal(reference)
            for branch in branches[1:]
        ):
            length += 1
        else:
            break
    return length


def _factor_group(branches: List[Operation], prefix_length: int) -> Operation:
    """Build ``prefix(sub_regex of remainders)`` from equal-prefix branches."""
    factored = ConcatenationOp(location=branches[0].location)
    factored_block = factored.regions[0].entry_block

    # Move the shared prefix from the first branch; drop it from the rest.
    for index in range(prefix_length):
        piece = branches[0].pieces[0]
        piece.erase()
        factored_block.append(piece)
    for branch in branches[1:]:
        for _ in range(prefix_length):
            branch.pieces[0].erase()

    remainder = SubRegexOp(location=branches[0].location)
    remainder_block = remainder.regions[0].entry_block
    for branch in branches:
        remainder_block.append(branch)

    wrapper = PieceOp(location=branches[0].location)
    wrapper.regions[0].entry_block.append(remainder)
    factored_block.append(wrapper)
    return factored


class FactorizeCommonPrefix(RewritePattern):
    """One factoring step on a root/sub-regex alternation.

    Finds the first group of two or more branches sharing an equal first
    piece and factors their longest common prefix.  The greedy driver
    iterates this (and re-offers the new inner sub-regex) to a fixpoint,
    so ``this|that|those`` converges to ``th(is|at|ose)`` and
    ``bc|bd`` inside a group converges to ``b(c|d)``.  One instance
    anchors on ``regex.root``, one on ``regex.sub_regex``.
    """

    benefit = 1

    def __init__(self, op_name: str):
        self.op_name = op_name

    def match_and_rewrite(self, op: Operation) -> bool:
        block = op.regions[0].entry_block
        branches = list(block.operations)
        if len(branches) < 2:
            return False

        # Group branches by their first piece, preserving first-seen
        # order.  Empty and '$'-terminated branches join no group.
        groups: List[List[Operation]] = []
        for branch in branches:
            pieces = branch.pieces
            if not pieces or isinstance(pieces[-1].atom, DollarOp):
                continue
            for group in groups:
                if group[0].pieces[0].is_structurally_equal(pieces[0]):
                    group.append(branch)
                    break
            else:
                groups.append([branch])

        target = next((group for group in groups if len(group) > 1), None)
        if target is None:
            return False

        prefix_length = _common_prefix_length(target)
        assert prefix_length >= 1

        # Splice the factored branch where the group's first member was,
        # keeping the relative order of untouched branches.
        insert_at = block.index_of(target[0])
        for branch in target:
            branch.erase()
        factored = _factor_group(target, prefix_length)
        block.insert(insert_at, factored)
        return True


def factorize_patterns() -> List[RewritePattern]:
    return [
        FactorizeCommonPrefix(RootOp.OP_NAME),
        FactorizeCommonPrefix(SubRegexOp.OP_NAME),
    ]
