"""Pattern-rewrite infrastructure.

This is the greedy pattern application driver the paper's
canonicalization-style transforms run on (MLIR's
``applyPatternsAndFoldGreedily`` in miniature): a set of
:class:`RewritePattern` s is applied to every operation under a root until
a fixpoint is reached or the iteration budget is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from .diagnostics import IRError
from .operation import Operation


class RewritePattern:
    """One local rewrite.

    Subclasses set :attr:`op_name` to the operation they anchor on (or
    ``None`` to be offered every op) and implement :meth:`match_and_rewrite`
    returning ``True`` when they changed the IR.  Patterns must only modify
    the matched op and its descendants/siblings — never ancestors — so the
    driver's traversal stays sound.
    """

    #: Anchor operation name, e.g. ``"regex.sub_regex"``; ``None`` = any op.
    op_name: Optional[str] = None

    #: Patterns with higher benefit run first on each op.
    benefit: int = 1

    def match_and_rewrite(self, op: Operation) -> bool:
        raise NotImplementedError

    @property
    def pattern_name(self) -> str:
        return type(self).__name__


@dataclass
class RewriteStatistics:
    """Counts gathered by one driver invocation."""

    iterations: int = 0
    total_rewrites: int = 0
    rewrites_by_pattern: dict = field(default_factory=dict)
    #: False when the iteration budget ran out while patterns were still
    #: firing (e.g. two patterns undoing each other): the IR is then
    #: wherever the last sweep left it, not in normal form.
    converged: bool = True

    def record(self, pattern: RewritePattern) -> None:
        self.total_rewrites += 1
        name = pattern.pattern_name
        self.rewrites_by_pattern[name] = self.rewrites_by_pattern.get(name, 0) + 1


class GreedyRewriteDriver:
    """Applies patterns bottom-up until fixpoint."""

    def __init__(self, patterns: Iterable[RewritePattern], max_iterations: int = 64):
        self.patterns: List[RewritePattern] = sorted(
            patterns, key=lambda pattern: -pattern.benefit
        )
        if max_iterations < 1:
            raise IRError("max_iterations must be positive")
        self.max_iterations = max_iterations
        self._by_op_name: Dict[str, List[RewritePattern]] = {}

    def _patterns_for(self, op: Operation) -> Sequence[RewritePattern]:
        """The patterns anchored on ``op``'s name, computed once per name."""
        patterns = self._by_op_name.get(op.name)
        if patterns is None:
            patterns = self._by_op_name[op.name] = [
                pattern
                for pattern in self.patterns
                if pattern.op_name is None or pattern.op_name == op.name
            ]
        return patterns

    def apply(self, root: Operation) -> RewriteStatistics:
        """Rewrite everything nested under ``root`` (root itself included).

        Returns the statistics of the run; ``total_rewrites == 0`` means
        the IR was already in normal form, ``converged`` false that the
        iteration budget ended the run instead of a fixpoint.
        """
        stats = RewriteStatistics()
        by_name = self._by_op_name
        for _ in range(self.max_iterations):
            stats.iterations += 1
            changed = False
            # Post-order so children are simplified before their parents,
            # which lets parent patterns assume canonical children.
            for op in root.walk_post_order():
                patterns = by_name.get(op.name)
                if patterns is None:
                    patterns = self._patterns_for(op)
                if not patterns:
                    continue
                if op is not root and op.parent_block is None:
                    continue  # erased by an earlier rewrite this sweep
                for pattern in patterns:
                    if pattern.match_and_rewrite(op):
                        stats.record(pattern)
                        changed = True
                        break  # op may have been replaced; move on
            if not changed:
                return stats
        stats.converged = False
        return stats


def apply_patterns_greedily(
    root: Operation,
    patterns: Iterable[RewritePattern],
    max_iterations: int = 64,
) -> RewriteStatistics:
    """Convenience wrapper over :class:`GreedyRewriteDriver`."""
    return GreedyRewriteDriver(patterns, max_iterations=max_iterations).apply(root)
