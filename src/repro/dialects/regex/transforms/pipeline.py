"""Pass wrappers (and registration) for the high-level transforms.

Their default order, and the :class:`~repro.compiler.CompileOptions`
flag that toggles each, live in :mod:`repro.compiler`.
"""

from __future__ import annotations

from typing import Callable, List

from ....ir.operation import Operation
from ....ir.pass_manager import Pass, register_pass
from ....ir.rewriter import RewritePattern, apply_patterns_greedily
from .boundary_quantifier import boundary_quantifier_patterns
from .factorize_alternations import factorize_patterns
from .simplify_subregex import simplify_subregex_patterns


class _PatternPass(Pass):
    """Apply ``patterns()`` greedily; keeps the run's statistics."""

    patterns: Callable[[], List[RewritePattern]]

    def run(self, root: Operation) -> None:
        self.statistics = apply_patterns_greedily(root, self.patterns())


class SimplifySubRegexPass(_PatternPass):
    """Canonicalize sub-regexes (remove unnecessary parentheses)."""

    PASS_NAME = "regex-simplify-subregex"
    patterns = staticmethod(simplify_subregex_patterns)


class FactorizeAlternationsPass(_PatternPass):
    """Factor common prefixes out of alternations."""

    PASS_NAME = "regex-factorize-alternations"
    patterns = staticmethod(factorize_patterns)


class BoundaryQuantifierPass(_PatternPass):
    """Shortest-match-aware quantifier reduction at pattern boundaries."""

    PASS_NAME = "regex-boundary-quantifier"
    patterns = staticmethod(boundary_quantifier_patterns)


register_pass(SimplifySubRegexPass)
register_pass(FactorizeAlternationsPass)
register_pass(BoundaryQuantifierPass)

