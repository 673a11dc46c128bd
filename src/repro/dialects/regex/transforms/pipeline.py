"""Pass wrappers for the high-level transforms and their default order.

Each §3.2 transform set is "optional and can be enabled or disabled
individually by toggling different compiler options" — mirrored here by
constructing the pipeline from :class:`~repro.api.CompileOptions` flags
(see :func:`regex_optimization_passes`).
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


def regex_optimization_passes(
    enable_simplify_subregex: bool = True,
    enable_factorize: bool = True,
    enable_boundary_quantifier: bool = True,
) -> List[Pass]:
    """The high-level pipeline in the paper's order.

    Simplification runs first (it exposes common prefixes by removing
    parentheses), factorization second, and the shortest-match reduction
    last (it works on the outermost pieces, which the earlier passes may
    have just created).
    """
    passes: List[Pass] = []
    if enable_simplify_subregex:
        passes.append(SimplifySubRegexPass())
    if enable_factorize:
        passes.append(FactorizeAlternationsPass())
    if enable_boundary_quantifier:
        passes.append(BoundaryQuantifierPass())
    return passes
