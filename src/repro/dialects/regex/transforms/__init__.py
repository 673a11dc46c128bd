"""High-level transformation passes over the ``regex`` dialect (§3.2)."""

from .boundary_quantifier import (
    ReduceBoundaryQuantifiers,
    boundary_quantifier_patterns,
)
from .factorize_alternations import FactorizeCommonPrefix, factorize_patterns
from .pipeline import (
    BoundaryQuantifierPass,
    FactorizeAlternationsPass,
    SimplifySubRegexPass,
)
from .simplify_subregex import (
    HoistQuantifierIntoSubRegex,
    InlineUnquantifiedSubRegex,
    SpliceAlternationSubRegex,
    simplify_subregex_patterns,
)

__all__ = [
    "BoundaryQuantifierPass",
    "FactorizeAlternationsPass",
    "FactorizeCommonPrefix",
    "HoistQuantifierIntoSubRegex",
    "InlineUnquantifiedSubRegex",
    "ReduceBoundaryQuantifiers",
    "SimplifySubRegexPass",
    "SpliceAlternationSubRegex",
    "boundary_quantifier_patterns",
    "factorize_patterns",
    "simplify_subregex_patterns",
]
