"""Mini-MLIR IR framework: contexts, dialects, operations, passes.

This package implements the subset of MLIR infrastructure that the
paper's two dialects (``regex`` and ``cicero``) need: attribute-carrying
region-based operations, dialect registration, a textual printer/parser,
greedy pattern rewriting, and a pass manager with per-pass timing.
"""

from .attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    CharAttr,
    CharSetAttr,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    wrap_attribute,
)
from .builder import Builder
from .context import Context, Dialect, default_context
from .diagnostics import (
    CodegenError,
    IRError,
    Location,
    LoweringError,
    ParseError,
    ReproError,
    UNKNOWN_LOCATION,
    VerificationError,
)
from .operation import Block, ModuleOp, Operation, Region
from .parser import parse_op
from .pass_manager import (
    FunctionPass,
    Pass,
    PassManager,
    create_pass,
    register_pass,
    registered_pass_names,
)
from .printer import print_op
from .rewriter import (
    GreedyRewriteDriver,
    RewritePattern,
    RewriteStatistics,
    apply_patterns_greedily,
)

__all__ = [
    "ArrayAttr",
    "Attribute",
    "Block",
    "BoolAttr",
    "Builder",
    "CharAttr",
    "CharSetAttr",
    "CodegenError",
    "Context",
    "Dialect",
    "FunctionPass",
    "GreedyRewriteDriver",
    "IRError",
    "IntegerAttr",
    "Location",
    "LoweringError",
    "ModuleOp",
    "Operation",
    "ParseError",
    "Pass",
    "PassManager",
    "Region",
    "ReproError",
    "RewritePattern",
    "RewriteStatistics",
    "StringAttr",
    "SymbolRefAttr",
    "UNKNOWN_LOCATION",
    "VerificationError",
    "apply_patterns_greedily",
    "create_pass",
    "default_context",
    "parse_op",
    "print_op",
    "register_pass",
    "registered_pass_names",
    "wrap_attribute",
]
