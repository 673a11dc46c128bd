#!/usr/bin/env python3
"""Compiler explorer: watch a pattern move through every pipeline stage.

Prints, for one pattern (default: the §3.2 showcase
``this|that|those|x(a+)b{2,5}``):

* the AST from the frontend;
* the `regex` dialect IR before and after each high-level transform
  (sub-regex simplification, alternation factorization, shortest-match
  boundary reduction);
* the `cicero` dialect IR before and after Jump Simplification + DCE;
* the final assembly of both compilers with their static metrics.

Run:  python examples/compiler_explorer.py ['pattern']
"""

import sys

from repro.compiler import CompileOptions, compile_regex
from repro.dialects.regex.emit_pattern import emit_pattern
from repro.dialects.regex.from_ast import regex_to_module
from repro.dialects.regex.transforms.pipeline import (
    BoundaryQuantifierPass,
    FactorizeAlternationsPass,
    SimplifySubRegexPass,
)
from repro.frontend.ast_nodes import dump
from repro.frontend.parser import parse_regex
from repro.ir.printer import print_op
from repro.isa.metrics import static_metrics
from repro.oldcompiler.compiler import compile_regex_old

DEFAULT_PATTERN = "this|that|those|x(a+)b{2,5}"


def banner(title: str) -> None:
    print()
    print("-" * 70)
    print(title)
    print("-" * 70)


def main() -> None:
    pattern = sys.argv[1] if len(sys.argv) > 1 else DEFAULT_PATTERN
    print(f"pattern: {pattern!r}")

    banner("stage 1 — frontend: AST")
    print(dump(parse_regex(pattern)))

    banner("stage 2 — `regex` dialect (fresh from the AST)")
    module = regex_to_module(pattern)
    print(print_op(module))

    for title, transform in (
        ("after regex-simplify-subregex", SimplifySubRegexPass()),
        ("after regex-factorize-alternations", FactorizeAlternationsPass()),
        ("after regex-boundary-quantifier (shortest-match)",
         BoundaryQuantifierPass()),
    ):
        transform.run(module)
        banner(f"stage 3 — {title}")
        root = module.body.operations[0]
        print(f"as a pattern: {emit_pattern(root)!r}")
        print(print_op(module))

    banner("stage 4 — `cicero` dialect before low-level optimization")
    unopt = compile_regex(pattern, CompileOptions(cicero_pipeline=()))
    print(print_op(unopt.cicero_module))

    banner("stage 5 — after cicero-jump-simplification + cicero-dce")
    optimized = compile_regex(pattern)
    print(print_op(optimized.cicero_module))

    banner("final assembly — new compiler")
    print(optimized.program.disassemble())

    banner("final assembly — old compiler (Code Restructuring)")
    old = compile_regex_old(pattern, optimize=True)
    print(old.program.disassemble())

    banner("static metrics")
    print(f"{'':24s}{'size':>6s}{'D_offset':>10s}{'jumps':>7s}{'splits':>8s}")
    for label, program in (
        ("new w/o optimization", compile_regex(pattern, CompileOptions.none()).program),
        ("new w/ optimization", optimized.program),
        ("old w/ restructuring", old.program),
    ):
        metrics = static_metrics(program)
        print(f"{label:24s}{metrics.code_size:6d}{metrics.d_offset:10d}"
              f"{metrics.num_jumps:7d}{metrics.num_splits:8d}")


if __name__ == "__main__":
    main()
