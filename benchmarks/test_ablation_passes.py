"""Ablation: each compiler optimization in isolation.

DESIGN.md calls out the design choices behind the new compiler; this
bench quantifies each one's contribution on the Protomata4 workload:

* Jump Simplification (the §5 locality optimization) — its removal must
  cost locality and cycles;
* the shortest-match boundary reduction — its removal must cost
  instruction count (executed work);
* factorization/simplification — structural code-size effects.
"""

from repro.arch.config import ArchConfig
from repro.compiler import CompileOptions
from repro.evaluation import compile_benchmark, format_table, run_on_config

from common import benchmark_data, print_banner

VARIANTS = (
    ("all passes", CompileOptions()),
    ("no jump simplification", CompileOptions(cicero_pipeline=())),
    ("no boundary reduction", CompileOptions(
        regex_pipeline=("regex-simplify-subregex", "regex-factorize-alternations"))),
    ("no factorization", CompileOptions(
        regex_pipeline=("regex-simplify-subregex", "regex-boundary-quantifier"))),
    ("no simplification", CompileOptions(
        regex_pipeline=("regex-factorize-alternations", "regex-boundary-quantifier"))),
    ("none", CompileOptions.none()),
)

CONFIG = ArchConfig.new(16)


def test_ablation_passes(benchmark):
    bench = benchmark_data("protomata4")

    def compute():
        results = {}
        for label, options in VARIANTS:
            compiled = compile_benchmark(bench, "new", options=options)
            row = run_on_config(compiled, CONFIG)
            results[label] = (compiled, row)
        return results

    results = benchmark.pedantic(compute, rounds=1, iterations=1)

    print_banner("Ablation — per-pass contribution on Protomata4 (NEW 16x1)")
    rows = []
    for label, _options in VARIANTS:
        compiled, row = results[label]
        rows.append(
            (
                label,
                f"{compiled.avg_code_size:.1f}",
                f"{compiled.avg_d_offset:.0f}",
                f"{row.avg_time_us:.2f}",
                f"{row.instructions}",
            )
        )
    print(format_table(
        ["variant", "code size", "D_offset", "time [µs/RE]", "executed instr"],
        rows,
    ))

    full_compiled, full_row = results["all passes"]
    none_compiled, none_row = results["none"]

    # The full pipeline beats no optimization on execution time.
    assert full_row.avg_time_us < none_row.avg_time_us

    # Jump simplification is the locality pass: dropping it must worsen
    # D_offset.
    assert results["no jump simplification"][0].avg_d_offset > (
        full_compiled.avg_d_offset
    )

    # Boundary reduction trims the code (shortest-match semantics drop
    # boundary repetitions).
    assert results["no boundary reduction"][0].avg_code_size > (
        full_compiled.avg_code_size
    )

    # Factorization removes redundant prefix re-exploration: without it
    # the engines execute measurably more instructions.
    assert results["no factorization"][1].instructions > full_row.instructions
