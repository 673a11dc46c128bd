"""``compile_suite``: the paper's fig 8/9/10 axis.

Every RE goes through a fresh ``NewCompiler().compile(p)`` with default
options and no cache.  Each emitted program is then run on a text
carrying a sampled member of the RE's language and on plain filler, and
both verdicts are checked against ``re.search``.

The traced run walks the same stages by hand — ``parse_regex`` →
``pattern_to_regex_dialect`` → each pass alone through a one-pass
``PassManager`` → ``analyze_module`` → ``lower_to_cicero`` → each pass →
``generate_program`` — and requires the emitted program to equal
``NewCompiler.compile``'s.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Dict, List

from repro.api import compile_pattern
from repro.compiler import COMPILER_NAME, NewCompiler
from repro.dialects.cicero.codegen import generate_program
from repro.dialects.cicero.lowering import lower_to_cicero
from repro.dialects.cicero.transforms.dce import DeadCodeEliminationPass
from repro.dialects.cicero.transforms.jump_simplification import (
    JumpSimplificationPass,
)
from repro.dialects.regex.from_ast import pattern_to_regex_dialect
from repro.dialects.regex.transforms.pipeline import (
    BoundaryQuantifierPass,
    FactorizeAlternationsPass,
    SimplifySubRegexPass,
)
from repro.frontend.parser import parse_regex
from repro.ir.pass_manager import PassManager
from repro.isa.metrics import static_metrics
from repro.observability import ir_stats
from repro.oldcompiler.compiler import OldCompiler
from repro.prefilter.analysis import analyze_module
from repro.runtime.budget import DEFAULT_BUDGET
from repro.runtime.guards import check_pattern_budget
from repro.vm.thompson import ThompsonVM
from repro.workloads import sample_match_for

from harness import Pass, Recorder, clock, percentile, time_operations
from inputs import oracle, residue_bytes, suite
from workload import Workload, verdict

SUITES = ("protomata", "brill", "protomata4", "brill4")

REGEX_PASSES = (
    ("dialects.regex.simplify_subregex", SimplifySubRegexPass),
    ("dialects.regex.factorize_alternations", FactorizeAlternationsPass),
    ("dialects.regex.boundary_quantifier", BoundaryQuantifierPass),
)
CICERO_PASSES = (
    ("dialects.cicero.jump_simplification", JumpSimplificationPass),
    ("dialects.cicero.dce", DeadCodeEliminationPass),
)
STAGES = (
    ("frontend", "dialects.regex.from_ast")
    + tuple(layer for layer, _ in REGEX_PASSES)
    + ("prefilter.analysis", "dialects.cicero.lowering")
    + tuple(layer for layer, _ in CICERO_PASSES)
    + ("dialects.cicero.codegen",)
)


def staged_compile(pattern: str, run: Callable):
    """``NewCompiler.compile``'s stages, each through ``run(layer, thunk,
    root)``; ``root`` is the IR a pass rewrites in place."""
    budget = DEFAULT_BUDGET
    tree = run(
        "frontend",
        lambda: parse_regex(pattern, max_depth=budget.max_nesting_depth),
    )
    check_pattern_budget(tree, budget)
    module = run(
        "dialects.regex.from_ast", lambda: pattern_to_regex_dialect(tree)
    )
    for layer, make_pass in REGEX_PASSES:
        manager = PassManager(verify_each=False).add(make_pass())
        run(layer, lambda: manager.run(module), module)
    analysis = run("prefilter.analysis", lambda: analyze_module(module))
    lowered = run("dialects.cicero.lowering", lambda: lower_to_cicero(module))
    for layer, make_pass in CICERO_PASSES:
        manager = PassManager(verify_each=False).add(make_pass())
        run(layer, lambda: manager.run(lowered), lowered)
    program = run(
        "dialects.cicero.codegen",
        lambda: generate_program(
            lowered.body.operations[0],
            source_pattern=pattern,
            compiler=COMPILER_NAME,
        ),
    )
    program.analysis = analysis
    return program


class CompileSuite(Workload):
    name = "compile_suite"
    work_unit = "REs"
    op = "NewCompiler().compile(p)"
    rate_alias = "patterns_per_s"
    tail_pct = 95

    per_suite = 40
    tiny = {"per_suite": 2}

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.patterns = [
            pattern for name in SUITES for pattern in suite(name)[: self.per_suite]
        ]
        rng.shuffle(self.patterns)
        # Two probe texts per RE: filler around a member of its language,
        # and filler alone; re.search says what each verdict must be.
        self.probes = []
        for pattern in self.patterns:
            filler = bytes(residue_bytes(rng, 64)).lower()
            member = sample_match_for(pattern, rng).encode("latin-1")
            texts = (filler[:32] + b" " + member + b" " + filler[32:], filler)
            matches = oracle(pattern)
            self.probes.append([(text, matches(text)) for text in texts])

    def corrupt_oracle(self) -> None:
        text, expected = self.probes[0][0]
        self.probes[0][0] = (text, not expected)

    def input_bytes(self) -> bytes:
        return repr((self.patterns, self.probes)).encode()

    def run_pass(self) -> Pass:
        def compile_fresh(pattern):
            return NewCompiler().compile(pattern).program

        wall, latencies, results = time_operations(
            [partial(compile_fresh, pattern) for pattern in self.patterns]
        )
        self.results = results
        self.latencies = latencies
        attempted = failed = code_size = d_offset = 0
        notes = []
        for pattern, program, probes in zip(self.patterns, results, self.probes):
            attempted += len(probes)
            if isinstance(program, Exception):
                failed += len(probes)
                notes.append(f"{pattern!r}: {program!r:.80}")
                continue
            metrics = static_metrics(program)
            code_size += metrics.code_size
            d_offset += metrics.d_offset
            vm = ThompsonVM(program)
            for text, expected in probes:
                if vm.run(text).matched != expected:
                    failed += 1
                    notes.append(
                        f"{pattern!r} on {text!r:.40}: program says "
                        f"{not expected}, re says {expected}"
                    )
        return Pass(
            wall=wall,
            work=len(self.patterns),
            latencies=latencies,
            attempted=attempted,
            failed=failed,
            exact={"compiler.code_size": code_size, "compiler.d_offset": d_offset},
            notes=notes,
        )

    # ------------------------------------------------------------------
    # Traced run
    # ------------------------------------------------------------------
    def trace_setup(self, rec: Recorder) -> Dict[str, float]:
        patterns = self.patterns
        # Reference rows for fig 8/9/10: the old compiler on the same REs.
        old = OldCompiler(optimize=True)
        with rec.span("oldcompiler"):
            old_metrics = [static_metrics(old.compile(p).program) for p in patterns]
        # optimize="auto" against the default, both through compile_pattern
        # (and so through the degradation ladder).
        started = clock()
        default = [compile_pattern(p) for p in patterns]
        default_seconds = clock() - started
        started = clock()
        tuned = [compile_pattern(p, optimize="auto") for p in patterns]
        tuned_seconds = clock() - started
        hits = sum(
            1
            for result in tuned
            if result.options.regex_pipeline is not None
            or result.options.cicero_pipeline is not None
        )
        return {
            "compiler.compile.p95_ms": 1e3 * percentile(sorted(self.latencies), 95),
            "oldcompiler.code_size": sum(m.code_size for m in old_metrics),
            "oldcompiler.d_offset": sum(m.d_offset for m in old_metrics),
            "tuning.auto.extra_s": tuned_seconds - default_seconds,
            "tuning.auto.hit_frac": hits / len(patterns),
            "runtime.degrade.dropped_passes": sum(
                len(result.dropped_passes) for result in default
            ),
        }

    def trace_pass(self, rec: Recorder) -> Dict[str, float]:
        leaf = rec.leaf

        def timed(layer, thunk, root=None):
            started = clock()
            result = thunk()
            leaf(layer, started, clock())
            return result

        inert = 0
        for pattern, reference in zip(self.patterns, self.results):
            with rec.span("compiler"):
                program = staged_compile(pattern, timed)
            inert += program.analysis.inert
            if program.instructions != reference.instructions:
                raise SystemExit(
                    f"compile_suite: staged program for {pattern!r} differs "
                    "from NewCompiler.compile's"
                )
        return {"prefilter.analysis.inert_frac": inert / len(self.patterns)}

    def trace_counts(self) -> Dict[str, float]:
        counts = {
            "dialects.regex.ops_after_from_ast": 0,
            "dialects.cicero.ops_after_lowering": 0,
            "dialects.cicero.jump_simplification.d_offset_delta": 0,
        }
        for layer, _ in REGEX_PASSES + CICERO_PASSES[1:]:
            counts[layer + ".ops_delta"] = 0

        def counted(layer, thunk, root=None):
            before = ir_stats(root) if root is not None else None
            result = thunk()
            if layer == "dialects.regex.from_ast":
                counts["dialects.regex.ops_after_from_ast"] += ir_stats(result)[
                    "op_count"
                ]
            elif layer == "dialects.cicero.lowering":
                counts["dialects.cicero.ops_after_lowering"] += ir_stats(result)[
                    "op_count"
                ]
            elif layer == "dialects.cicero.jump_simplification":
                counts[layer + ".d_offset_delta"] += (
                    ir_stats(root)["d_offset"] - before["d_offset"]
                )
            elif root is not None:
                counts[layer + ".ops_delta"] += (
                    ir_stats(root)["op_count"] - before["op_count"]
                )
            return result

        for pattern in self.patterns:
            staged_compile(pattern, counted)
        return counts

    def finish(self, layers: Dict[str, float]) -> List[str]:
        stages = sum(layers[layer + ".busy_s"] for layer in STAGES)
        layers["compiler.stage_sum_frac"] = stages / sum(self.latencies)
        layers["frontend.chars_per_s"] = (
            sum(len(pattern) for pattern in self.patterns)
            / layers["frontend.busy_s"]
        )
        ratio = layers["compiler.stage_sum_frac"]
        return [
            f"{verdict(abs(ratio - 1) <= 0.1)} "
            f"compiler.stage_sum_frac = {ratio:.3f} (want within 10 % of 1)"
        ]
