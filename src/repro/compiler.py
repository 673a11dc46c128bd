"""The paper's *new* compiler: the multi-dialect MLIR-based pipeline (§3).

Stages (Figure 2, right-hand side):

1. parse the textual RE into an AST (frontend);
2. convert the AST into the high-level ``regex`` dialect;
3. run the §3.2 high-level transforms;
4. lower into the ``cicero`` dialect, mapping basic blocks to
   instruction memory and inserting control instructions;
5. run the §5 architecture-oriented transforms (Jump Simplification and
   the dead-code sweep);
6. generate the final binary-level :class:`~repro.isa.Program`.

:class:`CompileOptions` names the passes each pipeline runs; the
defaults correspond to the "w/ optimizations" configuration of §6.1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .dialects.cicero.codegen import generate_program
from .dialects.cicero.lowering import lower_to_cicero
from .dialects.cicero.transforms.dce import DeadCodeEliminationPass
from .dialects.cicero.transforms.jump_simplification import JumpSimplificationPass
from .dialects.regex.from_ast import pattern_to_regex_dialect
from .dialects.regex.transforms.pipeline import (
    BoundaryQuantifierPass,
    FactorizeAlternationsPass,
    SimplifySubRegexPass,
)
from .frontend.parser import parse_regex
from .ir.operation import ModuleOp
from .ir.pass_manager import pipeline_from_names
from .isa.metrics import StaticMetrics, static_metrics
from .isa.program import Program
from .observability import NULL_TRACER, TraceReport, ir_stats
from .observability.tracer import AnyTracer
from .runtime.budget import Budget, DEFAULT_BUDGET
from .runtime.guards import check_pattern_budget

COMPILER_NAME = "new-mlir"

#: The paper's hand-ordered pipeline — the one place the default order
#: is spelled.  §3.2: simplification first (removing parentheses exposes
#: common prefixes), factorization second, the shortest-match reduction
#: last (it works on the outermost pieces, which the earlier passes may
#: have just created).  §5: Jump Simplification, then the sweep that
#: collects the instructions threading left unreachable.
DEFAULT_REGEX_PIPELINE = (
    SimplifySubRegexPass.PASS_NAME,
    FactorizeAlternationsPass.PASS_NAME,
    BoundaryQuantifierPass.PASS_NAME,
)
DEFAULT_CICERO_PIPELINE = (
    JumpSimplificationPass.PASS_NAME,
    DeadCodeEliminationPass.PASS_NAME,
)


@dataclass(frozen=True)
class CompileOptions:
    """Which passes run, and the checks and limits around them.

    The two pass lists are the only pass selector: registered pass
    names in run order, possibly empty, possibly repeating a pass.
    ``None`` runs the paper's order (:data:`DEFAULT_REGEX_PIPELINE` /
    :data:`DEFAULT_CICERO_PIPELINE`), the "w/ optimizations"
    configuration of §6.1; :meth:`none` runs no pass ("w/o").  Names
    must belong to the matching dialect (``regex-*`` / ``cicero-*``);
    an unknown or wrong-dialect name raises
    :class:`~repro.ir.diagnostics.IRError` at compile time.
    """

    regex_pipeline: Optional[Tuple[str, ...]] = None
    cicero_pipeline: Optional[Tuple[str, ...]] = None
    #: Verify the IR between passes (off for benchmark timing runs).
    verify_each: bool = False
    #: Resource limits enforced through the pipeline; ``None`` applies
    #: :data:`repro.runtime.budget.DEFAULT_BUDGET`.
    budget: Optional[Budget] = None

    def pipelines(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """The ``(regex, cicero)`` pass names that will run, in order."""
        return (
            DEFAULT_REGEX_PIPELINE if self.regex_pipeline is None
            else self.regex_pipeline,
            DEFAULT_CICERO_PIPELINE if self.cicero_pipeline is None
            else self.cicero_pipeline,
        )

    def cache_key(self) -> tuple:
        """A stable, hashable identity for compiled-pattern caches.

        Options that run the same :meth:`pipelines` and agree on
        ``verify_each`` and the budget yield equal keys, so ``None`` and
        the explicit default lists share one entry.
        """
        regex, cicero = self.pipelines()
        budget = self.budget.cache_key() if self.budget is not None else None
        return (
            ("regex_pipeline", regex),
            ("cicero_pipeline", cicero),
            ("verify_each", self.verify_each),
            ("budget", budget),
        )

    @classmethod
    def none(cls) -> "CompileOptions":
        return cls(regex_pipeline=(), cicero_pipeline=())


@dataclass
class CompilationResult:
    """Everything the pipeline produced, including IR snapshots."""

    pattern: str
    program: Program
    options: CompileOptions
    regex_module: ModuleOp
    cicero_module: ModuleOp
    #: Always empty.  Kept only because ``benchmarks/layered/wl_compile.py``
    #: reads it for its ``runtime.degrade.dropped_passes`` row; it goes
    #: with that row.
    dropped_passes: List[str] = field(default_factory=list)
    #: The span tree of this compilation (a tracer handed to
    #: :class:`NewCompiler`); ``None`` when untraced.
    trace: Optional[TraceReport] = None

    @property
    def analysis(self):
        """The attached :class:`~repro.prefilter.analysis.PrefilterAnalysis`."""
        return self.program.analysis

    @property
    def metrics(self) -> StaticMetrics:
        return static_metrics(self.program)


@dataclass
class FrontHalf:
    """What :meth:`NewCompiler.front` hands :meth:`NewCompiler.back`."""

    pattern: str
    #: The ``regex``-dialect module *after* the high-level pipeline.
    regex_module: ModuleOp
    #: Its :class:`~repro.prefilter.analysis.PrefilterAnalysis`.
    analysis: object
    #: Seconds the regex pipeline took: the pass-time budget covers
    #: both pipelines together, so the back half adds its own.
    pass_seconds: float


class NewCompiler:
    """The multi-dialect compiler; stateless apart from its options.

    The flow is cut at the dialect boundary: :meth:`compile` is
    :meth:`front` then :meth:`back`, which callers that keep their own
    tracer (:class:`~repro.engine.Engine`) or start from a ready-made
    module (:mod:`repro.fuzz.oracles`) call themselves.

    ``tracer`` is the one switch for span instrumentation: one root
    ``compile`` span with a child per stage (``frontend`` →
    ``to-regex-dialect`` → ``regex-transforms`` → ``lowering`` →
    ``cicero-transforms`` → ``codegen``), one ``pass:<name>`` span per
    pass carrying ``op_count``/``d_offset`` before/after attributes,
    and the result carries a :class:`~repro.observability.TraceReport`.
    A span's duration is the time of its stage or pass; nothing else
    times them.  The halves record into the tracer they are handed and
    never snapshot it.  Untraced, the only clock reads are one pair
    around each pass pipeline, for ``Budget.max_pass_seconds``.
    """

    name = COMPILER_NAME

    def __init__(
        self,
        options: Optional[CompileOptions] = None,
        tracer: Optional[AnyTracer] = None,
    ):
        self.options = options or CompileOptions()
        budget = self.options.budget
        self.budget = budget if budget is not None else DEFAULT_BUDGET
        self.tracer = tracer
        self._pass_names = dict(zip(("regex", "cicero"), self.options.pipelines()))

    def root_span(self, tracer: AnyTracer, pattern: str):
        """The ``compile`` span both halves of one compilation run under."""
        return tracer.span("compile", pattern=pattern, compiler=self.name)

    def _run_pipeline(self, dialect, root, tracer, spent=0.0) -> float:
        """One dialect's passes over ``root``, spanned and charged to the
        pass-time budget, which covers both pipelines together: ``spent``
        is what earlier pipelines took, and the sum is returned."""
        stage = f"{dialect}-transforms"
        manager = pipeline_from_names(
            self._pass_names[dialect],
            require_prefix=f"{dialect}-",
            verify_each=self.options.verify_each,
        )
        with tracer.span(stage, passes=len(manager.passes)):
            started = time.perf_counter()
            manager.run(root, tracer=tracer, span_attrs=ir_stats)
            spent += time.perf_counter() - started
        if manager.passes:
            self.budget.check_pass_time(spent, stage)
        return spent

    def front(
        self,
        pattern: str,
        tracer: AnyTracer = NULL_TRACER,
        module: Optional[ModuleOp] = None,
    ) -> FrontHalf:
        """Budget checks → parse → ``regex`` dialect → regex pipeline →
        prefilter analysis.  ``module`` is a ready-made ``regex``-dialect
        module to optimize in place of parsing ``pattern`` (the fuzzer's
        IR-level cases)."""
        options = self.options
        budget = self.budget
        if module is None:
            budget.check_pattern_length(pattern)
            with tracer.span("frontend", pattern_length=len(pattern)):
                ast = parse_regex(pattern, max_depth=budget.max_nesting_depth)
                check_pattern_budget(ast, budget)

            with tracer.span("to-regex-dialect") as span:
                module = pattern_to_regex_dialect(
                    ast, verify=options.verify_each
                )
                if tracer.enabled:
                    span.set(**_suffixed(ir_stats(module), "_after"))

        pass_seconds = self._run_pipeline("regex", module, tracer)

        # Imported lazily: repro.prefilter's execution layers import
        # this module back (multimatch compiler), so a top-level
        # import would be circular.  The module is cached after the
        # first compile, making this a dict lookup thereafter.
        from .prefilter.analysis import analyze_module

        with tracer.span("prefilter-analysis") as span:
            analysis = analyze_module(module)
            if tracer.enabled:
                span.set(**analysis.to_dict())
        return FrontHalf(pattern, module, analysis, pass_seconds)

    def back(
        self, front: FrontHalf, tracer: AnyTracer = NULL_TRACER
    ) -> Tuple[ModuleOp, Program]:
        """Lowering → cicero pipeline → codegen → program-size check."""
        options = self.options
        with tracer.span("lowering") as span:
            cicero_module = lower_to_cicero(
                front.regex_module, verify=options.verify_each
            )
            if tracer.enabled:
                span.set(**_suffixed(ir_stats(cicero_module), "_after"))

        self._run_pipeline("cicero", cicero_module, tracer, front.pass_seconds)

        with tracer.span("codegen") as span:
            program = generate_program(
                cicero_module.body.operations[0],
                source_pattern=front.pattern,
                compiler=self.name,
            )
            # The analysis describes the *pattern*, not a transform
            # of it, so it rides on the program: caches, pickles,
            # and worker processes all see the same metadata.
            program.analysis = front.analysis
            if tracer.enabled:
                metrics = static_metrics(program)
                span.set(
                    code_size=metrics.code_size,
                    d_offset=metrics.d_offset,
                    num_jumps=metrics.num_jumps,
                    num_splits=metrics.num_splits,
                )
        self.budget.check_program_size(len(program), front.pattern)
        return cicero_module, program

    def compile(self, pattern: str) -> CompilationResult:
        tracer = self.tracer if self.tracer is not None else NULL_TRACER
        with self.root_span(tracer, pattern) as root_span:
            front = self.front(pattern, tracer)
            cicero_module, program = self.back(front, tracer)
            if tracer.enabled:
                root_span.set(code_size=len(program))
        return CompilationResult(
            pattern=pattern,
            program=program,
            options=self.options,
            regex_module=front.regex_module,
            cicero_module=cicero_module,
            trace=(
                TraceReport.from_tracer(tracer) if tracer.enabled else None
            ),
        )


def _suffixed(stats: Dict[str, object], suffix: str) -> Dict[str, object]:
    """``{"op_count": 3}`` → ``{"op_count_after": 3}`` (span attrs)."""
    return {f"{key}{suffix}": value for key, value in stats.items()}


def compile_regex(
    pattern: str, options: Optional[CompileOptions] = None
) -> CompilationResult:
    """Compile with the new multi-dialect pipeline (module-level helper)."""
    return NewCompiler(options).compile(pattern)
