"""The multi-oracle differential harness.

One *case* is a pattern (text, or a pre-built ``regex``-dialect module
from :class:`~repro.fuzz.generators.ModuleGenerator`) plus a set of
probe inputs.  The harness compiles the pattern through every available
execution path and diffs the verdicts:

========== ===========================================================
``vm-pre``  the engine's matcher over the optimized program:
            literal/first-byte rejection, lazy-DFA verify, VM fallback
``old``     the paper's original direct-lowering compiler, on the VM
``sim``     cycle-level :class:`~repro.arch.system.CiceroSystem` over
            the optimized program; the one oracle off the VM kernel
``multi``   :class:`PrefilteredMultiMatchVM` over a 1-pattern program
``stream``  :class:`~repro.vm.streaming.StreamingMatcher` fed the input
            in seeded pseudo-random chunks (1–8 bytes, boundaries
            derived from ``crc32`` of the probe; the same seed picks one
            of two matchers built per case, lazy DFA or kernel alone) —
            the one-shot equivalence contract of the match service's
            ``/stream``
========== ===========================================================

plus two *program-level* oracles that need no inputs at all: the
:mod:`repro.verify` product-automaton equivalence of the optimized
program against the unoptimized one and against the old compiler's.
Each input-level oracle is the only one that kills some seeded source
mutant (``benchmarks/oracle_kills.py``; the matrix is
``BENCH_oracles.json``).

Verdicts reuse the :class:`~repro.runtime.errors.ReproError` taxonomy:
an oracle's answer is ``("ok", bool)``, ``("error", REPRO-code)`` — so
*two oracles rejecting with the same code agree* — or ``("skip",
reason)`` for capacity limits (a ``BudgetExceeded`` trip is a
legitimate asymmetry between oracles, never a disagreement).  Anything
else escaping an oracle is ``("crash", ...)``, which disagrees with
everything by construction.

Fault injection: pass an :class:`~repro.runtime.faults.InstructionFault`
and the optimized program is corrupted before the ``vm-pre``/``sim``/
``stream`` oracles and the equivalence checks see it — the planted-bug
mode the acceptance test uses to prove the campaign detects and shrinks
real miscompiles.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..arch.config import ArchConfig
from ..arch.system import CiceroSystem
from ..compiler import CompileOptions, NewCompiler
from ..ir.diagnostics import BudgetExceeded
from ..isa.instructions import Opcode
from ..isa.program import Program
from ..multimatch import compile_multipattern
from ..oldcompiler.compiler import OldCompiler
from ..prefilter.lazydfa import LazyDFAMatcher
from ..prefilter.multi import PrefilteredMultiMatchVM
from ..prefilter.scanner import PrefilteredMatcher
from ..runtime.budget import DEFAULT_BUDGET, Budget
from ..runtime.errors import ReproError
from ..runtime.faults import InstructionFault, corrupt_program
from ..runtime.encoding import as_input_bytes
from ..verify.equivalence import EquivalenceCheckExceeded, check_equivalence
from ..vm.streaming import StreamingMatcher
from ..vm.thompson import ThompsonVM

#: Every input-level oracle, in reporting order.
DEFAULT_ORACLES: Tuple[str, ...] = ("vm-pre", "old", "sim", "multi", "stream")

#: A verdict is ``(kind, payload)``; only ``skip`` is excluded from the
#: agreement vote.
Verdict = Tuple[str, object]

#: Buckets for ``repro_fuzz_oracle_seconds``: oracle probes run in the
#: microsecond-to-millisecond range, far below the registry's default
#: seconds-oriented buckets.
ORACLE_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.00001,
    0.0001,
    0.001,
    0.01,
    0.1,
    1.0,
)


@dataclass
class Disagreement:
    """One observed divergence, input-level or program-level."""

    pattern: str
    #: The probe input (or decoded counterexample); None when the
    #: divergence is structural (e.g. corrupted image rejected).
    input: Optional[str]
    #: oracle name → verdict for input-level kinds; check name → detail
    #: for program-level kinds.
    verdicts: Dict[str, Verdict]
    kind: str = "input"  # "input" | "equivalence" | "validation" | "compile"
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "pattern": self.pattern,
            "input": self.input,
            "kind": self.kind,
            "detail": self.detail,
            "verdicts": {
                name: list(verdict) for name, verdict in self.verdicts.items()
            },
        }


@dataclass
class CaseResult:
    """Everything one differential case produced."""

    pattern: str
    oracles: Tuple[str, ...]
    inputs: List[str] = field(default_factory=list)
    disagreements: List[Disagreement] = field(default_factory=list)
    #: oracle/check name → reason it sat this case out (capacity).
    skips: Dict[str, str] = field(default_factory=dict)
    #: REPRO-code when the whole case was rejected before any probe.
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.disagreements


def default_fault_for(program: Program) -> InstructionFault:
    """A single-bit operand corruption guaranteed to be *interesting*:
    flip the low bit of the first character-matching instruction, so the
    corrupted program matches a different character there."""
    for address, instruction in enumerate(program):
        if instruction.opcode in (Opcode.MATCH, Opcode.NOT_MATCH):
            return InstructionFault(
                address, operand=instruction.operand ^ 0x1
            )
    return InstructionFault(0, operand=program.instructions[0].operand ^ 0x1)


def _guarded(matcher: Callable[[str], bool]) -> Callable[[str], Verdict]:
    def runner(text: str) -> Verdict:
        try:
            return ("ok", bool(matcher(text)))
        except BudgetExceeded as error:
            return ("skip", error.code)
        except ReproError as error:
            return ("error", error.code)
        except Exception as error:  # a crashing oracle is itself a bug
            return ("crash", f"{type(error).__name__}: {error}")

    return runner


def _constant(verdict: Verdict) -> Callable[[str], Verdict]:
    return lambda _text: verdict


def _old_code(pattern: str) -> Optional[str]:
    """The old compiler's rejection code for ``pattern``, or None."""
    try:
        OldCompiler(optimize=True).compile(pattern)
    except ReproError as error:
        return error.code
    return None


class CompileRejected(Exception):
    """A typed rejection past the shared frontend: the unoptimized back
    half (lowering, codegen, IR verify) rejected a pattern the frontend
    accepts, or the optimizing pipeline one the unoptimized compiles.
    ``error`` is the rejection, ``stage`` ``"noopt"`` or ``"opt"``."""

    def __init__(self, error: ReproError, stage: str):
        super().__init__(str(error))
        self.error = error
        self.stage = stage

    def disagreement(self, pattern: str) -> Disagreement:
        accepted_by, what = {
            "noopt": ("frontend", "unoptimized compile rejected a pattern "
                      "the frontend accepts"),
            "opt": ("noopt", "optimized compile rejected a pattern the "
                    "unoptimized compile accepts"),
        }[self.stage]
        return Disagreement(
            pattern=pattern,
            input=None,
            verdicts={
                self.stage: ("error", self.error.code),
                accepted_by: ("ok", True),
            },
            kind="compile",
            detail=f"{what}: {self.error}",
        )


class CompiledOracles:
    """All oracles for one pattern, compiled once, probed per input."""

    def __init__(
        self,
        pattern: str,
        module=None,
        oracles: Sequence[str] = DEFAULT_ORACLES,
        options: Optional[CompileOptions] = None,
        budget: Optional[Budget] = None,
        config: Optional[ArchConfig] = None,
        max_dfa_states: int = 2_000,
        equivalence_states: int = 20_000,
        fault: Optional[InstructionFault] = None,
    ):
        unknown = [name for name in oracles if name not in DEFAULT_ORACLES]
        if unknown:
            raise ValueError(
                f"unknown oracle {unknown[0]!r}; available: "
                + ", ".join(DEFAULT_ORACLES)
            )
        self.pattern = pattern
        self.oracle_names = tuple(oracles)
        self.options = options if options is not None else CompileOptions()
        self.budget = (
            budget
            if budget is not None
            else (
                self.options.budget
                if self.options.budget is not None
                else DEFAULT_BUDGET
            )
        )
        self.equivalence_states = equivalence_states
        self.runners: Dict[str, Callable[[str], Verdict]] = {}
        self.skips: Dict[str, str] = {}
        #: Program-level disagreements found at compile time.
        self.structural: List[Disagreement] = []
        #: Distinguishing inputs the equivalence checks surfaced.
        self.counterexamples: List[str] = []

        # -- shared frontend (parse once, like the engine) -------------
        if module is None:
            # With no regex pass the front half is budget checks + parse
            # + conversion, i.e. the pristine module.
            unoptimized = CompileOptions(regex_pipeline=(), budget=self.budget)
            module = NewCompiler(unoptimized).front(pattern).regex_module
        self._pristine = module

        # Past parsing and the pattern-budget checks, a typed rejection
        # is a verdict unless the old compiler shares it (an ISA limit).
        self.program_noopt = self._back_half(CompileOptions.none(), "noopt")
        program_opt = self._back_half(self.options, "opt")

        # -- optional planted corruption --------------------------------
        # ``fault`` may be a concrete InstructionFault or a *planter*
        # callable(program) -> InstructionFault, recomputed per program
        # so the shrinker can re-plant on every smaller candidate.
        self.program_opt = program_opt
        if callable(fault):
            fault = fault(program_opt)
        self.fault = fault
        if fault is not None:
            try:
                self.program_opt = corrupt_program(program_opt, fault)
            except (ReproError, ValueError) as error:
                # The validation layer caught the corruption outright;
                # that *is* a detection, reported structurally.
                self.structural.append(
                    Disagreement(
                        pattern=pattern,
                        input=None,
                        verdicts={"validation": ("error", str(error))},
                        kind="validation",
                        detail=f"corrupted image rejected: {error}",
                    )
                )

        # -- per-oracle matchers ----------------------------------------
        want = set(self.oracle_names)
        if "vm-pre" in want:
            # The engine's default path: literal/first-byte chunk
            # rejection, lazy-DFA verify, VM fallback.  The analysis
            # rides on the (possibly corrupted) program; a prefilter
            # that disagrees with a corrupted VM is a *detection*.
            prefiltered = PrefilteredMatcher(
                self.program_opt, max_dfa_states=max_dfa_states
            )
            self.runners["vm-pre"] = _guarded(
                lambda t: bool(prefiltered.match(t))
            )
        # Built whichever oracles are selected: the old compiler's
        # program also feeds the equivalence-old check.
        self._build("old", self._old_runner)
        if "sim" in want:
            system = CiceroSystem(
                self.program_opt,
                config if config is not None else ArchConfig.new(4),
            )
            self.runners["sim"] = _guarded(lambda t: system.run(t).matched)
        if "multi" in want:
            self._build("multi", self._multi_runner)
        if "stream" in want:
            self._build("stream", lambda: self._stream_runner(max_dfa_states))

        # -- program-level equivalence oracles --------------------------
        self._check_equivalence("equivalence-opt", self.program_opt,
                                self.program_noopt, "optimized", "unoptimized")

    # -- builders ------------------------------------------------------
    def _back_half(self, options: CompileOptions, stage: str) -> Program:
        """``options``' program, compiled from a clone of the pristine
        module; a typed rejection is :class:`CompileRejected`."""
        compiler = NewCompiler(options)
        try:
            front = compiler.front(self.pattern, module=self._pristine.clone())
            return compiler.back(front)[1]
        except BudgetExceeded:
            raise  # a capacity limit, not a verdict
        except ReproError as error:
            if stage == "noopt" and _old_code(self.pattern) == error.code:
                raise  # both compilers reject: an agreeing rejection
            raise CompileRejected(error, stage) from error

    def _build(self, name: str, factory: Callable[[], object]) -> None:
        """Compile one oracle, classifying its compile-stage failures."""
        try:
            runner = factory()
        except BudgetExceeded as error:
            self.skips[name] = error.code
            return
        except ReproError as error:
            runner = _constant(("error", error.code))
        except Exception as error:
            runner = _constant(("crash", f"{type(error).__name__}: {error}"))
        if name in self.oracle_names:
            self.runners[name] = runner

    def _old_runner(self) -> Callable[[str], Verdict]:
        program = OldCompiler(optimize=True).compile(self.pattern).program
        vm = ThompsonVM(program)
        self._check_equivalence(
            "equivalence-old", self.program_opt, program, "new", "old"
        )
        return _guarded(lambda t: bool(vm.run(t)))

    def _multi_runner(self) -> Callable[[str], Verdict]:
        multi = compile_multipattern([self.pattern], self.options)
        pruned = PrefilteredMultiMatchVM(multi)
        return _guarded(lambda t: 1 in pruned.run(t).matched_ids)

    def _stream_runner(self, max_dfa_states: int) -> Callable[[str], Verdict]:
        """One-shot-equivalence oracle for the streaming matcher.

        Chunk boundaries must vary per probe yet stay re-derivable from
        the case alone (the campaign's replay contract bans global
        randomness), so an LCG seeded with ``crc32(input)`` draws the
        1–8 byte chunk lengths, and the seed's parity picks the matcher:
        the kernel alone (``max_states=0``) or the lazy DFA, which the
        case's probes share as ``/stream`` requests share a pattern's.
        """
        program = self.program_opt
        vm = ThompsonVM(program)  # shared dispatch tables across probes
        matchers = (
            LazyDFAMatcher(program, max_states=0, vm=vm),
            LazyDFAMatcher(program, max_states=max_dfa_states, vm=vm),
        )

        def matcher(text: str) -> bool:
            data = as_input_bytes(text, what="stream oracle input")
            state = zlib.crc32(data) & 0xFFFFFFFF
            streamer = StreamingMatcher(matchers[state & 1])
            index = 0
            settled = None
            while index < len(data) and settled is None:
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                step = 1 + state % 8
                settled = streamer.feed(data[index:index + step])
                index += step
            if settled is not None:
                return bool(settled)
            return bool(streamer.finish())

        return _guarded(matcher)

    def _check_equivalence(
        self, name: str, left: Program, right: Program,
        left_label: str, right_label: str,
    ) -> None:
        try:
            result = check_equivalence(
                left, right, max_states=self.equivalence_states
            )
        except EquivalenceCheckExceeded as error:
            self.skips[name] = error.code
            return
        if not result.equivalent:
            counterexample = (result.counterexample or b"").decode("latin-1")
            accepted = left_label if result.accepted_by == "left" else right_label
            self.structural.append(
                Disagreement(
                    pattern=self.pattern,
                    input=counterexample,
                    verdicts={name: ("error", f"accepted only by {accepted}")},
                    kind="equivalence",
                    detail=(
                        f"{name}: {counterexample!r} accepted only by the "
                        f"{accepted} program"
                    ),
                )
            )
            self.counterexamples.append(counterexample)

    # -- probing -------------------------------------------------------
    def verdicts(self, text: str, metrics=None) -> Dict[str, Verdict]:
        """Every oracle's verdict for one probe input.

        ``metrics`` (a :class:`~repro.observability.MetricsRegistry`)
        additionally times each oracle into the per-oracle
        ``repro_fuzz_oracle_seconds`` histogram, so a campaign's time
        budget can be attributed to the oracles that consumed it.
        """
        if metrics is None or not metrics.enabled:
            return {
                name: runner(text) for name, runner in self.runners.items()
            }
        verdicts: Dict[str, Verdict] = {}
        for name, runner in self.runners.items():
            started = time.perf_counter()
            verdicts[name] = runner(text)
            metrics.histogram(
                "repro_fuzz_oracle_seconds",
                labels={"oracle": name},
                help_text="wall-clock seconds per oracle probe",
                buckets=ORACLE_SECONDS_BUCKETS,
            ).observe(time.perf_counter() - started)
        return verdicts

    def diff(self, text: str, metrics=None) -> Optional[Disagreement]:
        verdicts = self.verdicts(text, metrics=metrics)
        votes = {
            verdict
            for verdict in verdicts.values()
            if verdict[0] != "skip"
        }
        if len(votes) > 1:
            return Disagreement(
                pattern=self.pattern, input=text, verdicts=verdicts
            )
        return None


def run_case(
    pattern: str,
    inputs: Sequence[str],
    module=None,
    oracles: Sequence[str] = DEFAULT_ORACLES,
    options: Optional[CompileOptions] = None,
    budget: Optional[Budget] = None,
    config: Optional[ArchConfig] = None,
    max_dfa_states: int = 2_000,
    equivalence_states: int = 20_000,
    fault: Optional[InstructionFault] = None,
    metrics=None,
) -> CaseResult:
    """Compile every oracle for ``pattern`` and diff them over ``inputs``.

    Frontend rejections make an *agreeing* case (``error`` set): every
    oracle shares parsing and the pattern-budget checks, so a structured
    rejection there cannot be a differential signal.  Neither can an ISA
    limit such as ``(a?)*``, which the unoptimized back half and the old
    compiler both reject with one code.  Budget trips skip the case the
    same way.  Any other typed rejection past the frontend — by the
    unoptimized back half (lowering, codegen, IR verify), or by the
    optimizing pipeline alone — is a ``compile`` disagreement (``error``
    is set too).  An unknown oracle name raises :class:`ValueError`.
    """
    result = CaseResult(pattern=pattern, oracles=tuple(oracles))
    try:
        compiled = CompiledOracles(
            pattern,
            module=module,
            oracles=oracles,
            options=options,
            budget=budget,
            config=config,
            max_dfa_states=max_dfa_states,
            equivalence_states=equivalence_states,
            fault=fault,
        )
    except BudgetExceeded as error:
        result.error = error.code
        result.skips["case"] = error.code
        return result
    except ReproError as error:
        result.error = error.code
        return result
    except CompileRejected as rejection:
        result.error = rejection.error.code
        result.disagreements.append(rejection.disagreement(pattern))
        return result
    result.skips.update(compiled.skips)
    result.disagreements.extend(compiled.structural)
    # Each text once, in first-seen order: both equivalence checks may
    # return the same counterexample.
    probes = list(dict.fromkeys([*inputs, *compiled.counterexamples]))
    result.inputs = probes
    for text in probes:
        disagreement = compiled.diff(text, metrics=metrics)
        if metrics is not None and metrics.enabled:
            for name in compiled.runners:
                metrics.counter(
                    "repro_fuzz_oracle_runs_total",
                    labels={"oracle": name},
                    help_text="fuzz oracle executions",
                ).inc()
        if disagreement is not None:
            result.disagreements.append(disagreement)
    return result
