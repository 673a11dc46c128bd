"""Execution back-ends behind one interface.

The paper's future work (§8) argues for "a standard MLIR-based
multi-dialect compilation flow for REs execution engines" where the
high-level ``regex`` dialect front-end feeds multiple back-ends.  This
module is that seam: every back-end consumes the same parsed/optimized
high-level representation and returns a matcher with a uniform
``matches(text) -> bool`` interface.

The flow (:meth:`~repro.compiler.NewCompiler.front`, then ``back``)
runs **once per pattern**, no matter how many back-ends are built from
it: :func:`compile_backends` hands the one program to every requested
back-end, and :func:`compile_with_backend` is the single-back-end
convenience over it.

Every matcher accepts ``str | bytes`` uniformly and raises the typed
:class:`~repro.runtime.errors.InputEncodingError` for text outside
latin-1, regardless of back-end.

Available back-ends:

============== ==========================================================
``cicero``     the paper's DSA — compile to the Cicero ISA, execute on
               the golden-model VM
``cicero-sim`` same program on the cycle-level simulator (timing too)
============== ==========================================================

The CPU-baseline automata (:mod:`repro.automata`: breadth-first NFA,
minimized DFA) are test oracles, not back-ends; the differential fuzz
campaign and the property tests build them from the same front half.

>>> from repro.backends import compile_with_backend
>>> matcher = compile_with_backend("th(is|at)", "cicero-sim")
>>> matcher.matches("say that")
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

from .arch.config import ArchConfig
from .arch.system import CiceroSystem
from .compiler import CompileOptions, NewCompiler
from .isa.program import Program
from .observability.tracer import NULL_TRACER, AnyTracer
from .vm.thompson import ThompsonVM


class Matcher:
    """Uniform matcher interface; back-ends subclass."""

    backend_name: str = "?"

    @property
    def artifact(self):
        """What a worker needs, next to ``backend_name``, to rebuild this."""
        raise NotImplementedError

    def matches(self, text: Union[str, bytes]) -> bool:
        raise NotImplementedError


@dataclass
class CiceroMatcher(Matcher):
    vm: ThompsonVM
    backend_name: str = "cicero"

    @property
    def artifact(self) -> Program:
        return self.vm.program

    def matches(self, text: Union[str, bytes]) -> bool:
        return bool(self.vm.run(text))


@dataclass
class CiceroSimMatcher(Matcher):
    system: CiceroSystem
    backend_name: str = "cicero-sim"

    @property
    def artifact(self) -> Program:
        return self.system.program

    def matches(self, text: Union[str, bytes]) -> bool:
        return self.system.run(text).matched

    def run(self, text: Union[str, bytes]):
        """Full simulation result (cycles, stats) — simulator-specific."""
        return self.system.run(text)


def compile_backends(
    pattern: str,
    backends: Sequence[str],
    options: Optional[CompileOptions] = None,
    config: Optional[ArchConfig] = None,
    tracer: AnyTracer = NULL_TRACER,
) -> Dict[str, Matcher]:
    """Build several back-ends from **one** parsed/optimized module.

    The compiler's front and back halves run exactly once; both Cicero
    flavours run the one program.  ``tracer`` receives the compiler's
    ``compile`` → stage → ``pass:*`` spans.
    """
    unknown = [name for name in backends if name not in BACKENDS]
    if unknown:
        raise ValueError(
            f"unknown backend {unknown[0]!r}; available: {sorted(BACKENDS)}"
        )
    compiler = NewCompiler(options)
    matchers: Dict[str, Matcher] = {}
    with compiler.root_span(tracer, pattern):
        front = compiler.front(pattern, tracer)
        _cicero_module, program = compiler.back(front, tracer)
        for backend in backends:
            if backend == "cicero":
                matchers[backend] = CiceroMatcher(ThompsonVM(program))
            else:
                matchers[backend] = CiceroSimMatcher(
                    CiceroSystem(
                        program,
                        config if config is not None else ArchConfig.new(16),
                    )
                )
    return matchers


def compile_with_backend(
    pattern: str,
    backend: str = "cicero",
    options: Optional[CompileOptions] = None,
    config: Optional[ArchConfig] = None,
    tracer: AnyTracer = NULL_TRACER,
) -> Matcher:
    """Compile through the shared high-level flow, finish per back-end."""
    return compile_backends(
        pattern,
        [backend],
        options=options,
        config=config,
        tracer=tracer,
    )[backend]


BACKENDS: Dict[str, str] = {
    "cicero": "Cicero ISA on the golden-model VM",
    "cicero-sim": "Cicero ISA on the cycle-level simulator",
}
