"""Pass management: named passes, pipelines and statistics.

The paper's compilation flow is a linear pipeline of passes over two
dialects; this module provides the scaffolding — pass registration, a
:class:`PassManager` that runs passes in order, one ``pass:<name>``
span per pass when traced (the span's duration is the pass's time),
and verification between passes (catching transform bugs at the pass
boundary where they were introduced).
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, List, Optional

from .diagnostics import IRError
from .operation import Operation


class Pass:
    """A named transformation over a root operation."""

    #: Unique pipeline name, e.g. ``"regex-factorize-alternations"``.
    PASS_NAME: str = "unnamed"

    #: The :class:`~repro.ir.rewriter.RewriteStatistics` of the last
    #: ``run`` of a pattern-driven pass; ``None`` for any other pass.
    statistics = None

    def run(self, root: Operation) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pass {self.PASS_NAME}>"


class FunctionPass(Pass):
    """Adapts a plain callable into a pass."""

    def __init__(self, name: str, function: Callable[[Operation], None]):
        self.PASS_NAME = name
        self._function = function

    def run(self, root: Operation) -> None:
        self._function(root)


_PASS_REGISTRY: Dict[str, Callable[[], Pass]] = {}


def register_pass(factory: Callable[[], Pass], name: Optional[str] = None):
    """Register a pass factory under its PASS_NAME (usable as decorator)."""
    probe = factory()
    pass_name = name if name is not None else probe.PASS_NAME
    if pass_name in _PASS_REGISTRY:
        raise IRError(f"pass '{pass_name}' already registered")
    _PASS_REGISTRY[pass_name] = factory
    return factory


def create_pass(name: str) -> Pass:
    try:
        factory = _PASS_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_PASS_REGISTRY)) or "<none>"
        raise IRError(f"unknown pass '{name}' (registered: {known})") from None
    return factory()


def registered_pass_names(prefix: Optional[str] = None) -> List[str]:
    names = sorted(_PASS_REGISTRY)
    if prefix is None:
        return names
    return [name for name in names if name.startswith(prefix)]


def pipeline_from_names(
    names, require_prefix: Optional[str] = None, verify_each: bool = False
) -> "PassManager":
    """Build a :class:`PassManager` from registered pass names.

    Names run in the given order, duplicates are allowed (a pass may
    pay off twice once an earlier pass exposed new opportunities).
    ``require_prefix`` rejects names from the wrong dialect — a
    ``cicero-*`` pass can never run on a ``regex``-dialect module —
    with the same :class:`~repro.ir.diagnostics.IRError` an
    unregistered name raises.
    """
    manager = PassManager(verify_each=verify_each)
    for name in names:
        if require_prefix is not None and not name.startswith(require_prefix):
            known = ", ".join(registered_pass_names(require_prefix)) or "<none>"
            raise IRError(
                f"pass '{name}' does not belong to the '{require_prefix}*' "
                f"pipeline stage (registered: {known})"
            )
        manager.add(name)
    return manager


class PassManager:
    """Runs a sequence of passes over a module, verifying in between."""

    def __init__(self, verify_each: bool = True):
        self.passes: List[Pass] = []
        self.verify_each = verify_each

    def add(self, pass_or_name) -> "PassManager":
        if isinstance(pass_or_name, str):
            self.passes.append(create_pass(pass_or_name))
        elif isinstance(pass_or_name, Pass):
            self.passes.append(pass_or_name)
        else:
            raise IRError(f"not a pass: {pass_or_name!r}")
        return self

    def run(
        self,
        root: Operation,
        tracer=None,
        span_attrs: Optional[Callable[[Operation], Dict[str, Any]]] = None,
    ) -> None:
        """Run every pass over ``root`` in order.

        ``tracer`` (a :class:`repro.observability.Tracer`, or ``None``)
        gets one ``pass:<name>`` span per pass, whose duration is the
        pass's time; ``span_attrs`` computes IR statistics (op count,
        ``D_offset``) recorded as ``*_before``/``*_after`` span
        attributes together with their deltas — once per pass boundary,
        one pass's ``after`` being the next one's ``before`` — and a
        pattern-driven pass adds whether it ``converged``.  Untraced,
        the loop only runs (and verifies) the passes.
        """
        if self.verify_each:
            root.verify()
        tracing = tracer is not None and tracer.enabled
        stats = span_attrs(root) if tracing and span_attrs is not None else {}
        for pipeline_pass in self.passes:
            scope = (
                tracer.span(
                    f"pass:{pipeline_pass.PASS_NAME}",
                    **{f"{key}_before": value for key, value in stats.items()},
                )
                if tracing
                else contextlib.nullcontext()
            )
            with scope as span:
                pipeline_pass.run(root)
                if tracing:
                    before = stats
                    stats = span_attrs(root) if span_attrs is not None else {}
                    for key, value in stats.items():
                        span.attributes[f"{key}_after"] = value
                        prior = before.get(key)
                        if value is not None and prior is not None:
                            span.attributes[f"{key}_delta"] = value - prior
                    statistics = pipeline_pass.statistics
                    if statistics is not None:
                        span.attributes["converged"] = statistics.converged
            if self.verify_each:
                root.verify()
