"""Unified observability: tracing, metrics, pass/VM/engine profiling.

The zero-dependency telemetry substrate every serving layer reports
through (see ``docs/observability.md``):

* :mod:`repro.observability.tracer` — nested :class:`Span` trees with
  monotonic timings, span events, JSON-lines export and a no-op
  :data:`NULL_TRACER` fast path cheap enough to leave compiled in;
* :mod:`repro.observability.metrics` — a :class:`MetricsRegistry` of
  counters/gauges/histograms with Prometheus text exposition and JSON
  snapshots, unifying the previously ad-hoc cache/supervisor/VM
  counters;
* :mod:`repro.observability.report` — :class:`TraceReport` (surfaced on
  :class:`~repro.compiler.CompilationResult`) plus the IR statistics
  (``op_count``, Eq. 1 ``D_offset``) recorded on per-pass spans.

Process-wide defaults: :func:`default_registry` is the registry the
:class:`~repro.engine.Engine` and CLI record into unless told
otherwise.  Tests use :func:`recording` to swap in a fresh tracer +
registry for the duration of a block::

    with observability.recording() as rec:
        engine = Engine(metrics=rec.metrics, tracer=rec.tracer)
        engine.scan_corpus("a(b|c)d*e", corpus, strict=False)
    assert rec.tracer.open_spans == 0
    assert rec.metrics.sum_values("repro_scan_shards_total") == shards
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
    load_snapshot,
)
from .profiler import UNATTRIBUTED, ProgramProfile, SimProfile, VMProfile
from .report import TraceReport, ir_stats, module_d_offset, op_count
from .traceview import (
    build_forest,
    critical_path,
    format_critical_path,
    format_summary,
    summarize,
    to_chrome_trace,
    to_collapsed_stacks,
)
from .tracer import (
    AnyTracer,
    NULL_TRACER,
    NullTracer,
    Span,
    SpanEvent,
    Tracer,
    as_tracer,
    iter_tree,
    parse_jsonl,
    validate_trace,
)

AnyMetrics = Union[MetricsRegistry, NullMetricsRegistry]

_defaults_lock = threading.Lock()
_default_registry: MetricsRegistry = MetricsRegistry()
_default_tracer: AnyTracer = NULL_TRACER


def default_registry() -> MetricsRegistry:
    """The process-wide registry (swapped inside :func:`recording`)."""
    with _defaults_lock:
        return _default_registry


def default_tracer() -> AnyTracer:
    """The process-wide tracer; :data:`NULL_TRACER` unless recording."""
    with _defaults_lock:
        return _default_tracer


def as_metrics(metrics: Optional[AnyMetrics]) -> AnyMetrics:
    """Normalize an optional registry (``None`` → the process default)."""
    return metrics if metrics is not None else default_registry()


@dataclass
class Recording:
    """Handle yielded by :func:`recording`: the live tracer + registry."""

    tracer: Tracer
    metrics: MetricsRegistry

    def report(self) -> TraceReport:
        return TraceReport.from_tracer(self.tracer)


@contextlib.contextmanager
def recording(
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    install: bool = True,
) -> Iterator[Recording]:
    """Record traces and metrics for the duration of a ``with`` block.

    Creates (or adopts) a fresh :class:`Tracer` and
    :class:`MetricsRegistry` and, with ``install`` (the default), makes
    them the process-wide defaults so code paths that fall back to
    :func:`default_registry`/:func:`default_tracer` record into the
    block's instruments.  Previous defaults are restored on exit, even
    on error.
    """
    global _default_registry, _default_tracer
    active = Recording(
        tracer=tracer if tracer is not None else Tracer(),
        metrics=metrics if metrics is not None else MetricsRegistry(),
    )
    if not install:
        yield active
        return
    with _defaults_lock:
        previous = (_default_tracer, _default_registry)
        _default_tracer = active.tracer
        _default_registry = active.metrics
    try:
        yield active
    finally:
        with _defaults_lock:
            _default_tracer, _default_registry = previous


__all__ = [
    "AnyMetrics",
    "AnyTracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullTracer",
    "ProgramProfile",
    "Recording",
    "SimProfile",
    "Span",
    "SpanEvent",
    "TraceReport",
    "Tracer",
    "UNATTRIBUTED",
    "VMProfile",
    "as_metrics",
    "as_tracer",
    "build_forest",
    "critical_path",
    "default_registry",
    "default_tracer",
    "format_critical_path",
    "format_summary",
    "ir_stats",
    "iter_tree",
    "load_snapshot",
    "module_d_offset",
    "op_count",
    "parse_jsonl",
    "recording",
    "summarize",
    "to_chrome_trace",
    "to_collapsed_stacks",
    "validate_trace",
]
