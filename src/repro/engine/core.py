"""The high-throughput matching engine.

:class:`Engine` is the serving layer over the compiler and the one
matcher it builds per pattern (a
:class:`~repro.prefilter.scanner.PrefilteredMatcher`): one object
owning a compiled-pattern LRU cache and a fan-out policy, exposing
three calls —

* :meth:`Engine.match` — one pattern, one text (cache-accelerated);
* :meth:`Engine.match_many` — one pattern, many texts, optionally
  sharded over ``multiprocessing`` worker processes;
* :meth:`Engine.scan_corpus` — one pattern over a large input stream,
  chunked with the paper's §6 methodology
  (:func:`~repro.arch.simulator.split_chunks`) and sharded like
  :meth:`match_many`.

Budgets thread through everywhere: compilation honors the budget's
compile-side limits (via the cache key, so differently-budgeted callers
never share artifacts), VM execution honors ``max_vm_steps`` both
in-process and inside workers, ``max_parallel_jobs`` caps the workers, and
``max_task_seconds`` / ``max_wall_seconds`` bound the supervised
parallel scan.

Parallel runs go through the **fault-tolerant scan supervisor**
(:mod:`repro.engine.supervisor`): worker processes it owns, fed
batches of shards over one pipe each, with per-shard timeouts, crash
attribution, ``retries`` re-queues and quarantine.  The ``strict``
switch on :meth:`Engine.match_many` / :meth:`Engine.scan_corpus`
chooses between re-raising the first typed per-shard error (strict, the
historical behavior) and returning the :class:`ScanReport` carrying
every shard's individual outcome (partial mode).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from ..arch.config import ConfigurationError
from ..arch.simulator import DEFAULT_CHUNK_BYTES, split_chunks
from ..compiler import CompileOptions, NewCompiler
from ..observability import (
    AnyMetrics,
    AnyTracer,
    as_metrics,
    as_tracer,
    default_tracer,
)
from ..runtime.budget import Budget, DEFAULT_BUDGET
from ..runtime.encoding import as_input_bytes
from .cache import CacheStats, PatternCache
from .parallel import WorkerPayload, build_match_fn, resolve_mp_context
from .supervisor import (
    DEFAULT_RETRIES,
    OUTCOME_STATUSES,
    CorpusScanResult,
    ScanReport,
    run_in_process,
    supervised_matches,
)

if TYPE_CHECKING:
    from ..prefilter.scanner import PrefilteredMatcher

DEFAULT_CACHE_SIZE = 256

#: Input types every matching entry point normalizes to ``bytes``.
TextLike = Union[str, bytes, bytearray, memoryview]


def resolve_jobs(jobs: Optional[int], budget: Budget) -> int:
    """Turn a user-facing job count into an effective worker count.

    ``None``/``1`` mean in-process; ``0`` means "all cores"; anything
    else is taken literally — then the budget's ``max_parallel_jobs``
    caps the result.
    """
    if jobs is not None and jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    effective = budget.effective_jobs(jobs)
    return effective if effective is not None else 1


class Engine:
    """Cached, budget-aware, optionally parallel matching front door."""

    def __init__(
        self,
        options: Optional[CompileOptions] = None,
        budget: Optional[Budget] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        jobs: Optional[int] = None,
        mp_context: Optional[str] = None,
        retries: int = DEFAULT_RETRIES,
        metrics: Optional[AnyMetrics] = None,
        tracer: Optional[AnyTracer] = None,
        collect_worker_metrics: bool = False,
    ):
        self.options = options if options is not None else CompileOptions()
        self.budget = budget if budget is not None else DEFAULT_BUDGET
        self.jobs = jobs
        # Validate eagerly: a typo'd start method or retry count should
        # fail at construction, not inside the first parallel scan.
        resolve_mp_context(mp_context)
        self.mp_context = mp_context
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        #: Re-queues per failed shard before quarantine.
        self.retries = retries
        # Telemetry sinks resolve at construction: ``None`` metrics mean
        # the process-wide default registry (so ``recording()`` blocks
        # see engines built inside them), ``None`` tracer the process
        # default, which is the no-op NULL_TRACER unless recording.
        self.metrics = as_metrics(metrics)
        self.tracer = as_tracer(tracer if tracer is not None else default_tracer())
        self._instruments = _EngineInstruments.create(self.metrics)
        # Opt-in: parallel workers record VM counters locally
        # and ship per-shard deltas home; ``_scan`` folds them into this
        # registry.  Off by default so worker VM runs attach no observer
        # (the gated bench ceiling).
        self.collect_worker_metrics = bool(
            collect_worker_metrics and self.metrics.enabled
        )
        self._cache = PatternCache(cache_size, metrics=self.metrics)
        # The options/budget halves of every cache key are fixed for the
        # engine's lifetime; computing them once keeps the per-request
        # cache-hit cost at a tuple construction plus a dict probe.
        self._options_key = self.options.cache_key()
        self._budget_key = self.budget.cache_key()

    # ------------------------------------------------------------------
    # Compilation (cached)
    # ------------------------------------------------------------------
    def matcher(self, pattern: str) -> "PrefilteredMatcher":
        """The compiled matcher for ``pattern`` — cached across calls."""
        return self._entry(pattern).matcher

    def _entry(self, pattern: str) -> "_CacheEntry":
        key = (pattern, self._options_key, self._budget_key)
        return self._cache.get_or_build(
            key, lambda: self._build_entry(pattern)
        )

    def is_cached(self, pattern: str) -> bool:
        """Whether ``pattern``'s entry is resident right now.

        A read-only probe (no LRU touch, no hit/miss count) under the
        cache lock, keyed exactly like :meth:`_entry`.  Another thread
        may evict the entry before the caller acts on the answer; a
        caller that then matches simply compiles, as on any miss.
        """
        return (pattern, self._options_key, self._budget_key) in self._cache

    def _build_entry(self, pattern: str) -> "_CacheEntry":
        options = self.options
        if options.budget is None:
            options = replace(options, budget=self.budget)
        compiler = NewCompiler(options)
        tracer = self.tracer
        with tracer.span("engine.compile", pattern=pattern, cache="miss"):
            with compiler.root_span(tracer, pattern):
                front = compiler.front(pattern, tracer)
                _cicero_module, program = compiler.back(front, tracer)
        payload = WorkerPayload(
            program,
            self.budget.max_vm_steps,
            collect_vm_metrics=self.collect_worker_metrics,
            max_dfa_states=self.budget.max_dfa_states,
        )
        matcher = build_match_fn(
            payload, metrics=self.metrics if self.metrics.enabled else None
        )
        if tracer.enabled:
            plan = matcher.plan
            with tracer.span(
                "prefilter.plan",
                pattern=pattern,
                stages=" -> ".join(plan["stages"]),
                inert=plan["inert"],
                inert_reason=plan["inert_reason"],
            ):
                pass
        return _CacheEntry(matcher, payload)

    def cache_stats(self) -> CacheStats:
        return self._cache.stats()

    def clear_cache(self) -> None:
        self._cache.clear()

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(self, pattern: str, text: TextLike) -> bool:
        """One text through the cached matcher (budgeted VM steps)."""
        if self._instruments is not None:
            self._instruments.requests["match"].inc()
        data = as_input_bytes(text, what="input text")
        return bool(self._entry(pattern).matcher.match(data))

    def match_many(
        self,
        pattern: str,
        texts: Sequence[TextLike],
        jobs: Optional[int] = None,
        strict: bool = True,
    ) -> Union[List[bool], ScanReport]:
        """Every text's verdict, in input order.

        With ``jobs > 1`` the texts are sharded over supervised worker
        processes; the pattern is compiled **once** in the calling
        process and workers rebuild their matcher from the pickled
        program, so compilation cost does not multiply with ``jobs``.

        ``strict=True`` (default) returns a plain verdict list and
        re-raises the first typed per-shard error.  ``strict=False``
        returns a :class:`ScanReport`: healthy shards keep their
        verdicts, failed shards carry a typed
        :class:`~repro.engine.supervisor.ShardOutcome` instead of
        poisoning the batch.
        """
        if self._instruments is not None:
            self._instruments.requests["match_many"].inc()
        report = self._scan(pattern, texts, jobs)
        if not strict:
            return report
        report.raise_first_error()
        return report.chunk_matches

    def scan_corpus(
        self,
        pattern: str,
        data: Union[str, bytes],
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        jobs: Optional[int] = None,
        strict: bool = True,
    ) -> Union[CorpusScanResult, ScanReport]:
        """Scan a large input stream chunk-by-chunk (the §6 protocol).

        Chunking bounds per-shard memory and mirrors the hardware's
        windowed execution; chunks are matched independently (a match
        spanning a chunk boundary is not detected — pick ``chunk_bytes``
        above the longest expected match, exactly as the paper sizes
        its 500-byte chunks).

        ``strict`` behaves as on :meth:`match_many`;
        partial mode returns the full :class:`ScanReport` so a scan with
        a few quarantined chunks still reports every healthy verdict.
        """
        if self._instruments is not None:
            self._instruments.requests["scan_corpus"].inc()
        chunks = split_chunks(data, chunk_bytes)
        report = self._scan(pattern, chunks, jobs)
        report.chunk_bytes = chunk_bytes
        if not strict:
            return report
        report.raise_first_error()
        return CorpusScanResult(
            matched=report.matched,
            chunk_matches=report.chunk_matches,
            bytes_scanned=report.bytes_scanned,
            chunk_bytes=chunk_bytes,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _scan(
        self,
        pattern: str,
        texts: Sequence[TextLike],
        jobs: Optional[int],
    ) -> ScanReport:
        """Normalize, fan out (supervised), fold into a report."""
        normalized = [as_input_bytes(text, what="input text") for text in texts]
        if not normalized:
            return ScanReport(matched=False, chunk_bytes=0)
        effective_jobs = resolve_jobs(
            jobs if jobs is not None else self.jobs, self.budget
        )
        entry = self._entry(pattern)
        tracer = self.tracer
        with tracer.span(
            "engine.scan",
            pattern=pattern,
            shards=len(normalized),
            jobs=effective_jobs,
        ) as span:
            if effective_jobs <= 1:
                report = run_in_process(entry.matcher.match, normalized)
            else:
                report = supervised_matches(
                    entry.payload,
                    normalized,
                    effective_jobs,
                    task_timeout=self.budget.max_task_seconds,
                    wall_timeout=self.budget.max_wall_seconds,
                    retries=self.retries,
                    mp_context=self.mp_context,
                    tracer=tracer,
                )
            if tracer.enabled:
                span.set(
                    failed=report.failed_chunks,
                    retries=report.retries,
                    respawns=report.respawns,
                )
        if self._instruments is not None:
            self._instruments.record_scan(report)
            # Fold worker-local VM counter deltas back into the
            # parent registry, so `repro_vm_steps_total` & co. stay
            # accurate whether a scan ran in-process or sharded.
            for outcome in report.outcomes:
                if outcome.vm_counters:
                    for name, value in outcome.vm_counters.items():
                        self.metrics.counter(name).inc(value)
        return report


class _EngineInstruments:
    """Pre-resolved metric handles for the engine's hot paths.

    Registry lookups take a lock and normalize labels; resolving every
    instrument once at engine construction keeps the per-request cost
    at plain ``Counter.inc`` calls.  ``create`` returns ``None`` for a
    disabled registry so call sites guard with one identity check.
    """

    __slots__ = (
        "requests",
        "shards",
        "retries",
        "respawns",
        "bytes_scanned",
        "scan_seconds",
    )

    @classmethod
    def create(cls, metrics) -> Optional["_EngineInstruments"]:
        if metrics is None or not metrics.enabled:
            return None
        instruments = cls()
        instruments.requests = {
            call: metrics.counter(
                "repro_engine_requests_total",
                labels={"call": call},
                help_text="engine entry-point invocations",
            )
            for call in ("match", "match_many", "scan_corpus")
        }
        instruments.shards = {
            status: metrics.counter(
                "repro_scan_shards_total",
                labels={"status": status},
                help_text="settled scan shards by final status",
            )
            for status in OUTCOME_STATUSES
        }
        instruments.retries = metrics.counter(
            "repro_scan_retries_total",
            help_text="shard attempts re-queued by the supervisor",
        )
        instruments.respawns = metrics.counter(
            "repro_scan_respawns_total",
            help_text="worker processes replaced after a crash or hang",
        )
        instruments.bytes_scanned = metrics.counter(
            "repro_scan_bytes_total",
            help_text="input bytes fed through engine scans",
        )
        instruments.scan_seconds = metrics.histogram(
            "repro_scan_seconds",
            help_text="wall-clock seconds per engine scan",
        )
        return instruments

    def record_scan(self, report: ScanReport) -> None:
        """Fold one scan report into the registry.

        Called exactly once per :meth:`Engine._scan`, and every shard
        settles in exactly one outcome, so summing
        ``repro_scan_shards_total`` across statuses always equals the
        number of shards dispatched.
        """
        shards = self.shards
        for outcome in report.outcomes:
            shards[outcome.status].inc()
        if report.retries:
            self.retries.inc(report.retries)
        if report.respawns:
            self.respawns.inc(report.respawns)
        self.bytes_scanned.inc(report.bytes_scanned)
        self.scan_seconds.observe(report.elapsed)


@dataclass(frozen=True)
class _CacheEntry:
    """What one cache slot holds: the matcher and its worker payload.

    ``payload`` is the picklable shard unit
    :func:`~repro.engine.supervisor.supervised_matches` ships to
    workers, which rebuild the same matcher from it.
    """

    matcher: PrefilteredMatcher
    payload: WorkerPayload


__all__ = [
    "CorpusScanResult",
    "DEFAULT_CACHE_SIZE",
    "Engine",
    "ScanReport",
    "resolve_jobs",
]
