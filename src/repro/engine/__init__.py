"""High-throughput matching engine: cache, fast VMs, supervised sharding.

The serving-oriented layer the ROADMAP's north star asks for, built on
four reusable pieces:

* :mod:`repro.engine.cache` — a thread-safe LRU
  :class:`~repro.engine.cache.PatternCache` keyed by the complete
  compilation identity, with hit/miss/eviction counters;
* :mod:`repro.engine.parallel` — the worker payload: workers rebuild
  matchers from pickled programs (never from the pattern, so
  compilation runs once) under an explicit start method;
* :mod:`repro.engine.supervisor` — the fault-tolerant scan supervisor,
  the only owner of worker processes: batches over one pipe per
  worker, per-shard timeouts, crash attribution, ``retries`` re-queues
  and quarantine (see
  ``docs/robustness.md``), and the :class:`ScanReport` every scan
  returns;
* :mod:`repro.engine.core` — :class:`~repro.engine.core.Engine`, the
  front door tying them to the compilation flow, with the
  ``strict``/partial switch returning the
  :class:`~repro.engine.supervisor.ScanReport` for degraded runs.

See ``docs/performance.md`` for cache semantics, the sharding model,
and how to read ``BENCH_engine.json``.
"""

from .cache import CacheStats, PatternCache
from .core import (
    DEFAULT_CACHE_SIZE,
    CorpusScanResult,
    Engine,
    ScanReport,
    resolve_jobs,
)
from .parallel import WorkerPayload, resolve_mp_context
from .supervisor import ShardOutcome, supervised_matches

__all__ = [
    "CacheStats",
    "CorpusScanResult",
    "DEFAULT_CACHE_SIZE",
    "Engine",
    "PatternCache",
    "ScanReport",
    "ShardOutcome",
    "WorkerPayload",
    "resolve_jobs",
    "resolve_mp_context",
    "supervised_matches",
]
