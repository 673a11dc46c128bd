"""Thread-safe LRU cache for compiled patterns.

Compilation is the expensive half of serving a match request — the
frontend → dialects → codegen pipeline costs milliseconds while a cache
probe costs microseconds — and real traffic repeats patterns heavily.
:class:`~repro.engine.core.Engine` keys it by the *complete*
compilation identity ``(pattern, CompileOptions.cache_key(),
Budget.cache_key())``, so two callers with different optimization
flags or budgets never share an artifact.

MLIR's own thesis (reusable compilation infrastructure behind stable
interfaces) is the design here: any matcher-producing builder can sit
behind :meth:`PatternCache.get_or_build`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from ..arch.config import ConfigurationError

#: Distinguishes "no entry" from any cached artifact in the probe path.
_ABSENT = object()


@dataclass
class CacheStats:
    """Monotonic counters; snapshot with :meth:`PatternCache.stats`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
        }


class PatternCache:
    """Bounded LRU mapping cache keys to built artifacts.

    Safe for concurrent use: lookups, inserts and evictions run under
    one lock.  The *builder* runs **outside** the lock, so a slow
    compilation never blocks other threads' cache hits; two threads
    missing on the same key concurrently may both build, and the first
    insert wins (the duplicate artifact is discarded — matchers are
    value objects, so this is benign).
    """

    def __init__(self, capacity: int = 256, metrics: Any = None):
        if capacity < 1:
            raise ConfigurationError(
                f"cache capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        # Pre-resolved registry instruments (one lookup per cache, not
        # per probe); ``None`` keeps the probe path allocation-free.
        self._metric_hits = None
        self._metric_misses = None
        self._metric_evictions = None
        if metrics is not None and metrics.enabled:
            self._metric_hits = metrics.counter(
                "repro_cache_hits_total",
                help_text="pattern-cache lookups served from the LRU",
            )
            self._metric_misses = metrics.counter(
                "repro_cache_misses_total",
                help_text="pattern-cache lookups that compiled",
            )
            self._metric_evictions = metrics.counter(
                "repro_cache_evictions_total",
                help_text="pattern-cache entries dropped by LRU pressure",
            )

    def get_or_build(
        self, key: Hashable, builder: Callable[[], Any]
    ) -> Any:
        with self._lock:
            if key in self._entries:
                self._hits += 1
                self._entries.move_to_end(key)
                cached = self._entries[key]
            else:
                self._misses += 1
                cached = _ABSENT
        if cached is not _ABSENT:
            if self._metric_hits is not None:
                self._metric_hits.inc()
            return cached
        if self._metric_misses is not None:
            self._metric_misses.inc()
        artifact = builder()
        evicted = 0
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                # Lost the build race; keep the incumbent so every
                # caller observes one artifact per key.
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = artifact
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
                evicted += 1
        if evicted and self._metric_evictions is not None:
            self._metric_evictions.inc(evicted)
        return artifact

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters survive; they are monotonic)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )


__all__ = ["CacheStats", "PatternCache"]
