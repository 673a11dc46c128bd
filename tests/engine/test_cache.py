"""The compiled-pattern LRU cache: semantics, counters, thread safety."""

import threading

import pytest

from repro.arch.config import ConfigurationError
from repro.compiler import CompileOptions
from repro.engine import Engine
from repro.engine.cache import PatternCache
from repro.runtime.budget import Budget, DEFAULT_BUDGET


class TestLRUSemantics:
    def test_miss_then_hit(self):
        cache = PatternCache(4)
        builds = []
        value = cache.get_or_build("k", lambda: builds.append(1) or "v")
        assert value == "v" and builds == [1]
        assert cache.get_or_build("k", lambda: builds.append(2) or "v2") == "v"
        assert builds == [1]
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 0)
        assert stats.hit_rate == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = PatternCache(2)
        cache.get_or_build("a", lambda: "A")
        cache.get_or_build("b", lambda: "B")
        cache.get_or_build("a", lambda: "A?")  # refresh a
        cache.get_or_build("c", lambda: "C")  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats().evictions == 1

    def test_capacity_bound_holds(self):
        cache = PatternCache(3)
        for index in range(10):
            cache.get_or_build(index, lambda index=index: index)
        assert len(cache) == 3
        assert cache.stats().evictions == 7

    def test_clear_keeps_counters(self):
        cache = PatternCache(2)
        cache.get_or_build("a", lambda: "A")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().misses == 1

    def test_invalid_capacity_is_typed(self):
        with pytest.raises(ConfigurationError):
            PatternCache(0)


class TestThreadSafety:
    def test_concurrent_mixed_workload(self):
        cache = PatternCache(8)
        errors = []

        def worker(seed):
            try:
                for i in range(300):
                    key = (seed + i) % 16
                    value = cache.get_or_build(key, lambda key=key: key * 2)
                    assert value == key * 2
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats()
        assert stats.lookups == 6 * 300
        assert len(cache) <= 8

    def test_build_race_yields_one_artifact(self):
        cache = PatternCache(4)
        barrier = threading.Barrier(4)
        seen = []

        def builder():
            return object()

        def worker():
            barrier.wait()
            seen.append(cache.get_or_build("same", builder))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Whatever racing built, every caller from now on sees one object.
        final = cache.get_or_build("same", builder)
        assert all(value is final for value in seen[-1:])
        assert cache.get_or_build("same", builder) is final


class TestCacheKeys:
    """Engine keys carry the whole compilation identity: engines probing
    one cache share an entry exactly when pattern, options and budget
    agree (``None`` and the explicit defaults agree)."""

    @staticmethod
    def sharing(engine, **kwargs):
        other = Engine(**kwargs)
        other._cache = engine._cache
        return other

    def test_full_identity_in_key(self):
        engine = Engine()
        assert engine.match("a+b", "aab")
        assert engine.is_cached("a+b") and not engine.is_cached("a+c")
        defaults = self.sharing(
            engine, options=CompileOptions(), budget=DEFAULT_BUDGET
        )
        assert defaults.is_cached("a+b")
        assert defaults.match("a+b", "b") is False
        stats = engine.cache_stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        for kwargs in (
            {"options": CompileOptions(optimize=False)},
            {"options": CompileOptions(regex_pipeline=())},
            {"budget": Budget(max_vm_steps=7)},
        ):
            assert not self.sharing(engine, **kwargs).is_cached("a+b"), kwargs

    def test_key_is_hashable(self):
        engine = Engine(options=CompileOptions(), budget=Budget())
        engine.matcher("x")
        twin = self.sharing(engine, options=CompileOptions(), budget=Budget())
        assert twin.is_cached("x")
        assert twin.matcher("x") is engine.matcher("x")
