"""The Engine front door: caching, batching, sharding, budgets."""

import dataclasses

import pytest

import repro
from repro.arch.config import ConfigurationError
from repro.compiler import COMPILER_NAME
from repro.engine import Engine
from repro.engine.core import resolve_jobs
from repro.engine.parallel import WorkerPayload
from repro.observability import MetricsRegistry
from repro.runtime.budget import Budget, DEFAULT_BUDGET
from repro.runtime.errors import (
    InputEncodingError,
    PassBudgetError,
    VMStepBudgetError,
)
from repro.vm.kernel import DispatchTables


#: The paths the engine's one matcher takes, keyed by the names of the
#: prefilter modes that used to select them: ``auto`` filters and
#: verifies on the lazy DFA, ``literal`` (a state cap the entry state
#: cannot fit) filters and verifies on the VM, ``off`` (an inert
#: pattern under that cap) is the VM alone.
ENGINE_PATHS = {
    "auto": ("a(b|c)+d", DEFAULT_BUDGET),
    "literal": ("a(b|c)+d", Budget(max_dfa_states=0)),
    "off": ("a(b|c)+d|(e)*", Budget(max_dfa_states=0)),
}


class TestMatch:
    def test_verdicts_across_backends(self):
        for budget in (DEFAULT_BUDGET, Budget(max_dfa_states=0)):
            engine = Engine(budget=budget)
            assert engine.match("th(is|at)", "say that"), budget
            assert not engine.match("th(is|at)", "nothing"), budget

    def test_repeat_requests_hit_the_cache(self):
        engine = Engine()
        for _ in range(5):
            engine.match("a(b|c)d", "xabd")
        stats = engine.cache_stats()
        assert stats.misses == 1 and stats.hits == 4
        assert stats.hit_rate == pytest.approx(0.8)

    def test_distinct_patterns_distinct_entries(self):
        engine = Engine(cache_size=2)
        engine.match("ab", "ab")
        engine.match("cd", "cd")
        engine.match("ef", "ef")  # evicts "ab"
        assert engine.cache_stats().evictions == 1

    def test_bytes_and_str_agree(self):
        engine = Engine()
        assert engine.match("ab+c", "xabbc") == engine.match("ab+c", b"xabbc")

    def test_vm_step_budget_enforced(self):
        # A state cap the entry state cannot fit sends every chunk to the
        # VM, and the input carries the required literal ``b`` so the
        # chunk filter passes it: the VM spends its steps.
        tight = DEFAULT_BUDGET.replace(max_vm_steps=10, max_dfa_states=0)
        engine = Engine(budget=tight)
        with pytest.raises(VMStepBudgetError):
            engine.match("(a|aa)*b", "a" * 200 + "cb")

    def test_dfa_state_cap_below_one_degrades_to_the_vm(self):
        # ``<= 0`` always trips (budget.py); tripping is a performance
        # event, so the verdict is the VM's and nothing is raised.
        registry = MetricsRegistry()
        engine = Engine(budget=Budget(max_dfa_states=0), metrics=registry)
        assert engine.match("ab+c", "xxabbc")
        assert not engine.match("ab+c", "xxabbd")
        assert registry.value("repro_lazydfa_fallback_total") == 1

    def test_pass_time_budget_enforced_like_compile_pattern(self):
        # The engine compiles through NewCompiler's halves, so the typed
        # error is the one compile_pattern and api.match raise.
        zero = Budget(max_pass_seconds=0)
        with pytest.raises(PassBudgetError) as direct:
            repro.compile_pattern("th(is|at)", budget=zero)
        with pytest.raises(PassBudgetError) as matched:
            repro.match("th(is|at)", "that", budget=zero)
        with pytest.raises(PassBudgetError) as served:
            Engine(budget=zero).match("th(is|at)", "that")
        assert (
            served.value.code
            == matched.value.code
            == direct.value.code
            == "REPRO-BUDGET-PASS-TIME"
        )

    def test_engine_programs_carry_the_compiler_stamp(self):
        assert Engine().matcher("th(is|at)").vm.program.compiler == COMPILER_NAME

    def test_worker_payload_per_backend(self):
        # The one payload, spelled out field by field: the artifact is
        # the program the in-process matcher runs.
        budget = DEFAULT_BUDGET.replace(max_vm_steps=1234, max_dfa_states=77)
        for collect in (False, True):
            engine = Engine(
                budget=budget,
                metrics=MetricsRegistry(),
                collect_worker_metrics=collect,
            )
            entry = engine._entry("a(b|c)d")
            assert entry.payload.artifact is entry.matcher.vm.program
            assert dataclasses.replace(
                entry.payload, artifact=None
            ) == WorkerPayload(
                None, 1234, collect_vm_metrics=collect, max_dfa_states=77
            ), collect

    @pytest.mark.parametrize("path", sorted(ENGINE_PATHS))
    def test_one_dispatch_table_build_per_cached_pattern(
        self, monkeypatch, path
    ):
        # The prefilter facade, the lazy DFA and its VM fallback all run
        # on the cache entry's one VM.
        pattern, budget = ENGINE_PATHS[path]
        builds = []
        build = DispatchTables.__init__

        def counting(tables, program):
            builds.append(program.source_pattern)
            build(tables, program)

        monkeypatch.setattr(DispatchTables, "__init__", counting)
        engine = Engine(budget=budget)
        assert engine.match(pattern, "xxabcbdyy")
        assert engine.scan_corpus(pattern, "xxabcbdyy" * 200, chunk_bytes=500)
        assert builds == [pattern]
        assert engine.matcher(pattern).plan["stages"][-1] == (
            "lazy-dfa" if path == "auto" else "vm"
        )


class TestMatchMany:
    def test_order_preserved_serial(self):
        engine = Engine()
        texts = ["abd", "zzz", b"acd", "", "xxabd"]
        assert engine.match_many("a(b|c)d", texts) == [
            True, False, True, False, True,
        ]

    def test_parallel_agrees_with_serial(self):
        engine = Engine()
        texts = [("ab" * i + "cd") for i in range(30)]
        serial = engine.match_many("(ab)+cd", texts, jobs=1)
        parallel = engine.match_many("(ab)+cd", texts, jobs=2)
        assert parallel == serial

    def test_parallel_across_backends(self):
        engine = Engine()
        assert engine.match_many("ab", ["ab", "xy", b"zab"], jobs=2) == [
            True, False, True,
        ]

    def test_empty_batch(self):
        assert Engine().match_many("ab", []) == []

    def test_encoding_error_raised_in_parent(self):
        engine = Engine()
        with pytest.raises(InputEncodingError):
            engine.match_many("ab", ["ok", "bad €"], jobs=2)

    def test_budget_caps_jobs(self):
        assert resolve_jobs(8, Budget(max_parallel_jobs=2)) == 2
        assert resolve_jobs(None, Budget(max_parallel_jobs=3)) == 3
        assert resolve_jobs(None, Budget()) == 1
        assert resolve_jobs(0, Budget()) >= 1
        with pytest.raises(ConfigurationError):
            resolve_jobs(-1, Budget())


class TestScanCorpus:
    def test_chunked_scan_finds_needle(self):
        engine = Engine()
        corpus = b"x" * 1200 + b"needle" + b"y" * 900
        result = engine.scan_corpus("needle", corpus, chunk_bytes=200)
        assert result.matched and bool(result)
        assert result.chunks == 11 and result.matched_chunks == 1
        assert result.bytes_scanned == len(corpus)

    def test_parallel_scan_agrees(self):
        engine = Engine()
        corpus = (b"ab" * 50 + b"cq") * 40
        serial = engine.scan_corpus("(ab)+c", corpus, chunk_bytes=64, jobs=1)
        parallel = engine.scan_corpus("(ab)+c", corpus, chunk_bytes=64, jobs=2)
        assert serial.chunk_matches == parallel.chunk_matches

    def test_no_match(self):
        result = Engine().scan_corpus("zzz", b"abcd" * 100)
        assert not result.matched and result.matched_chunks == 0


class TestApiFacade:
    def test_module_level_helpers_share_one_cache(self):
        before = repro.default_engine().cache_stats().lookups
        assert repro.match_many("qq+r", ["qqr", "no"]) == [True, False]
        assert repro.scan_corpus("qq+r", b"xxqqqryy", chunk_bytes=8).matched
        after = repro.default_engine().cache_stats()
        assert after.lookups >= before + 2

    def test_engine_exported_at_package_root(self):
        assert repro.Engine is Engine
