"""Observability wired through compiler, engine, VMs, simulator and CLI.

The reconciliation tests here are the deterministic half of the ISSUE's
acceptance bar: metrics snapshots taken after supervised runs must
account for every shard exactly once (across ``ok``/``error``/
``timeout``/``quarantined``), and cache counters must agree with the
engine's own :class:`~repro.engine.cache.CacheStats`.
"""

import json

import pytest

import repro
from repro.cli import main
from repro.engine import Engine
from repro.multimatch import MultiMatchVM, compile_multipattern
from repro.observability import (
    MetricsRegistry,
    TraceReport,
    Tracer,
    VMProfile,
    default_registry,
    default_tracer,
    load_snapshot,
    parse_jsonl,
    recording,
    validate_trace,
)
from repro.runtime.budget import DEFAULT_BUDGET
from repro.runtime.errors import VMStepBudgetError
from repro.vm.thompson import ThompsonVM
from worker_faults import fail, hang, misbehave

PATTERN = "a(b|c)d*e"
TEXTS = ["xabd", "zzz", "acd", "", "abdx", "nope", "aad", "xacdx"]


def make_engine(max_retries=0, task_timeout=None, metrics=None, tracer=None,
                **engine_kwargs):
    budget = DEFAULT_BUDGET.replace(max_task_seconds=task_timeout)
    return Engine(budget=budget, retries=max_retries, metrics=metrics,
                  tracer=tracer, **engine_kwargs)


class TestCompileTrace:
    def test_trace_covers_frontend_passes_and_codegen(self):
        result = repro.compile_pattern(PATTERN, trace=True)
        trace = result.trace
        assert isinstance(trace, TraceReport)
        names = trace.span_names()
        for expected in ("compile", "frontend", "lowering", "codegen"):
            assert expected in names, names
        assert validate_trace(parse_jsonl(trace.to_jsonl())) == []
        assert trace.pass_spans(), "pipeline ran no traced passes"
        assert trace.pass_timings()

    def test_pass_spans_record_ir_deltas(self):
        trace = repro.compile_pattern(PATTERN, trace=True).trace
        for span in trace.pass_spans():
            assert span.attributes["op_count_before"] >= 1
            assert span.attributes["op_count_after"] >= 1
        # Cicero-dialect passes see a laid-out program, so the Eq. 1
        # D_offset is defined (an int), and jump threading never makes
        # it worse.
        cicero_spans = [
            span
            for span in trace.pass_spans()
            if span.attributes.get("d_offset_after") is not None
        ]
        assert cicero_spans, "no pass recorded a D_offset"
        for span in cicero_spans:
            if "d_offset_delta" in span.attributes:
                assert span.attributes["d_offset_delta"] <= 0

    def test_untraced_compile_has_no_trace(self):
        assert repro.compile_pattern(PATTERN).trace is None


class TestEngineCompileSpan:
    """A cache miss is traced from the engine down to each pass."""

    def chain(self, tracer, name):
        spans = {span.span_id: span for span in tracer.finished_spans()}
        (span,) = tracer.find(name)
        names = [span.name]
        while span.parent_id is not None:
            span = spans[span.parent_id]
            names.append(span.name)
        return names

    def test_miss_joins_engine_compiler_and_passes(self, monkeypatch):
        # The halves record into the engine's long-lived tracer; only
        # NewCompiler.compile snapshots one into a TraceReport.
        monkeypatch.setattr(
            TraceReport, "from_tracer", lambda tracer: pytest.fail("snapshot")
        )
        tracer = Tracer()
        engine = make_engine(tracer=tracer)
        assert engine.match(PATTERN, "xabde")
        assert self.chain(tracer, "pass:regex-factorize-alternations") == [
            "pass:regex-factorize-alternations",
            "regex-transforms",
            "compile",
            "engine.compile",
        ]
        assert self.chain(tracer, "pass:cicero-dce")[1:] == [
            "cicero-transforms",
            "compile",
            "engine.compile",
        ]
        (root,) = tracer.find("engine.compile")
        assert root.attributes == {"pattern": PATTERN, "cache": "miss"}
        (factorize,) = tracer.find("pass:regex-factorize-alternations")
        assert "op_count_delta" in factorize.attributes
        (dce,) = tracer.find("pass:cicero-dce")
        assert dce.attributes["d_offset_delta"] <= 0
        assert validate_trace(parse_jsonl(tracer.to_jsonl())) == []

        # A hit compiles nothing and opens no span.
        before = len(tracer.finished_spans())
        assert not engine.match(PATTERN, "zzz")
        assert len(tracer.finished_spans()) == before

    @pytest.mark.parametrize(
        "max_dfa_states, verifier", [(None, "lazy-dfa"), (0, "vm")]
    )
    def test_plan_span_names_the_verifier_that_runs(
        self, max_dfa_states, verifier
    ):
        # A cap that cannot hold the entry state sends the lazy DFA to
        # the VM at construction; the plan must say so, and the counters
        # agree with it.
        tracer, registry = Tracer(), MetricsRegistry()
        engine = Engine(
            budget=DEFAULT_BUDGET.replace(max_dfa_states=max_dfa_states),
            tracer=tracer,
            metrics=registry,
        )
        assert engine.match("ab+c", "xxabbc")
        (plan,) = tracer.find("prefilter.plan")
        assert plan.attributes["stages"] == f"literal(1) -> {verifier}"
        ran_dfa = registry.value("repro_lazydfa_runs_total") == 1
        assert ran_dfa == (verifier == "lazy-dfa")
        assert registry.value("repro_lazydfa_fallback_total") == (
            0 if ran_dfa else 1
        )

    def test_untraced_miss_creates_no_span(self, monkeypatch):
        from repro.observability import tracer as tracer_module

        created = []
        real_init = tracer_module.Span.__init__

        def counting_init(span, *args, **kwargs):
            created.append(span)
            real_init(span, *args, **kwargs)

        monkeypatch.setattr(tracer_module.Span, "__init__", counting_init)
        engine = make_engine()
        assert not engine.tracer.enabled
        assert engine.match(PATTERN, "xabde")
        assert engine.cache_stats().misses == 1
        assert created == []


class TestEngineMetricsReconcile:
    def test_clean_scan_accounts_every_shard_once(self):
        registry = MetricsRegistry()
        engine = make_engine(metrics=registry, tracer=Tracer())
        data = "xxabdddeyy" * 40
        report = engine.scan_corpus(
            PATTERN, data, chunk_bytes=50, strict=False
        )
        shards = report.chunks
        assert shards > 1
        assert registry.sum_values("repro_scan_shards_total") == shards
        assert registry.value(
            "repro_scan_shards_total", labels={"status": "ok"}
        ) == shards
        assert registry.value("repro_scan_bytes_total") == len(data)
        assert registry.value(
            "repro_engine_requests_total", labels={"call": "scan_corpus"}
        ) == 1
        assert registry.value("repro_scan_seconds")["count"] == 1

    def test_quarantined_shards_accounted_once(self, monkeypatch):
        registry = MetricsRegistry()
        engine = make_engine(metrics=registry, mp_context="fork")
        misbehave(monkeypatch, {3}, fail)
        report = engine.match_many("a(b|c)d", TEXTS, jobs=2, strict=False)
        assert report.outcomes[3].status == "quarantined"
        assert registry.sum_values("repro_scan_shards_total") == len(TEXTS)
        assert registry.value(
            "repro_scan_shards_total", labels={"status": "quarantined"}
        ) == 1
        assert registry.value(
            "repro_scan_shards_total", labels={"status": "ok"}
        ) == len(TEXTS) - 1

    def test_retried_shard_counts_once_and_retries_accumulate(
        self, monkeypatch, tmp_path
    ):
        registry = MetricsRegistry()
        engine = make_engine(max_retries=2, metrics=registry,
                             mp_context="fork")
        misbehave(monkeypatch, {5}, fail, once=tmp_path / "failed")
        report = engine.match_many("a(b|c)d", TEXTS, jobs=2, strict=False)
        assert all(outcome.ok for outcome in report.outcomes)
        # The retried shard still settles exactly once.
        assert registry.sum_values("repro_scan_shards_total") == len(TEXTS)
        assert registry.value(
            "repro_scan_shards_total", labels={"status": "ok"}
        ) == len(TEXTS)
        assert registry.value("repro_scan_retries_total") == report.retries
        assert report.retries >= 1

    def test_timeout_shards_accounted_once(self, monkeypatch):
        registry = MetricsRegistry()
        engine = make_engine(task_timeout=0.5, metrics=registry,
                             mp_context="fork")
        misbehave(monkeypatch, {2}, hang)
        report = engine.match_many("a(b|c)d", TEXTS, jobs=2, strict=False)
        assert report.outcomes[2].status == "timeout"
        # On a loaded box the respawn can push *other* pending shards
        # past their task clocks too — don't pin the timeout count, just
        # require the registry to mirror the report status-for-status.
        assert registry.sum_values("repro_scan_shards_total") == len(TEXTS)
        for status in ("ok", "error", "timeout", "quarantined"):
            expected = sum(
                1 for outcome in report.outcomes if outcome.status == status
            )
            assert registry.value(
                "repro_scan_shards_total", labels={"status": status}
            ) == expected, status
        assert registry.value("repro_scan_respawns_total") == report.respawns

    def test_cache_counters_match_cache_stats(self):
        registry = MetricsRegistry()
        engine = make_engine(metrics=registry, cache_size=1)
        engine.match("ab", "xaby")
        engine.match("ab", "zz")        # hit
        engine.match("cd*", "accc")     # evicts "ab"
        stats = engine.cache_stats()
        assert stats.hits == 1 and stats.misses == 2 and stats.evictions == 1
        assert registry.value("repro_cache_hits_total") == stats.hits
        assert registry.value("repro_cache_misses_total") == stats.misses
        assert registry.value("repro_cache_evictions_total") == stats.evictions


class TestVMAndSimulatorCounters:
    def test_thompson_vm_counters_match_span(self):
        program = repro.compile_pattern(PATTERN).program
        tracer = Tracer()
        registry = MetricsRegistry()
        vm = ThompsonVM(program)
        result = vm.run("xxabdddezz", tracer=tracer, metrics=registry)
        assert result.matched
        span = tracer.find("vm.run")[0]
        assert registry.value("repro_vm_runs_total") == 1
        assert registry.value("repro_vm_steps_total") == span.attributes["steps"]
        assert span.attributes["steps"] > 0
        assert registry.value(
            "repro_vm_closure_hits_total"
        ) == span.attributes["closure_hits"]
        assert registry.value(
            "repro_vm_dedup_suppressed_total"
        ) == span.attributes["dedup_suppressed"]
        assert span.attributes["matched"] is True

    # (pattern, text) -> position, steps, dedup_suppressed, closure_hits,
    # positions: measured at the commit before the six fast loops became
    # one kernel.  Since the kernel steps PC masks, an accepting position
    # contributes every PC it executes (the Observer's definition), so
    # the three matching rows count 2-3 more steps than that commit did;
    # the non-matching row is unchanged.
    PINNED_VM_RUNS = [
        ("a(b|c)+d[^x]e", "xxabdddezzabcbdqe", 17, 59, 0, 30, 18),
        ("ab", "xxxxab", 6, 16, 0, 8, 7),
        ("[^a]b$", "zzzb", 4, 19, 0, 13, 5),
        ("(a|aa){3}b", "aaaaaaaac", None, 62, 18, 48, 10),
    ]

    def test_thompson_vm_telemetry_is_pinned(self):
        for pattern, text, position, *counts in self.PINNED_VM_RUNS:
            program = repro.compile_pattern(pattern).program
            tracer = Tracer()
            registry = MetricsRegistry()
            profile = VMProfile(program)
            result = ThompsonVM(program).run(
                text, tracer=tracer, metrics=registry, profile=profile
            )
            assert (result.matched, result.position) == (
                position is not None, position
            ), pattern
            attributes = tracer.find("vm.run")[0].attributes
            assert [
                attributes[name]
                for name in ("steps", "dedup_suppressed", "closure_hits",
                             "positions")
            ] == counts, pattern
            assert attributes["matched"] is result.matched
            assert sum(profile.pc_counts) == attributes["steps"]
            assert profile.positions == attributes["positions"]
            for name in ("steps", "dedup_suppressed", "closure_hits"):
                assert registry.value(
                    f"repro_vm_{name}_total"
                ) == attributes[name], (pattern, name)

    def test_budget_abort_keeps_span_metrics_and_profile_in_step(self):
        program = repro.compile_pattern("(a|aa){3}b").program
        tracer = Tracer()
        registry = MetricsRegistry()
        profile = VMProfile(program)
        with pytest.raises(VMStepBudgetError) as excinfo:
            ThompsonVM(program).run(
                "aaaaaaaac", max_steps=20, tracer=tracer, metrics=registry,
                profile=profile,
            )
        attributes = tracer.find("vm.run")[0].attributes
        # Pinned from the parent: the abort position's steps count, its
        # carried roots do not.
        assert (
            attributes["steps"], attributes["dedup_suppressed"],
            attributes["closure_hits"], attributes["positions"],
        ) == (28, 6, 19, 5)
        assert excinfo.value.spent == attributes["steps"]
        assert sum(profile.pc_counts) == attributes["steps"]
        assert registry.value("repro_vm_steps_total") == attributes["steps"]
        assert registry.value(
            "repro_vm_closure_hits_total"
        ) == attributes["closure_hits"]

    def test_multimatch_telemetry_is_pinned(self):
        multi = compile_multipattern(["ab", "c[^d]e", "a$"])
        tracer = Tracer()
        registry = MetricsRegistry()
        profile = VMProfile(multi.program)
        result = MultiMatchVM(multi).run(
            "xxabcqexxa", tracer=tracer, metrics=registry, profile=profile
        )
        assert result.matched_ids == {1, 2, 3}
        attributes = tracer.find("multimatch.run")[0].attributes
        assert attributes["matched_ids"] == [1, 2, 3]
        assert (
            attributes["steps"], attributes["dedup_suppressed"],
            attributes["closure_hits"],
        ) == (75, 0, 39)
        assert sum(profile.pc_counts) == 75
        assert registry.value("repro_vm_runs_total") == 1
        assert registry.value("repro_vm_steps_total") == 75
        assert registry.value("repro_vm_closure_hits_total") == 39

    def test_instrumented_vm_agrees_with_plain_run(self):
        program = repro.compile_pattern(PATTERN).program
        vm = ThompsonVM(program)
        for text in ("xxabdddezz", "nope", "", "ace"):
            plain = vm.run(text)
            traced = vm.run(text, tracer=Tracer(), metrics=MetricsRegistry())
            assert (plain.matched, plain.position) == (
                traced.matched,
                traced.position,
            )

    def test_simulator_counters_and_span(self):
        from repro.arch.simulator import CiceroSimulator

        program = repro.compile_pattern(PATTERN).program
        tracer = Tracer()
        registry = MetricsRegistry()
        simulator = CiceroSimulator(tracer=tracer, metrics=registry)
        result = simulator.run(program, "xxabdddezz")
        assert result.matched
        span = tracer.find("arch.run")[0]
        assert span.attributes["cycles"] == result.cycles
        assert registry.value("repro_sim_runs_total") == 1
        assert registry.value("repro_sim_cycles_total") == result.cycles
        assert registry.value(
            "repro_sim_fifo_high_watermark"
        ) == result.stats.fifo_high_watermark

    def test_simulator_stream_aggregates(self):
        from repro.arch.simulator import CiceroSimulator

        program = repro.compile_pattern(PATTERN).program
        tracer = Tracer()
        registry = MetricsRegistry()
        simulator = CiceroSimulator(tracer=tracer, metrics=registry)
        stream = simulator.run_stream(program, ["xxabde", "zz", "abdde"])
        assert registry.value("repro_sim_runs_total") == 3
        span = tracer.find("arch.stream")[0]
        assert span.attributes["chunks"] == 3
        assert span.attributes["matches"] == stream.matches
        assert validate_trace(parse_jsonl(tracer.to_jsonl())) == []


class TestRecordingDefaults:
    def test_engines_inside_recording_report_to_it(self):
        with recording() as rec:
            assert default_registry() is rec.metrics
            assert default_tracer() is rec.tracer
            engine = Engine()
            engine.match("ab", "xaby")
            assert rec.metrics.value(
                "repro_engine_requests_total", labels={"call": "match"}
            ) == 1
        assert default_registry() is not rec.metrics
        assert default_tracer().enabled is False

    def test_recording_without_install_leaves_defaults(self):
        before = default_registry()
        with recording(install=False) as rec:
            assert default_registry() is before
            assert rec.metrics is not before


class TestCLI:
    def test_compile_trace_out(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert main(
            ["compile", PATTERN, "--trace-out", str(trace_path),
             "--emit", "metrics"]
        ) == 0
        records = parse_jsonl(trace_path.read_text())
        assert validate_trace(records) == []
        names = [record["name"] for record in records]
        assert "compile" in names
        assert any(name.startswith("pass:") for name in names)
        captured = capsys.readouterr()
        assert "trace:" in captured.err

    def test_compile_trace_out_rejects_old_compiler(self, tmp_path, capsys):
        assert main(
            ["compile", PATTERN, "--compiler", "old",
             "--trace-out", str(tmp_path / "t.jsonl")]
        ) == 2
        assert "--trace-out" in capsys.readouterr().err

    def test_run_trace_out_covers_compile_and_execution(
        self, tmp_path, capsys
    ):
        trace_path = tmp_path / "run.jsonl"
        assert main(
            ["run", PATTERN, "xxabdddezz", "--functional",
             "--trace-out", str(trace_path)]
        ) == 0
        names = [r["name"] for r in parse_jsonl(trace_path.read_text())]
        assert "compile" in names and "vm.run" in names

    def test_scan_trace_out_joins_compile_under_the_engine(self, tmp_path):
        trace_path = tmp_path / "scan.jsonl"
        assert main(
            ["scan", PATTERN, "--text", "xxabdddeyy" * 20,
             "--chunk-bytes", "50", "--trace-out", str(trace_path)]
        ) == 0
        records = parse_jsonl(trace_path.read_text())
        assert validate_trace(records) == []
        names = [record["name"] for record in records]
        assert names.count("engine.compile") == 1
        assert "compile" in names and "engine.scan" in names
        assert any(name.startswith("pass:") for name in names)

    def test_scan_metrics_and_stats_round_trip(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        text = "xxabdddeyy" * 50
        assert main(
            ["scan", PATTERN, "--text", text, "--chunk-bytes", "100",
             "--metrics", "--stats-file", str(stats_path)]
        ) == 0
        out = capsys.readouterr().out
        # Prometheus exposition is printed after the human summary.
        assert "# TYPE repro_scan_shards_total counter" in out
        assert 'repro_scan_shards_total{status="ok"}' in out

        payload = load_snapshot(str(stats_path))
        assert payload["command"] == "scan"
        assert payload["bytes"] == len(text)
        expected_chunks = -(-len(text) // 100)
        assert payload["metrics"][
            'repro_scan_shards_total{status="ok"}'
        ] == expected_chunks
        assert payload["metrics"]["repro_cache_misses_total"] == 1

        assert main(["stats", "--stats-file", str(stats_path)]) == 0
        stats_out = capsys.readouterr().out
        assert str(stats_path) in stats_out
        assert "repro_cache_misses_total 1" in stats_out

    def test_stats_without_snapshot_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["stats", "--stats-file", str(missing)]) == 1
        assert "no metrics snapshot" in capsys.readouterr().err

    def test_stats_file_is_valid_json_document(self, tmp_path):
        stats_path = tmp_path / "stats.json"
        assert main(
            ["scan", "ab", "--text", "xxabyy",
             "--stats-file", str(stats_path)]
        ) == 0
        payload = json.loads(stats_path.read_text())
        assert payload["schema"] == 1
