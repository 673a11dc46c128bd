"""The scan supervisor's in-process surface: outcomes, the
strict/partial switch, buffer normalization and context selection.

The process-fault scenarios (hang, crash, poison input) live in
``test_supervisor_faults.py``; everything here runs without injected
worker faults, so it exercises the supervisor's bookkeeping and the
engine plumbing around it.
"""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.arch.config import ConfigurationError
from repro.engine import (
    Engine,
    ScanReport,
    ShardOutcome,
    resolve_mp_context,
)
from repro.engine.supervisor import run_in_process, supervised_matches
from repro.runtime.budget import DEFAULT_BUDGET
from repro.runtime.errors import VMStepBudgetError


class TestMpContext:
    def test_default_avoids_platform_fork(self):
        context = resolve_mp_context(None)
        expected = (
            "forkserver"
            if "forkserver" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        assert context.get_start_method() == expected

    def test_explicit_method_honored(self):
        assert resolve_mp_context("spawn").get_start_method() == "spawn"

    def test_unknown_method_is_typed_error(self):
        with pytest.raises(ConfigurationError, match="start method"):
            resolve_mp_context("threads")

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="no forkserver start method on this platform",
    )
    def test_forkserver_workers_start_with_the_package_imported(self):
        # A fresh interpreter, so its forkserver starts here.  The child
        # runs a builtin, so nothing but the server's preload can have
        # imported the workers' module before its first instruction.
        probe = (
            "import sys\n"
            "from repro.engine import resolve_mp_context\n"
            "code = 'import sys; sys.exit(%r not in sys.modules)' % sys.argv[1]\n"
            "child = resolve_mp_context('forkserver').Process(\n"
            "    target=exec, args=(code,))\n"
            "child.start(); child.join(); print(child.exitcode)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", probe, supervised_matches.__module__], env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert done.stdout.strip() == "0", done.stderr

    def test_engine_validates_at_construction(self):
        with pytest.raises(ConfigurationError):
            Engine(mp_context="bogus")

    def test_engine_threads_context_into_policy(self):
        # The start method has one spelling; the retry count rides next
        # to it, and a negative count fails at construction too.
        engine = Engine(mp_context="spawn", retries=9)
        assert engine.mp_context == "spawn" and engine.retries == 9
        assert Engine().retries == 2
        with pytest.raises(ConfigurationError, match="retries"):
            Engine(retries=-1)

    def test_engine_with_spawn_context_matches(self):
        engine = Engine(mp_context="spawn")
        assert engine.match_many("ab", ["ab", "xy", "zab"], jobs=2) == [
            True, False, True,
        ]


class TestRunInProcess:
    def test_all_ok(self):
        result = run_in_process(
            lambda data: b"x" in data, [b"ax", b"bb", b"x"]
        )
        assert [outcome.status for outcome in result.outcomes] == ["ok"] * 3
        assert result.chunk_matches == [True, False, True]
        assert result.failed_chunks == 0
        assert result.matched and result.bytes_scanned == 5

    def test_typed_errors_isolated_per_item(self):
        def match_fn(data):
            if data == b"poison":
                raise VMStepBudgetError(120, 100)
            return data == b"hit"

        result = run_in_process(match_fn, [b"hit", b"poison", b"miss"])
        assert [outcome.status for outcome in result.outcomes] == [
            "ok", "error", "ok",
        ]
        assert result.chunk_matches == [True, None, False]
        failure = result.errors()[0]
        assert failure.index == 1
        assert failure.error.code == "REPRO-BUDGET-VM-STEPS"


class TestOutcomeShapes:
    def test_outcome_to_dict(self):
        ok = ShardOutcome(2, "ok", verdict=True, attempts=1)
        assert ok.to_dict() == {
            "index": 2,
            "status": "ok",
            "verdict": True,
            "error": None,
            "attempts": 1,
        }
        bad = ShardOutcome(3, "error", error=VMStepBudgetError(2, 1))
        payload = bad.to_dict()
        assert payload["error"]["code"] == "REPRO-BUDGET-VM-STEPS"
        assert payload["verdict"] is None

    def test_empty_items_short_circuit(self):
        result = supervised_matches(None, [], jobs=4)
        assert result.outcomes == [] and result.respawns == 0


class TestPartialMode:
    def test_serial_partial_returns_report_with_verdicts(self):
        # The budget trip is the point of this test: a state cap the
        # entry state cannot fit sends every chunk the literal filter
        # passes (all three carry the ``a``) to the VM.
        tight = DEFAULT_BUDGET.replace(max_vm_steps=200, max_dfa_states=0)
        engine = Engine(budget=tight)
        texts = ["abd", "a" * 150 + "x", "acd"]
        report = engine.match_many("a(b|c)d", texts, strict=False)
        assert isinstance(report, ScanReport)
        assert [outcome.index for outcome in report.outcomes] == [0, 1, 2]
        assert report.chunk_matches[0] is True
        assert report.chunk_matches[1] is None
        assert report.chunk_matches[2] is True
        assert report.failed_chunks == 1 and not report.complete
        assert report.errors()[0].error.code == "REPRO-BUDGET-VM-STEPS"

    def test_serial_strict_raises_first_typed_error(self):
        tight = DEFAULT_BUDGET.replace(max_vm_steps=200, max_dfa_states=0)
        engine = Engine(budget=tight)
        with pytest.raises(VMStepBudgetError):
            engine.match_many("a(b|c)d", ["abd", "a" * 150 + "x"])

    def test_parallel_partial_healthy_run_is_complete(self):
        engine = Engine()
        texts = [("ab" * n + "cd") for n in range(12)]
        report = engine.match_many("(ab)+cd", texts, jobs=2, strict=False)
        assert isinstance(report, ScanReport)
        assert report.complete and report.quarantined == 0
        expected = engine.match_many("(ab)+cd", texts)
        assert report.chunk_matches == expected

    def test_scan_corpus_partial_reports_chunk_accounting(self):
        engine = Engine()
        corpus = b"x" * 600 + b"needle" + b"y" * 600
        report = engine.scan_corpus(
            "needle", corpus, chunk_bytes=200, jobs=2, strict=False
        )
        assert isinstance(report, ScanReport)
        assert report.matched and report.matched_chunks == 1
        assert report.chunks == 7 and report.complete
        assert report.bytes_scanned == len(corpus)
        assert report.chunk_bytes == 200

    def test_matched_chunks_ignores_missing_verdicts(self):
        report = ScanReport(matched=True, chunk_matches=[True, None, False])
        assert report.matched_chunks == 1


class TestBufferInputs:
    """Satellite: bytearray/memoryview inputs normalize like bytes."""

    def test_match_accepts_every_buffer_type(self):
        engine = Engine()
        for text in ("xabd", b"xabd", bytearray(b"xabd"),
                     memoryview(b"xabd")):
            assert engine.match("a(b|c)d", text), type(text).__name__

    def test_match_many_mixed_buffer_types_agree(self):
        engine = Engine()
        mixed = ["abd", b"zzz", bytearray(b"acd"), memoryview(b"xxabd")]
        plain = ["abd", "zzz", "acd", "xxabd"]
        assert engine.match_many("a(b|c)d", mixed) == engine.match_many(
            "a(b|c)d", plain
        )

    def test_parallel_buffer_types_agree_with_serial(self):
        engine = Engine()
        mixed = [bytearray(b"abd"), memoryview(b"zzz"), b"acd"] * 4
        serial = engine.match_many("a(b|c)d", mixed, jobs=1)
        parallel = engine.match_many("a(b|c)d", mixed, jobs=2)
        assert parallel == serial == [True, False, True] * 4
