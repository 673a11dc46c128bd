"""Prefilter metadata must survive pickling into worker processes.

The compile-time analysis rides on the :class:`Program`; cached entries
and sharded workers must see byte-identical metadata, and the worker's
rebuilt prefiltered matcher must produce the same verdicts (and the
same skip counts) as the in-process path.
"""

import pickle

from repro.compiler import compile_regex
from repro.engine import Engine
from repro.engine.parallel import WorkerPayload, build_match_fn
from repro.observability import MetricsRegistry
from repro.prefilter.scanner import PrefilteredMatcher

PATTERN = "needle[0-9]"
#: ~3% of chunks carry the literal once chunked at 64 bytes.
SPARSE = (b"x" * 640 + b"needle7" + b"y" * 640) * 3


class TestProgramPickling:
    def test_analysis_round_trips(self):
        program = compile_regex(PATTERN).program
        clone = pickle.loads(pickle.dumps(program))
        assert clone.analysis is not None
        assert clone.analysis == program.analysis
        assert clone.analysis.to_dict() == program.analysis.to_dict()

    def test_source_map_round_trips(self):
        program = compile_regex(PATTERN).program
        clone = pickle.loads(pickle.dumps(program))
        assert clone.source_map == program.source_map
        assert list(clone) == list(program)
        assert clone.source_pattern == program.source_pattern

    def test_worker_payload_round_trips_prefilter_settings(self):
        program = compile_regex(PATTERN).program
        payload = WorkerPayload(
            artifact=program, max_vm_steps=456, max_dfa_states=123
        )
        clone = pickle.loads(pickle.dumps(payload))
        assert clone.max_vm_steps == 456
        assert clone.max_dfa_states == 123
        assert clone.artifact.analysis == program.analysis

    def test_rebuilt_worker_matcher_sees_identical_metadata(self):
        # Exactly what a starting worker does with the unpickled
        # payload: the matcher's plan must equal the parent's.
        program = compile_regex(PATTERN).program
        parent = PrefilteredMatcher(program)
        payload = pickle.loads(pickle.dumps(WorkerPayload(artifact=program)))
        worker = build_match_fn(payload)
        assert worker.analysis.to_dict() == parent.analysis.to_dict()
        assert worker.plan == parent.plan

    def test_build_match_fn_uses_prefilter_from_payload(self):
        program = compile_regex(PATTERN).program
        payload = WorkerPayload(artifact=program, max_dfa_states=0)
        matcher = build_match_fn(payload)
        assert matcher.plan["stages"] == ["literal(1)", "vm"]
        assert matcher.match(b"hay needle3 hay").matched is True
        assert matcher.match(b"hay hay hay").matched is False


class TestParallelBehaviour:
    def test_parallel_verdicts_equal_serial(self):
        serial = Engine()
        parallel = Engine()
        expected = serial.scan_corpus(PATTERN, SPARSE, chunk_bytes=64)
        got = parallel.scan_corpus(PATTERN, SPARSE, chunk_bytes=64, jobs=2)
        assert got.matched == expected.matched
        assert got.matched_chunks == expected.matched_chunks
        assert got.chunks == expected.chunks

    def test_worker_skip_counters_match_serial(self):
        # Workers ship their label-free counter deltas back per shard;
        # the merged totals must equal what one process would count —
        # proof the workers ran the same prefilter over the same chunks.
        serial_registry = MetricsRegistry()
        serial = Engine(metrics=serial_registry)
        serial.scan_corpus(PATTERN, SPARSE, chunk_bytes=64)
        serial_skips = serial_registry.value("repro_prefilter_skips_total")
        assert serial_skips and serial_skips > 0

        parallel_registry = MetricsRegistry()
        parallel = Engine(
            metrics=parallel_registry,
            collect_worker_metrics=True,
        )
        parallel.scan_corpus(PATTERN, SPARSE, chunk_bytes=64, jobs=2)
        assert (
            parallel_registry.value("repro_prefilter_skips_total")
            == serial_skips
        )
        assert parallel_registry.value(
            "repro_prefilter_checks_total"
        ) == serial_registry.value("repro_prefilter_checks_total")
