"""Conservation and attribution properties of the execution profiler.

The profiler's contract is *lossless decomposition*: per-PC counts must
sum to exactly the aggregate counters the instrumented loops already
maintain (``repro_vm_steps_total``, ``SimulationStatistics``) on every
exit path — early accepts, full scans and budget aborts alike.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import ArchConfig
from repro.arch.simulator import CiceroSimulator
from repro.compiler import NewCompiler
from repro.multimatch import MultiMatchVM, compile_multipattern
from repro.observability import (
    UNATTRIBUTED,
    MetricsRegistry,
    SimProfile,
    VMProfile,
)
from repro.oldcompiler.compiler import OldCompiler
from repro.runtime.errors import ReproError
from repro.vm.thompson import ThompsonVM

PATTERNS = [
    "a(b|c)d*e",
    "(a|ab|b)*c(d|e)f{2,4}",
    "th(is|at|ose)",
    "x[ab]{2,4}y",
    "colou?r",
    "(ab|ba)+c",
]

texts = st.text(
    alphabet="abcdefxy.|",
    max_size=40,
)


def _compile(pattern):
    return NewCompiler().compile(pattern).program


class TestVMConservation:
    @settings(max_examples=40, deadline=None)
    @given(
        pattern=st.sampled_from(PATTERNS),
        text=texts,
    )
    def test_pc_counts_sum_to_steps_counter(self, pattern, text):
        program = _compile(pattern)
        profile = VMProfile(program)
        registry = MetricsRegistry()
        ThompsonVM(program).run(text, metrics=registry, profile=profile)
        assert profile.total_steps == registry.sum_values(
            "repro_vm_steps_total"
        )
        assert profile.runs == 1

    def test_accumulates_across_runs(self):
        program = _compile("a(b|c)d*e")
        profile = VMProfile(program)
        registry = MetricsRegistry()
        vm = ThompsonVM(program)
        for text in ("abdde", "xxacex", "", "abe", "nothing here"):
            vm.run(text, metrics=registry, profile=profile)
        assert profile.runs == 5
        assert profile.total_steps == registry.sum_values(
            "repro_vm_steps_total"
        )
        assert registry.value("repro_vm_runs_total") == 5
        assert profile.matches == sum(
            1
            for text in ("abdde", "xxacex", "", "abe", "nothing here")
            if vm.run(text).matched
        )

    def test_conservation_on_early_accept(self):
        program = _compile("a(b|c)d*e")
        profile = VMProfile(program)
        registry = MetricsRegistry()
        result = ThompsonVM(program).run(
            "abe" + "z" * 50, metrics=registry, profile=profile
        )
        assert result.matched
        assert profile.matches == 1
        assert profile.total_steps == registry.sum_values(
            "repro_vm_steps_total"
        )

    def test_conservation_on_step_budget_abort(self):
        program = _compile("(a|ab|b)*c(d|e)f{2,4}")
        profile = VMProfile(program)
        registry = MetricsRegistry()
        with pytest.raises(ReproError):
            ThompsonVM(program).run(
                "ab" * 50, max_steps=17, metrics=registry, profile=profile
            )
        assert profile.total_steps == registry.sum_values(
            "repro_vm_steps_total"
        )
        assert profile.total_steps > 0

    def test_multimatch_profile_counts_and_dispatch_labels(self):
        multi = compile_multipattern(["ab+", "cd"])
        profile = VMProfile(multi.program)
        vm = MultiMatchVM(multi)
        result = vm.run("xxabbcd", profile=profile)
        assert result.matched_ids
        assert profile.runs == 1
        assert profile.total == sum(profile.pc_counts)
        labels = {label for label, count in profile.by_source() if count}
        assert any(label.startswith("#1 ") for label in labels)
        # Dispatch-chain SPLITs expand inside the ε-closure, so they are
        # mapped but never counted as work steps.
        assert "(dispatch)" in (multi.program.source_map or [])
        # Positions are counted by the one observer both VMs share: ten
        # bytes plus the end-of-input position.
        multi = compile_multipattern(["ab", "c[^d]e", "a$"])
        profile = VMProfile(multi.program)
        MultiMatchVM(multi).run("xxabcqexxa", profile=profile)
        assert profile.positions == 11
        assert "75 steps, 11 position(s)" in profile.format_report()


class TestSimConservation:
    def test_retires_cycles_and_cache_match_stats(self):
        program = _compile("a(b|c)d*e")
        profile = SimProfile(program)
        simulator = CiceroSimulator(ArchConfig.new(4))
        result = simulator.run(program, "xxabdddez", profile=profile)
        stats = result.stats
        assert profile.total_instructions == stats.instructions
        assert sum(profile.occupancy.values()) == stats.cycles
        assert sum(profile.cache_hits_by_pc) == stats.cache_hits
        assert sum(profile.cache_misses_by_pc) == stats.cache_misses
        assert profile.cycles == stats.cycles
        assert profile.runs == 1

    def test_stream_accumulates(self):
        program = _compile("x[ab]{2,4}y")
        profile = SimProfile(program)
        simulator = CiceroSimulator(ArchConfig.new(2))
        data = b"junk " * 50 + b"xaabby" + b" tail" * 20
        stream = simulator.run_text(program, data, chunk_bytes=64)
        profiled = simulator.run_text(
            program, data, chunk_bytes=64, profile=profile
        )
        merged = profiled.merged_stats()
        assert profile.runs == profiled.chunks
        assert profile.total_instructions == merged.instructions
        assert sum(profile.occupancy.values()) == merged.cycles
        assert stream.total_cycles == profiled.total_cycles

    def test_fifo_depth_histogram_covers_every_cycle(self):
        program = _compile("(ab|ba)+c")
        profile = SimProfile(program)
        CiceroSimulator(ArchConfig.new(4)).run(
            program, "abbaabc", profile=profile
        )
        assert sum(profile.fifo_depth.values()) == profile.cycles


class TestAttribution:
    def test_source_map_labels_cover_hot_pcs(self):
        program = _compile("a(b|c)d*e")
        assert program.source_map is not None
        profile = VMProfile(program)
        ThompsonVM(program).run("xxabddde", profile=profile)
        for pc, _opcode, source, count in profile.hottest():
            assert count > 0
            assert isinstance(source, str) and source

    def test_old_compiler_program_is_unattributed(self):
        program = OldCompiler().compile("a(b|c)d*e").program
        profile = VMProfile(program)
        ThompsonVM(program).run("abde", profile=profile)
        assert profile.source_map is None
        assert profile.by_source()[0][0] == UNATTRIBUTED

    def test_merge_requires_same_shape(self):
        one = VMProfile(_compile("a(b|c)d*e"))
        other = VMProfile(_compile("colou?r"))
        with pytest.raises(ValueError):
            one.merge(other)

    def test_merge_adds_counts(self):
        program = _compile("a(b|c)d*e")
        first = VMProfile(program)
        second = VMProfile(program)
        vm = ThompsonVM(program)
        vm.run("abde", profile=first)
        vm.run("acde", profile=second)
        total = first.total + second.total
        first.merge(second)
        assert first.total == total

    def test_to_dict_and_report_round(self):
        program = _compile("a(b|c)d*e")
        profile = VMProfile(program)
        ThompsonVM(program).run("abde", profile=profile)
        payload = profile.to_dict()
        assert payload["kind"] == "vm"
        assert payload["total_steps"] == profile.total
        assert sum(payload["pc_counts"]) == payload["total_steps"]
        report = profile.format_report()
        assert "vm profile" in report and "by source fragment" in report


class TestDisabledPath:
    def test_profile_none_keeps_fast_path_result(self):
        program = _compile("(a|ab|b)*c(d|e)f{2,4}")
        vm = ThompsonVM(program)
        text = "ababcdff"
        bare = vm.run(text)
        profiled = VMProfile(program)
        instrumented = vm.run(text, profile=profiled)
        assert bare.matched == instrumented.matched
        assert bare.position == instrumented.position
