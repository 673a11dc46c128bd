"""Cycle-level simulator: correctness and micro-architectural behaviour."""

import zlib

import pytest

from repro.arch.config import ArchConfig
from repro.arch.system import CiceroSystem, SimulationError
from repro.compiler import CompileOptions, compile_regex
from repro.vm import run_program


def simulate(pattern, text, config, **compile_kwargs):
    program = compile_regex(pattern, CompileOptions(**compile_kwargs)).program
    return CiceroSystem(program, config).run(text)


class TestVerdicts:
    def test_match_and_position(self, small_config):
        result = simulate("ab|cd", "xxcdyy", small_config)
        assert result.matched
        assert result.position == 4  # after consuming 'cd'

    def test_no_match(self, small_config):
        result = simulate("ab|cd", "xxxxxx", small_config)
        assert not result.matched
        assert result.position is None

    def test_empty_input(self, small_config):
        assert not simulate("ab", "", small_config).matched

    def test_exact_match_semantics(self, small_config):
        assert simulate("^ab$", "ab", small_config).matched
        assert not simulate("^ab$", "abx", small_config).matched
        assert not simulate("^ab$", "xab", small_config).matched

    def test_agrees_with_vm_on_corpus(self, corpus_pattern, small_config):
        import random

        program = compile_regex(corpus_pattern).program
        system = CiceroSystem(program, small_config)
        rng = random.Random(zlib.crc32(corpus_pattern.encode()))
        for _ in range(8):
            text = "".join(
                rng.choice("abcdefghLIVMDER qux.") for _ in range(rng.randint(0, 24))
            )
            expected = bool(run_program(program, text))
            assert system.run(text).matched == expected, (corpus_pattern, text)


class TestStatistics:
    def test_cycle_and_instruction_counts(self):
        result = simulate("abc", "zzabcz", ArchConfig.new(8))
        assert result.cycles > 0
        assert result.stats.instructions > 0
        assert result.stats.threads_spawned >= 1

    def test_thread_conservation(self):
        """No match: every spawned thread is eventually killed."""
        result = simulate("abc", "zzzzzz", ArchConfig.new(8))
        assert not result.matched
        assert result.stats.threads_spawned == result.stats.threads_killed

    def test_cache_stats_delta_per_run(self):
        program = compile_regex("a[bc]{2,3}d").program
        system = CiceroSystem(program, ArchConfig.new(8))
        first = system.run("zzzz")
        second = system.run("zzzz")
        # warm caches: the second run must not re-pay cold misses
        assert second.stats.cache_misses <= first.stats.cache_misses
        assert second.stats.cache_misses >= 0

    def test_fifo_high_watermark_is_per_run(self):
        """A reused system reported the deepest FIFO over *all* chunks so
        far: the per-chunk reset drained the FIFOs but kept their
        watermark."""
        program = compile_regex("(aa|ab|ba|bb)+x|[ab]{3,6}y").program
        for config in (ArchConfig.new(16), ArchConfig.old(9)):
            system = CiceroSystem(program, config)
            busy = system.run("abba" * 40).stats.fifo_high_watermark
            reused = system.run("").stats.fifo_high_watermark
            fresh = CiceroSystem(program, config).run("").stats.fifo_high_watermark
            assert fresh < busy
            assert reused == fresh

    def test_window_slides_cover_input(self):
        result = simulate("ab", "z" * 40, ArchConfig.new(8))
        assert result.stats.window_slides >= 30

    def test_cross_engine_transfers_only_in_multi_engine(self):
        single = simulate("a|b|c|d", "zzzz" * 8, ArchConfig.old(1))
        assert single.stats.cross_engine_transfers == 0
        multi = simulate("(aa|bb|cc|dd)x", "zabz" * 20, ArchConfig.old(4))
        assert multi.stats.cross_engine_transfers > 0


class TestOrganizations:
    def test_new_org_in_engine_balancing_has_no_transfers(self):
        result = simulate("(aa|bb|cc)x", "zazb" * 20, ArchConfig.new(8))
        assert result.stats.cross_engine_transfers == 0

    def test_new_multi_engine_transfers_rare(self):
        """§4: with in-engine balancing, cross-engine movement is
        limited to the last core's advanced threads."""
        text = "zazb" * 30
        old = simulate("(aa|bb|cc)x", text, ArchConfig.old(4))
        new = simulate("(aa|bb|cc)x", text, ArchConfig.new(8, 4))
        assert new.stats.cross_engine_transfers < old.stats.cross_engine_transfers

    def test_multi_engine_old_is_faster_than_single(self):
        """Table 2's scaling from 1 to 4 engines on enumeration-heavy
        patterns."""
        pattern = "[ab][cd][ef][ab][cd]|[ba][dc][fe][ba][dc]|a[bc]d[ef]g"
        text = "abcdefba" * 30
        single = simulate(pattern, text, ArchConfig.old(1))
        quad = simulate(pattern, text, ArchConfig.old(4))
        assert quad.cycles < single.cycles

    def test_new_org_beats_old_single_engine(self):
        pattern = "[ab][cd][ef][ab][cd]|[ba][dc][fe][ba][dc]"
        text = "abcdefba" * 30
        old = simulate(pattern, text, ArchConfig.old(1))
        new = simulate(pattern, text, ArchConfig.new(8))
        assert new.cycles < old.cycles


class TestGuards:
    def test_max_cycles_guard(self):
        program = compile_regex("abc").program
        system = CiceroSystem(program, ArchConfig.new(8))
        with pytest.raises(SimulationError):
            system.run("z" * 50, max_cycles=5)

    def test_thread_capacity_guard(self):
        import dataclasses

        config = dataclasses.replace(ArchConfig.new(8), max_threads_per_position=4)
        # (a|a|a|a)(a|a|a|a) duplicates threads beyond the tiny cap
        program = compile_regex(
            "(a|a|a|a)(a|a|a|a)", CompileOptions.none()
        ).program
        system = CiceroSystem(program, config)
        with pytest.raises(SimulationError):
            system.run("aaaa")


class TestDeterminism:
    def test_same_run_twice_same_cycles(self, small_config):
        program = compile_regex("a[bc]+d").program
        first = CiceroSystem(program, small_config).run("zzabcbcd")
        second = CiceroSystem(program, small_config).run("zzabcbcd")
        assert first.cycles == second.cycles
        assert first.stats.instructions == second.stats.instructions
