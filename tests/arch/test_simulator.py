"""Simulation facade: chunking, streaming, aggregate metrics."""

import pytest

from repro.arch.config import ArchConfig, ConfigurationError
from repro.arch.simulator import (
    CiceroSimulator,
    average_re_time_us,
    split_chunks,
)
from repro.compiler import compile_regex
from repro.runtime.errors import ReproError


class TestChunking:
    def test_exact_multiple(self):
        chunks = split_chunks(b"x" * 1000, 500)
        assert [len(chunk) for chunk in chunks] == [500, 500]

    def test_remainder(self):
        chunks = split_chunks(b"x" * 1001, 500)
        assert [len(chunk) for chunk in chunks] == [500, 500, 1]

    def test_empty_input_gives_one_empty_chunk(self):
        assert split_chunks(b"", 500) == [b""]

    def test_string_input(self):
        assert split_chunks("abc", 2) == [b"ab", b"c"]


class TestStreaming:
    def test_stream_aggregates(self):
        program = compile_regex("ab").program
        simulator = CiceroSimulator(ArchConfig.new(8))
        stream = simulator.run_stream(program, [b"zzabzz", b"zzzz", b"ab"])
        assert stream.chunks == 3
        assert stream.matches == 2
        assert stream.total_cycles == sum(r.cycles for r in stream.per_chunk)

    def test_stream_time_and_energy(self):
        program = compile_regex("ab").program
        simulator = CiceroSimulator(ArchConfig.new(8))
        stream = simulator.run_stream(program, [b"zzabzz"])
        assert stream.time_us == pytest.approx(stream.total_cycles / 150.0)
        assert stream.energy_w_us == pytest.approx(
            stream.time_us * stream.power_watts
        )

    def test_run_text_chunks_the_paper_way(self):
        program = compile_regex("ab").program
        simulator = CiceroSimulator(ArchConfig.new(8))
        stream = simulator.run_text(program, "z" * 1200, chunk_bytes=500)
        assert stream.chunks == 3

    def test_merged_stats(self):
        program = compile_regex("a[bc]d").program
        simulator = CiceroSimulator(ArchConfig.new(8))
        stream = simulator.run_stream(program, [b"zzzz", b"abdz"])
        merged = stream.merged_stats()
        assert merged.cycles == stream.total_cycles
        assert merged.instructions > 0

    def test_default_config_is_new_16x1(self):
        assert CiceroSimulator().config.name == "NEW 16x1 CORES"


def test_average_re_time():
    programs = [compile_regex(p).program for p in ("ab", "cd")]
    chunk_sets = [[b"zzzabzz"], [b"zzzzzzz"]]
    average = average_re_time_us(programs, chunk_sets, ArchConfig.new(8))
    assert average > 0


@pytest.mark.parametrize(
    "programs, chunk_sets",
    [(["ab", "cd"], [[b"zzzabzz"]]), (["ab"], [[b"ab"], [b"cd"]]), ([], [])],
    ids=["fewer chunk sets", "more chunk sets", "empty"],
)
def test_average_re_time_rejects_unpaired_inputs(programs, chunk_sets):
    programs = [compile_regex(p).program for p in programs]
    with pytest.raises(ConfigurationError, match="one chunk set per program"):
        average_re_time_us(programs, chunk_sets, ArchConfig.new(8))


def test_merged_stats_refuses_a_stream_without_per_chunk_results():
    program = compile_regex("ab").program
    simulator = CiceroSimulator(ArchConfig.new(8))
    chunks = [b"xxab", b"zzzz"]
    kept = simulator.run_stream(program, chunks)
    assert kept.merged_stats().cycles == kept.total_cycles > 0
    dropped = simulator.run_stream(program, chunks, keep_per_chunk=False)
    assert dropped.total_cycles == kept.total_cycles
    with pytest.raises(ReproError, match="keep_per_chunk=False"):
        dropped.merged_stats()
    empty = simulator.run_stream(program, [], keep_per_chunk=False)
    assert empty.merged_stats().cycles == 0
