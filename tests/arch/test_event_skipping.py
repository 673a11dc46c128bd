"""The event-skipping simulator loop against the loop it replaced.

``CiceroSystem.run`` skips cores that cannot act and jumps over cycles
on which nothing can happen; ``reference_system`` keeps the loop that
steps every core on every cycle.  Host speed is the only thing allowed
to differ: statistics, verdicts, multi-match ids, profile buckets, trace
events and watchdog ``limit``/``spent`` must be equal to the last
counter, on fresh and on reused systems, with and without injected
faults.
"""

import dataclasses
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference_system import ReferenceSystem, reference_run
from repro.arch.cache import InstructionCache
from repro.arch.config import ArchConfig
from repro.arch.fifo import ThreadFifo
from repro.arch.simulator import CiceroSimulator, StreamResult, split_chunks
from repro.arch.system import (
    CiceroSystem,
    SimulationCycleBudgetError,
    SimulationError,
    SimulationStatistics,
)
from repro.arch.trace import TraceRecorder
from repro.compiler import CompileOptions, NewCompiler, compile_regex
from repro.fuzz.generators import RegexGenerator, derive_inputs
from repro.isa.instructions import accept_partial, match
from repro.isa.program import Program
from repro.observability import SimProfile
from repro.runtime import faults
from repro.runtime.errors import ReproError
from repro.workloads import brill, protomata, sample_and_alternate

CONFIGS = [
    ArchConfig.old(1),
    ArchConfig.old(4),
    ArchConfig.old(9),
    ArchConfig.new(2),
    ArchConfig.new(16),
    ArchConfig.new(8, 2),
    # Zero latencies everywhere: a produced thread is poppable by a
    # later core in the very cycle that produced it.
    ArchConfig.new(
        4, 2, pipeline_latency=0, split_extra_latency=0,
        transfer_latency=0, memory_latency=0,
    ),
    ArchConfig.old(
        3, pipeline_latency=0, balancer_latency=0,
        transfer_latency=0, memory_latency=1,
    ),
]


def config_id(config):
    return config.name + ("" if config.pipeline_latency else " zero-latency")


def observe(system, text, **kwargs):
    """Everything one instrumented run exposes, in comparable form."""
    profile = SimProfile(system.program)
    recorder = TraceRecorder()
    try:
        result = system.run(text, profile=profile, trace=recorder, **kwargs)
    except SimulationError as error:
        outcome = (error.code, error.limit, error.spent, str(error))
    else:
        outcome = (
            result.matched,
            result.position,
            result.matched_ids,
            result.cycles,
            dataclasses.asdict(result.stats),
        )
    return outcome, profile.to_dict(), recorder.events


def assert_chunks_equal_reference(program, config, chunks, **kwargs):
    """One reused production system against one reused reference
    system, chunk by chunk; the plain (uninstrumented) run too."""
    system = CiceroSystem(program, config)
    reference = ReferenceSystem(program, config)
    plain = CiceroSystem(program, config)
    for chunk in chunks:
        got = observe(system, chunk, **kwargs)
        assert got == observe(reference, chunk, **kwargs), (config.name, chunk)
        try:
            result = plain.run(chunk, **kwargs)
        except SimulationError as error:
            assert got[0][:3] == (error.code, error.limit, error.spent)
        else:
            assert got[0][3:] == (
                result.cycles, dataclasses.asdict(result.stats)
            )


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    optimize=st.booleans(),
    collect_matches=st.booleans(),
)
def test_equals_reference_on_fuzz_programs(config, seed, optimize, collect_matches):
    pattern = RegexGenerator(seed).generate()
    options = CompileOptions() if optimize else CompileOptions.none()
    try:
        program = compile_regex(pattern.text, options).program
    except ReproError:
        assume(False)
    rng = random.Random(seed)
    chunks = derive_inputs(pattern, rng, count=6)
    # One long chunk so the window slides and threads park.
    chunks.append("".join(rng.choice(chunks[1:] or ["a"]) for _ in range(12)))
    assert len(chunks) >= 3
    # The cycle budget bounds what a pathological draw can cost; a run
    # that trips it must trip it identically.
    assert_chunks_equal_reference(
        program, config, chunks,
        collect_matches=collect_matches, max_cycles=1_500,
    )


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_equals_reference_under_a_tight_cycle_budget(config):
    """The watchdog trips on the same cycle with the same ``spent``."""
    program = compile_regex("(ab|cd)+e|[a-d]{2,4}f").program
    chunks = ["abcd" * 30, "", "abcdabe", "cdcdcdcdf" * 5]
    for max_cycles in (0, 7, 50, 400):
        assert_chunks_equal_reference(
            program, config, chunks, max_cycles=max_cycles
        )
    with pytest.raises(SimulationCycleBudgetError) as raised:
        CiceroSystem(program, config).run("abcd" * 30, max_cycles=50)
    assert (raised.value.limit, raised.value.spent) == (50, 51)


def test_pinned_counts_of_the_simulate_arch_workload():
    """What the layered benchmark's ``simulate_arch`` counts at seed 7:
    first 8 protomata + first 2 brill4 suite REs, one 500-byte chunk.
    Every statistic is pinned, merged the way ``merged_stats`` merges
    a stream (sums, and maxima for the two peaks)."""
    rules = protomata.generate_patterns(200, 2025)[:8]
    jobs = [(rules, protomata.generate_input(rules, 500, seed=7))]
    rules = sample_and_alternate(
        brill.generate_patterns(800, 2025), 200, seed=2025
    )[:2]
    jobs.append((rules, brill.generate_input(rules, 500, seed=8)))
    compiler = NewCompiler()
    totals = {}
    for label, config in (("old9", ArchConfig.old(9)), ("new16", ArchConfig.new(16))):
        runs = [
            CiceroSystem(compiler.compile(rule).program, config).run(text)
            for rules, text in jobs
            for rule in rules
        ]
        totals[label] = StreamResult(
            config, chunks=len(runs), per_chunk=runs
        ).merged_stats()
    assert totals == {
        "old9": SimulationStatistics(
            cycles=55_363, instructions=126_168, cache_hits=114_645,
            cache_misses=11_525, memory_fills=11_525, threads_spawned=45_892,
            threads_killed=45_860, cross_engine_transfers=42_059,
            window_slides=4_183, peak_threads=50, fifo_high_watermark=9,
            active_cycles=38_689,
        ),
        "new16": SimulationStatistics(
            cycles=37_539, instructions=126_227, cache_hits=117_886,
            cache_misses=8_345, memory_fills=8_345, threads_spawned=45_913,
            threads_killed=45_871, cross_engine_transfers=0,
            window_slides=4_178, peak_threads=30, fifo_high_watermark=30,
            active_cycles=34_813,
        ),
    }


@pytest.mark.parametrize(
    "config", [ArchConfig.old(9), ArchConfig.new(16)], ids=["OLD 1x9", "NEW 16x1"]
)
def test_a_clean_run_calls_no_fifo_or_icache_method(monkeypatch, config):
    """The loop owns its FIFOs and icaches: a run without injected
    faults retires every instruction without one ``ThreadFifo.push``,
    ``InstructionCache.lookup`` or ``InstructionCache.fill`` call."""
    calls = {}
    for owner, name in (
        (ThreadFifo, "push"),
        (InstructionCache, "lookup"),
        (InstructionCache, "fill"),
    ):
        method = getattr(owner, name)
        key = f"{owner.__name__}.{name}"
        calls[key] = 0

        def spy(self, *args, _method=method, _key=key):
            calls[_key] += 1
            return _method(self, *args)

        monkeypatch.setattr(owner, name, spy)
    rules = protomata.generate_patterns(200, 2025)[:8]
    text = protomata.generate_input(rules, 500, seed=7)
    program = NewCompiler().compile(rules[0]).program
    stream = CiceroSimulator(config).run_stream(program, split_chunks(text))
    stats = stream.merged_stats()
    assert stats.instructions > 0 and stats.cache_misses > 0
    assert calls == dict.fromkeys(calls, 0)


# ----------------------------------------------------------------------
# The watchdog and the fault injectors survive fast-forward
# ----------------------------------------------------------------------
FAULT_PROGRAM = "a(b|c)d*e|th(is|at)"
FAULT_TEXT = "zzthabdddzacethatzz"


def test_drained_but_alive_system_jumps_to_the_watchdog():
    """A dropped FIFO entry leaves a live thread no core will ever see:
    every wake cycle is "never".  The loop must neither spin through
    the budget cycle by cycle nor return "no match" — it goes straight
    to the cycle the watchdog fires on."""
    program = compile_regex(FAULT_PROGRAM).program
    for config in (ArchConfig.new(4), ArchConfig.old(4)):
        system = CiceroSystem(program, config)
        plan = faults.install_fifo_fault(system, faults.FifoDropFault((1,)))
        with pytest.raises(SimulationCycleBudgetError) as raised:
            system.run(FAULT_TEXT, max_cycles=10**12)
        assert plan.dropped == 1
        assert raised.value.limit == 10**12
        assert raised.value.spent == 10**12 + 1


@pytest.mark.parametrize(
    "config", [None, ArchConfig.old(4), ArchConfig.new(4, 2)],
    ids=["default", "OLD 1x4", "NEW 4x2"],
)
def test_fifo_campaign_classifies_as_the_reference_does(monkeypatch, config):
    program = compile_regex(FAULT_PROGRAM).program
    campaign = dict(
        program=program, text=FAULT_TEXT, drop_indices=range(1, 51),
        config=config, max_cycles=3_000,
    )
    got = faults.run_fifo_campaign(**campaign)
    monkeypatch.setattr(faults, "CiceroSystem", ReferenceSystem)
    expected = faults.run_fifo_campaign(**campaign)
    assert got.outcomes == expected.outcomes  # detector and detail, per drop
    assert got.by_detector().get("watchdog", 0) > 0
    assert got.all_accounted()


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_forced_cache_misses_cost_what_the_reference_says(config):
    program = compile_regex(FAULT_PROGRAM).program
    system = CiceroSystem(program, config)
    reference = ReferenceSystem(program, config)
    faults.install_cache_fault(system)
    faults.install_cache_fault(reference)
    for chunk in (FAULT_TEXT, "", FAULT_TEXT * 3):
        got = observe(system, chunk)
        assert got == observe(reference, chunk)
        stats = got[0][4]
        assert stats["cache_hits"] == 0
        assert stats["cache_misses"] >= stats["instructions"]


class _SpyProfile(SimProfile):
    """Records how each stretch of cycles was accounted."""

    def __init__(self, program):
        super().__init__(program)
        self.stretches = []

    def record_cycle(self, active_cores, fifo_depth, cycles=1):
        self.stretches.append((active_cores, fifo_depth, cycles))
        super().record_cycle(active_cores, fifo_depth, cycles)


@pytest.mark.parametrize("config", [ArchConfig.new(8), ArchConfig.old(2)],
                         ids=["NEW 8x1", "OLD 1x2"])
def test_profile_conservation_across_a_skipped_stretch(config):
    """A one-thread program stalls on its cold-start miss: the loop
    skips the fill latency in one step and the profile accounts it as
    that many idle cycles at the FIFO depth of the moment."""
    program = Program([match("a"), match("b"), accept_partial()])
    profile = _SpyProfile(program)
    result = CiceroSystem(program, config).run("ab", profile=profile)
    assert result.matched
    skipped = [stretch for stretch in profile.stretches if stretch[2] > 1]
    assert skipped and all(active == 0 for active, _, _ in skipped)
    assert sum(profile.occupancy.values()) == result.cycles
    assert sum(profile.fifo_depth.values()) == result.cycles
    assert sum(profile.pc_counts) == result.stats.instructions
    reference = SimProfile(program)
    reference_run(program, config, "ab", profile=reference)
    assert profile.to_dict() == reference.to_dict()
