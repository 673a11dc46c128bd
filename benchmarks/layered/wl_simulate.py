"""``simulate_arch``: compiled programs on the two modelled organizations.

Simulated cycles are exact and move only with compiler output or the
modelled design; host seconds move only with simulator code.  Every
number says which of the two it is.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Dict

from repro.api import compile_pattern
from repro.arch import ArchConfig, CiceroSimulator
from repro.compiler import NewCompiler
from repro.workloads import brill, protomata

from harness import Pass, Recorder, clock, time_operations
from inputs import CHUNK_BYTES, oracle, split, suite
from workload import Workload

class SimulateArch(Workload):
    name = "simulate_arch"
    work_unit = "kcycles"
    op = "RE (run_stream over its chunks on OLD 1x9, then on NEW 16x1)"
    rate_alias = "sim_kcycles_per_host_s"
    tail_pct = 90

    protomata_count = 8
    brill4_count = 2
    chunks_per_rule = 1
    tiny = {"protomata_count": 2, "brill4_count": 1}

    def setup(self) -> None:
        length = self.chunks_per_rule * CHUNK_BYTES
        groups = (
            (suite("protomata")[: self.protomata_count], protomata),
            (suite("brill4")[: self.brill4_count], brill),
        )
        self.jobs = []  # (rule, program, chunks, expected verdicts)
        compiler = NewCompiler()
        for offset, (rules, generator) in enumerate(groups):
            text = generator.generate_input(
                rules, length, seed=self.seed + offset
            )
            chunks = split(text.encode("latin-1"), CHUNK_BYTES)
            for rule in rules:
                matches = oracle(rule)
                self.jobs.append(
                    (
                        rule,
                        compiler.compile(rule).program,
                        chunks,
                        [matches(chunk) for chunk in chunks],
                    )
                )
        random.Random(self.seed).shuffle(self.jobs)
        self.simulators = [
            ("old9", CiceroSimulator(ArchConfig.old(9))),
            ("new16", CiceroSimulator(ArchConfig.new(16))),
        ]
        self.code_size = sum(len(program) for _, program, _, _ in self.jobs)

    def corrupt_oracle(self) -> None:
        expected = self.jobs[0][3]
        expected[0] = not expected[0]

    def input_bytes(self) -> bytes:
        return repr([(rule, chunks) for rule, _, chunks, _ in self.jobs]).encode()

    def warm_up(self) -> None:
        """The cheapest job on both organizations: code paths, not caches
        (the simulator keeps no state between runs)."""
        _, program, chunks, _ = min(self.jobs, key=lambda job: len(job[1]))
        for _, simulator in self.simulators:
            simulator.run_stream(program, chunks)

    def run_pass(self) -> Pass:
        def both(program, chunks):
            return [
                simulator.run_stream(program, chunks)
                for _, simulator in self.simulators
            ]

        wall, latencies, results = time_operations(
            [partial(both, program, chunks) for _, program, chunks, _ in self.jobs]
        )
        attempted = failed = 0
        cycles = {label: 0 for label, _ in self.simulators}
        notes = []
        for (rule, _, chunks, expected), result in zip(self.jobs, results):
            if isinstance(result, Exception):
                result = [result] * len(self.simulators)
            for (label, _), stream in zip(self.simulators, result):
                attempted += len(chunks)
                if isinstance(stream, Exception):
                    failed += len(chunks)
                    notes.append(f"{label} {rule!r}: {stream!r:.80}")
                    continue
                cycles[label] += stream.total_cycles
                got = [chunk.matched for chunk in stream.per_chunk]
                if got != expected:
                    failed += sum(1 for a, b in zip(got, expected) if a != b)
                    notes.append(f"{label} {rule!r}: simulator {got}, re {expected}")
        self.cycles = cycles
        return Pass(
            wall=wall,
            work=sum(cycles.values()) / 1e3,
            latencies=latencies,
            attempted=attempted,
            failed=failed,
            exact={
                "arch.old9.cycles": cycles["old9"],
                "arch.new16.cycles": cycles["new16"],
                "compiler.code_size": self.code_size,
            },
            notes=notes,
        )

    # ------------------------------------------------------------------
    # Traced run
    # ------------------------------------------------------------------
    def trace_setup(self, rec: Recorder) -> Dict[str, float]:
        # What the tuned profiles buy on the headline metric: the same
        # REs compiled with optimize="auto", same chunks, NEW 16x1.
        simulator = self.simulators[1][1]
        tuned = sum(
            simulator.run_stream(
                compile_pattern(rule, optimize="auto").program,
                chunks,
                keep_per_chunk=False,
            ).total_cycles
            for rule, _, chunks, _ in self.jobs
        )
        return {"tuning.auto.cycles_ratio": tuned / self.cycles["new16"]}

    def trace_pass(self, rec: Recorder) -> Dict[str, float]:
        values: Dict[str, float] = {"compiler.code_size": self.code_size}
        time_us = {}
        for label, simulator in self.simulators:
            host_seconds = 0.0
            streams = []
            for _, program, chunks, _ in self.jobs:
                started = clock()
                stream = simulator.run_stream(program, chunks)
                ended = clock()
                rec.leaf(f"arch.{label}", started, ended)
                host_seconds += ended - started
                streams.append(stream)
            stats = [stream.merged_stats() for stream in streams]
            cycles = sum(s.cycles for s in stats)
            if cycles != self.cycles[label]:
                raise SystemExit(
                    f"simulate_arch: traced {label} cycles {cycles} differ from "
                    f"the untraced run's {self.cycles[label]}"
                )
            instructions = sum(s.instructions for s in stats)
            accesses = sum(s.cache_hits + s.cache_misses for s in stats)
            time_us[label] = sum(stream.time_us for stream in streams)
            values.update(
                {
                    f"arch.{label}.cycles": cycles,
                    f"arch.{label}.instructions": instructions,
                    f"arch.{label}.miss_rate": (
                        sum(s.cache_misses for s in stats) / accesses
                    ),
                    f"arch.{label}.host_s": host_seconds,
                    f"arch.{label}.host_us_per_cycle": 1e6 * host_seconds / cycles,
                }
            )
            if label == "old9":
                values["arch.old9.cross_engine_transfers"] = sum(
                    s.cross_engine_transfers for s in stats
                )
            else:
                values["arch.new16.peak_threads"] = max(
                    s.peak_threads for s in stats
                )
                values["arch.new16.ipc"] = instructions / cycles
        values["arch.new16.speedup_over_old9"] = time_us["old9"] / time_us["new16"]
        return values
