"""Experiment drivers reproducing the paper's §6 measurements.

The benchmark harness (``benchmarks/``), the CLI and the examples all
share these routines:

* :func:`compile_benchmark` — compile every RE of a benchmark with one
  toolchain, collecting the static indicators of §6.1 (code size,
  compile time, ``D_offset``).
* :func:`run_on_config` — execute compiled programs over the benchmark's
  chunk stream on one architecture configuration, producing the §6.2
  metrics (average time and energy per RE).
* :func:`format_table` — fixed-width table rendering for harness output.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence

from .arch.config import ArchConfig
from .arch.power import power_watts
from .arch.simulator import CiceroSimulator
from .compiler import CompileOptions, NewCompiler
from .isa.metrics import d_offset
from .isa.program import Program
from .oldcompiler.compiler import OldCompiler
from .workloads.suite import Benchmark


@dataclass
class CompiledBenchmark:
    """All REs of one benchmark compiled by one toolchain configuration."""

    benchmark: Benchmark
    compiler: str
    optimized: bool
    programs: List[Program]
    compile_seconds: List[float]

    @property
    def avg_code_size(self) -> float:
        """Fig. 8's metric: mean instruction count."""
        return statistics.fmean(len(program) for program in self.programs)

    @property
    def avg_compile_seconds(self) -> float:
        """Fig. 9's metric."""
        return statistics.fmean(self.compile_seconds)

    @property
    def avg_d_offset(self) -> float:
        """Fig. 10's metric (Eq. 1); lower is better."""
        return statistics.fmean(d_offset(program) for program in self.programs)

    @property
    def label(self) -> str:
        suffix = "opt" if self.optimized else "noopt"
        return f"{self.compiler}-{suffix}"


def compile_benchmark(
    benchmark: Benchmark,
    compiler: str = "new",
    optimize: bool = True,
    options: Optional[CompileOptions] = None,
    timing_repeats: int = 3,
) -> CompiledBenchmark:
    """Compile every pattern, timing each compilation.

    Per-pattern compile time is the best of ``timing_repeats`` timed
    ``compile`` calls after one warm-up compile, so Fig. 9's comparison
    measures both toolchains the same way and not interpreter warm-up
    noise.  ``optimize=False`` runs no pass, whatever ``options`` lists;
    the result counts as optimized when the toolchain runs any pass.
    """
    programs: List[Program] = []
    seconds: List[float] = []
    if compiler == "new":
        options = options or CompileOptions()
        if not optimize:
            options = replace(options, regex_pipeline=(), cicero_pipeline=())
        toolchain = NewCompiler(options)
        optimized = any(options.pipelines())
    elif compiler == "old":
        toolchain = OldCompiler(optimize=optimize)
        optimized = optimize
    else:
        raise ValueError(f"unknown compiler {compiler!r}")
    if benchmark.patterns:
        toolchain.compile(benchmark.patterns[0])  # warm-up
    for pattern in benchmark.patterns:
        best: Optional[float] = None
        result = None
        for _ in range(max(1, timing_repeats)):
            started = time.perf_counter()
            result = toolchain.compile(pattern)
            elapsed = time.perf_counter() - started
            if best is None or elapsed < best:
                best = elapsed
        programs.append(result.program)
        seconds.append(best)
    return CompiledBenchmark(
        benchmark=benchmark,
        compiler=compiler,
        optimized=optimized,
        programs=programs,
        compile_seconds=seconds,
    )


@dataclass
class ExecutionRow:
    """One (benchmark, configuration) cell of the §6.2 tables."""

    benchmark: str
    config: ArchConfig
    avg_time_us: float
    avg_energy_w_us: float
    total_cycles: int
    matches: int
    runs: int
    cache_misses: int = 0
    instructions: int = 0

    @property
    def config_name(self) -> str:
        return self.config.name

    @property
    def power_w(self) -> float:
        return power_watts(self.config)


def run_on_config(
    compiled: CompiledBenchmark,
    config: ArchConfig,
    max_patterns: Optional[int] = None,
) -> ExecutionRow:
    """The paper's measurement: run every RE over every chunk; report
    the average time and energy per RE."""
    simulator = CiceroSimulator(config)
    chunks = compiled.benchmark.chunks
    programs = compiled.programs[:max_patterns]
    total_cycles = 0
    matches = 0
    cache_misses = 0
    instructions = 0
    per_re_times: List[float] = []
    for program in programs:
        stream = simulator.run_stream(program, chunks, keep_per_chunk=True)
        total_cycles += stream.total_cycles
        matches += stream.matches
        merged = stream.merged_stats()
        cache_misses += merged.cache_misses
        instructions += merged.instructions
        per_re_times.append(stream.time_us)
    avg_time = statistics.fmean(per_re_times)
    return ExecutionRow(
        benchmark=compiled.benchmark.name,
        config=config,
        avg_time_us=avg_time,
        avg_energy_w_us=avg_time * power_watts(config),
        total_cycles=total_cycles,
        matches=matches,
        runs=len(programs) * len(chunks),
        cache_misses=cache_misses,
        instructions=instructions,
    )


def run_grid(
    compiled_benchmarks: Sequence[CompiledBenchmark],
    configs: Sequence[ArchConfig],
) -> Dict[str, Dict[str, ExecutionRow]]:
    """Rows for a whole (benchmark × configuration) grid, keyed by
    ``grid[config.name][benchmark.name]``."""
    grid: Dict[str, Dict[str, ExecutionRow]] = {}
    for config in configs:
        per_benchmark: Dict[str, ExecutionRow] = {}
        for compiled in compiled_benchmarks:
            per_benchmark[compiled.benchmark.name] = run_on_config(compiled, config)
        grid[config.name] = per_benchmark
    return grid


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Fixed-width text table (the harness's ``raw textual tables``)."""
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        header.ljust(widths[index]) for index, header in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(
            "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
        )
    return "\n".join(lines)
