"""High-level simulation facade used by examples and the benchmark
harness: program + configuration + input stream → time and energy.

Follows the paper's measurement methodology (§6): the input is split
into fixed-size chunks; the engine is reset and the program re-run per
chunk; "execution time per RE" is total cycles over all chunks divided
by the clock, and energy is that time multiplied by the configuration's
total on-chip power.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Union

from ..isa.program import Program
from ..runtime.encoding import as_input_bytes
from .config import ArchConfig, ConfigurationError
from .power import energy_w_us, execution_time_us, power_watts
from .resources import clock_mhz
from .system import CiceroSystem, SimulationResult, SimulationStatistics

DEFAULT_CHUNK_BYTES = 500


def split_chunks(
    data: Union[str, bytes], chunk_bytes: int = DEFAULT_CHUNK_BYTES
) -> List[bytes]:
    """The paper's input chunking (500-byte chunks by default).

    Raises a typed :class:`~repro.arch.config.ConfigurationError` for a
    non-positive ``chunk_bytes`` (a zero stride would loop forever) and
    an :class:`~repro.runtime.errors.InputEncodingError` for non-latin-1
    text, instead of silently misbehaving downstream.
    """
    if chunk_bytes < 1:
        raise ConfigurationError(
            f"chunk_bytes must be positive, got {chunk_bytes}"
        )
    data = as_input_bytes(data, what="input stream")
    return [data[i : i + chunk_bytes] for i in range(0, len(data), chunk_bytes)] or [
        b""
    ]


@dataclass
class StreamResult:
    """Aggregate over one program executed on a chunk stream."""

    config: ArchConfig
    total_cycles: int = 0
    chunks: int = 0
    matches: int = 0
    per_chunk: List[SimulationResult] = field(default_factory=list)

    @property
    def time_us(self) -> float:
        return execution_time_us(self.total_cycles, self.config)

    @property
    def energy_w_us(self) -> float:
        return energy_w_us(self.total_cycles, self.config)

    @property
    def clock_mhz(self) -> float:
        return clock_mhz(self.config)

    @property
    def power_watts(self) -> float:
        return power_watts(self.config)

    def merged_stats(self) -> SimulationStatistics:
        if len(self.per_chunk) != self.chunks:
            raise ConfigurationError(
                "merged_stats after run_stream(..., keep_per_chunk=False)"
            )
        merged = SimulationStatistics()
        for result in self.per_chunk:
            stats = result.stats
            merged.cycles += stats.cycles
            merged.instructions += stats.instructions
            merged.cache_hits += stats.cache_hits
            merged.cache_misses += stats.cache_misses
            merged.memory_fills += stats.memory_fills
            merged.threads_spawned += stats.threads_spawned
            merged.threads_killed += stats.threads_killed
            merged.cross_engine_transfers += stats.cross_engine_transfers
            merged.window_slides += stats.window_slides
            merged.active_cycles += stats.active_cycles
            merged.peak_threads = max(merged.peak_threads, stats.peak_threads)
            merged.fifo_high_watermark = max(
                merged.fifo_high_watermark, stats.fifo_high_watermark
            )
        return merged


class CiceroSimulator:
    """Run compiled programs on one architecture configuration.

    ``tracer``/``metrics`` hook the simulator into the observability
    layer: each :meth:`run` records an ``arch.run`` span with the
    simulated cycle count, cache misses and FIFO high watermark as
    attributes, :meth:`run_stream` wraps the whole stream in an
    ``arch.stream`` span, and cumulative cycle/cache counters land in
    the registry.  Both default to off (``None``), leaving the
    benchmark-facing simulation loop untouched.
    """

    def __init__(
        self,
        config: Optional[ArchConfig] = None,
        tracer=None,
        metrics=None,
    ):
        self.config = config if config is not None else ArchConfig.new(16)
        self._tracing = tracer is not None and tracer.enabled
        self.tracer = tracer
        self.metrics = metrics if metrics is not None and metrics.enabled else None

    def run(
        self,
        program: Program,
        text: Union[str, bytes],
        max_cycles: Optional[int] = None,
        profile=None,
    ) -> SimulationResult:
        """Execute over a single chunk; stops at the first match.

        ``max_cycles`` overrides the system's adaptive cycle watchdog
        (the guard that turns a stalled simulation into a typed
        :class:`~repro.arch.system.SimulationCycleBudgetError`).

        ``profile`` (a :class:`repro.observability.SimProfile` over the
        same program) collects per-PC retire/icache counts and per-cycle
        occupancy histograms; ``None`` (the default) keeps the system
        loop on its unprofiled branches.
        """
        if profile is None and not self._tracing and self.metrics is None:
            return CiceroSystem(program, self.config).run(
                text, max_cycles=max_cycles
            )
        return self._run_instrumented(
            CiceroSystem(program, self.config), text, max_cycles, profile
        )

    def _run_instrumented(
        self,
        system: CiceroSystem,
        text: Union[str, bytes],
        max_cycles: Optional[int],
        profile=None,
    ) -> SimulationResult:
        from ..observability import as_tracer

        tracer = as_tracer(self.tracer if self._tracing else None)
        with tracer.span("arch.run", engines=self.config.num_engines) as span:
            result = system.run(text, max_cycles=max_cycles, profile=profile)
            stats = result.stats
            if tracer.enabled:
                span.set(
                    cycles=stats.cycles,
                    matched=result.matched,
                    cache_misses=stats.cache_misses,
                    fifo_high_watermark=stats.fifo_high_watermark,
                    peak_threads=stats.peak_threads,
                )
        self._record(stats)
        return result

    def _record(self, stats: SimulationStatistics) -> None:
        metrics = self.metrics
        if metrics is None:
            return
        metrics.counter(
            "repro_sim_runs_total",
            help_text="simulated chunk executions",
        ).inc()
        metrics.counter(
            "repro_sim_cycles_total",
            help_text="simulated clock cycles",
        ).inc(stats.cycles)
        metrics.counter(
            "repro_sim_cache_misses_total",
            help_text="instruction-cache misses across simulated runs",
        ).inc(stats.cache_misses)
        metrics.gauge(
            "repro_sim_fifo_high_watermark",
            help_text="deepest FIFO occupancy seen by any simulated run",
        ).set_max(stats.fifo_high_watermark)

    def run_stream(
        self,
        program: Program,
        chunks: Iterable[Union[str, bytes]],
        keep_per_chunk: bool = True,
        profile=None,
    ) -> StreamResult:
        """Execute the program once per chunk, aggregating cycles."""
        system = CiceroSystem(program, self.config)
        stream = StreamResult(config=self.config)
        instrumented = (
            self._tracing or self.metrics is not None or profile is not None
        )
        from ..observability import as_tracer

        tracer = as_tracer(self.tracer if self._tracing else None)
        with tracer.span("arch.stream", engines=self.config.num_engines) as span:
            for chunk in chunks:
                if instrumented:
                    result = self._run_instrumented(system, chunk, None, profile)
                else:
                    result = system.run(chunk)
                stream.total_cycles += result.cycles
                stream.chunks += 1
                if result.matched:
                    stream.matches += 1
                if keep_per_chunk:
                    stream.per_chunk.append(result)
            if tracer.enabled:
                span.set(
                    chunks=stream.chunks,
                    matches=stream.matches,
                    total_cycles=stream.total_cycles,
                )
        return stream

    def run_text(
        self,
        program: Program,
        data: Union[str, bytes],
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        profile=None,
    ) -> StreamResult:
        """Chunk ``data`` the paper's way, then :meth:`run_stream`."""
        return self.run_stream(
            program, split_chunks(data, chunk_bytes), profile=profile
        )


def average_re_time_us(
    programs: Sequence[Program],
    chunk_sets: Sequence[Sequence[bytes]],
    config: ArchConfig,
) -> float:
    """Average execution time per RE: the headline metric of §6.

    ``chunk_sets[i]`` is the chunk stream for ``programs[i]``.
    """
    if not programs or len(programs) != len(chunk_sets):
        raise ConfigurationError(
            f"need one chunk set per program, got {len(programs)} "
            f"programs and {len(chunk_sets)} chunk sets"
        )
    simulator = CiceroSimulator(config)
    total = 0.0
    for program, chunks in zip(programs, chunk_sets):
        total += simulator.run_stream(program, chunks, keep_per_chunk=False).time_us
    return total / len(programs)
