"""The poll-every-core-every-cycle simulator loop, kept as a test oracle.

This is the main loop :meth:`repro.arch.system.CiceroSystem.run` had
before it learned to skip cycles on which nothing can happen: every core
is stepped on every cycle, every cycle is accounted one at a time, and
the timing rules are written out the long way (``step_core`` /
``execute`` / ``route``).  It shares only the passive components with
the production loop — FIFOs, caches, the memory port and the per-chunk
reset — so an optimisation that moves a single simulated statistic,
trace event or profile bucket shows up as a difference against it.

Same role as ``reference_transition`` for the lazy DFA.
"""

from collections import defaultdict
from typing import Dict, Optional

from repro.arch.system import (
    _ACCEPT,
    _ACCEPT_PARTIAL,
    _JMP,
    _MATCH_ANY,
    _NOT_MATCH,
    _SPLIT,
    CiceroSystem,
    SimulationCycleBudgetError,
    SimulationResult,
    SimulationStatistics,
    ThreadBudgetError,
)
from repro.isa.instructions import Opcode
from repro.runtime.encoding import as_input_bytes


class _CoreState:
    """Per-core pipeline state of one run (a stalled fetch, if any)."""

    __slots__ = ("waiting_pc", "waiting_cc", "resume_cycle")

    def __init__(self):
        self.waiting_pc: Optional[int] = None
        self.waiting_cc = 0
        self.resume_cycle = 0


class ReferenceSystem(CiceroSystem):
    """A :class:`CiceroSystem` whose :meth:`run` steps every cycle.

    Construction, fault-injection hooks (``_engines[*].fifos``,
    ``cores[*].cache``) and the warm-icache-across-chunks behaviour are
    inherited, so it can stand in wherever the production system does.
    """

    def run(self, text, max_cycles=None, collect_matches=False,
            trace=None, profile=None) -> SimulationResult:
        data = as_input_bytes(text, what="input chunk")
        config = self.config
        window = config.window_size
        self._reset_engines()
        engines = self._engines
        num_engines = config.num_engines
        new_org = config.is_new_organization
        port = self._port
        port.reset()
        stats = SimulationStatistics()
        cache_hits_before = sum(
            core.cache.stats.hits for engine in engines for core in engine.cores
        )
        cache_misses_before = sum(
            core.cache.stats.misses for engine in engines for core in engine.cores
        )
        states = [[_CoreState() for _ in engine.cores] for engine in engines]

        opcodes = self._opcodes
        operands = self._operands
        length = len(data)
        pipe = config.pipeline_latency
        split_extra = config.split_extra_latency
        transfer = config.transfer_latency
        balancer = config.balancer_latency
        thread_cap = config.max_threads_per_position

        if max_cycles is None:
            max_cycles = 20_000 + (length + 2) * (len(opcodes) + 64) * 8

        counts: Dict[int, int] = defaultdict(int)
        counts[0] = 1
        total_alive = 1
        stats.threads_spawned = 1
        engines[0].fifos[0].push(0, 0, 0)

        window_base = 0
        slide_ready: Optional[int] = None
        matched_at: Optional[int] = None
        matched_ids: set = set()
        all_ids = self._acceptance_ids
        done = False
        cycle = 0

        def route(engine_idx, core_idx, pc, cc, ready, advanced):
            slot = cc % window
            target = engine_idx
            if not new_org:
                # Old organization: the balancer / FIFO-distribution
                # stage sits between the core and every FIFO.
                ready += balancer
            if num_engines > 1:
                if not new_org:
                    # Old organization: the distributed balancer may
                    # offload any produced thread to the ring neighbour.
                    neighbour = (engine_idx + 1) % num_engines
                    if len(engines[neighbour].fifos[slot]) < len(
                        engines[engine_idx].fifos[slot]
                    ):
                        target = neighbour
                        ready += transfer
                        stats.cross_engine_transfers += 1
                elif advanced and core_idx == window - 1:
                    # New organization: only the last core feeds the
                    # cross-engine balancer (§4).
                    neighbour = (engine_idx + 1) % num_engines
                    if len(engines[neighbour].fifos[slot]) < len(
                        engines[engine_idx].fifos[slot]
                    ):
                        target = neighbour
                        ready += transfer
                        stats.cross_engine_transfers += 1
            if cc >= window_base + window:
                engines[target].parked[cc].append((pc, ready, slot))
            else:
                engines[target].fifos[slot].push(pc, cc, ready)

        def trace_outcome(pc, cc):
            opcode = opcodes[pc]
            if opcode == _SPLIT or opcode == _JMP:
                return "flow", operands[pc]
            if opcode == _ACCEPT_PARTIAL:
                return "accept", None
            if opcode == _ACCEPT:
                return ("accept", None) if cc == length else ("kill", None)
            if opcode == _NOT_MATCH:
                if cc < length and data[cc] != operands[pc]:
                    return "flow", pc + 1
                return "kill", None
            hit = cc < length and (
                opcode == _MATCH_ANY or data[cc] == operands[pc]
            )
            return ("advance", pc + 1) if hit else ("kill", None)

        def execute(engine_idx, core_idx, pc, cc):
            nonlocal total_alive, matched_at, done
            stats.instructions += 1
            if profile is not None:
                profile.pc_counts[pc] += 1
            if trace is not None:
                outcome, target = trace_outcome(pc, cc)
                trace.record(
                    cycle=cycle, engine=engine_idx, core=core_idx,
                    pc=pc, cc=cc, opcode=Opcode(opcodes[pc]),
                    outcome=outcome, target=target,
                )
            opcode = opcodes[pc]
            if opcode == _SPLIT:
                route(engine_idx, core_idx, pc + 1, cc, cycle + pipe, False)
                route(engine_idx, core_idx, operands[pc], cc,
                      cycle + pipe + split_extra, False)
                counts[cc] += 1
                total_alive += 1
                stats.threads_spawned += 1
                if counts[cc] > thread_cap:
                    raise ThreadBudgetError(
                        f"thread blow-up: {counts[cc]} live threads at "
                        f"position {cc} (pattern {self.program.source_pattern!r})",
                        limit=thread_cap,
                        spent=counts[cc],
                    )
                if counts[cc] > stats.peak_threads:
                    stats.peak_threads = counts[cc]
            elif opcode == _JMP:
                route(engine_idx, core_idx, operands[pc], cc, cycle + pipe, False)
            elif opcode == _ACCEPT_PARTIAL:
                if collect_matches:
                    matched_ids.add(operands[pc])
                    counts[cc] -= 1
                    total_alive -= 1
                    stats.threads_killed += 1
                    done = matched_ids >= all_ids
                else:
                    matched_at = cc
            elif opcode == _ACCEPT:
                if cc == length:
                    if collect_matches:
                        matched_ids.add(operands[pc])
                        counts[cc] -= 1
                        total_alive -= 1
                        stats.threads_killed += 1
                        done = matched_ids >= all_ids
                    else:
                        matched_at = cc
                else:
                    counts[cc] -= 1
                    total_alive -= 1
                    stats.threads_killed += 1
            elif opcode == _NOT_MATCH:
                if cc < length and data[cc] != operands[pc]:
                    route(engine_idx, core_idx, pc + 1, cc, cycle + pipe, False)
                else:
                    counts[cc] -= 1
                    total_alive -= 1
                    stats.threads_killed += 1
            else:  # MATCH / MATCH_ANY
                hit = cc < length and (
                    opcode == _MATCH_ANY or data[cc] == operands[pc]
                )
                if hit:
                    counts[cc] -= 1
                    counts[cc + 1] += 1
                    route(engine_idx, core_idx, pc + 1, cc + 1,
                          cycle + pipe, True)
                else:
                    counts[cc] -= 1
                    total_alive -= 1
                    stats.threads_killed += 1

        def step_core(engine_idx, core_idx):
            engine = engines[engine_idx]
            core = engine.cores[core_idx]
            state = states[engine_idx][core_idx]
            if state.waiting_pc is not None:
                if cycle < state.resume_cycle:
                    return False
                pc, cc = state.waiting_pc, state.waiting_cc
                state.waiting_pc = None
                execute(engine_idx, core_idx, pc, cc)
                return True
            if new_org:
                entry = engine.fifos[core_idx].pop_ready(cycle)
            else:
                # Old organization: the single time-multiplexed core
                # serves one thread per cycle across all window FIFOs,
                # oldest character first.
                entry = None
                for offset in range(window):
                    slot = (window_base + offset) % window
                    entry = engine.fifos[slot].pop_ready(cycle)
                    if entry is not None:
                        break
            if entry is None:
                return False
            pc, cc, _ready = entry
            if not core.cache.lookup(pc):
                if profile is not None:
                    profile.cache_misses_by_pc[pc] += 1
                completion = port.request_fill(cycle)
                core.cache.fill(pc)
                state.waiting_pc = pc
                state.waiting_cc = cc
                state.resume_cycle = completion
                return False
            if profile is not None:
                profile.cache_hits_by_pc[pc] += 1
            execute(engine_idx, core_idx, pc, cc)
            return True

        while True:
            if total_alive == 0 or matched_at is not None or done:
                break
            if cycle > max_cycles:
                raise SimulationCycleBudgetError(
                    f"no termination after {max_cycles} cycles "
                    f"(pattern {self.program.source_pattern!r}, "
                    f"config {config.name})",
                    limit=max_cycles,
                    spent=cycle,
                )
            active_cores = 0
            for engine_idx in range(num_engines):
                engine = engines[engine_idx]
                for core_idx in range(len(engine.cores)):
                    if step_core(engine_idx, core_idx):
                        active_cores += 1
            if active_cores:
                stats.active_cycles += 1
            if profile is not None:
                profile.record_cycle(
                    active_cores,
                    sum(len(fifo) for engine in engines for fifo in engine.fifos),
                )

            while (
                total_alive > 0
                and matched_at is None
                and not done
                and counts[window_base] == 0
            ):
                if self._controller_latency == 0:
                    pass  # slide immediately
                elif slide_ready is None:
                    slide_ready = cycle + self._controller_latency
                    break
                elif cycle < slide_ready:
                    break
                slide_ready = None
                counts.pop(window_base, None)
                window_base += 1
                stats.window_slides += 1
                unblocked = window_base + window - 1
                for engine in engines:
                    parked = engine.parked.pop(unblocked, None)
                    if parked:
                        for pc, ready, slot in parked:
                            engine.fifos[slot].push(
                                pc, unblocked, max(ready, cycle)
                            )
            cycle += 1

        stats.cycles = cycle
        stats.memory_fills = port.fills
        for engine in engines:
            for core in engine.cores:
                stats.cache_hits += core.cache.stats.hits
                stats.cache_misses += core.cache.stats.misses
            for fifo in engine.fifos:
                if fifo.high_watermark > stats.fifo_high_watermark:
                    stats.fifo_high_watermark = fifo.high_watermark
        stats.cache_hits -= cache_hits_before
        stats.cache_misses -= cache_misses_before
        if profile is not None:
            profile.runs += 1
            profile.cycles += cycle
        if collect_matches:
            return SimulationResult(
                matched=bool(matched_ids),
                position=None,
                cycles=cycle,
                stats=stats,
                config=self.config,
                matched_ids=frozenset(matched_ids),
            )
        return SimulationResult(
            matched=matched_at is not None,
            position=matched_at,
            cycles=cycle,
            stats=stats,
            config=self.config,
        )


def reference_run(program, config, text, **kwargs) -> SimulationResult:
    """One chunk on a fresh system, stepped cycle by cycle."""
    return ReferenceSystem(program, config).run(text, **kwargs)
