"""Cycle-level simulator of the Cicero architecture, both organizations.

The model executes one compiled program over one input chunk and counts
cycles, reproducing the micro-architectural mechanisms the paper's
evaluation depends on:

* **Time-multiplexed 3-stage cores** — each core retires at most one
  instruction per cycle; a produced thread becomes poppable
  ``pipeline_latency`` cycles later (a split's second thread one cycle
  after that, as it is born in S3 — Fig. 4).
* **Per-core instruction caches** over a single-ported central
  instruction memory — misses stall the core for the fill latency plus
  arbitration, which is how code locality (``D_offset``) becomes time.
* **Lockstep character window** — ``2^CC_ID`` characters are in flight
  per engine; the window slides when no thread remains on the oldest
  character.  Multi-engine systems pay the centralized controller a
  synchronization latency per slide (§2.2).
* **Old organization** — one core per engine serves all window FIFOs,
  oldest character first; a distributed balancer may offload any newly
  produced thread to the ring neighbour when that neighbour's FIFO is
  shorter (cross-engine balancing, ≥ ``transfer_latency`` cycles).
* **New organization** — one core per FIFO; a thread from FIFO *i* can
  only land in FIFO *i* (control flow) or FIFO *i+1* (match) of the same
  engine (in-engine balancing).  With several engines, only the last
  core's advanced threads may cross to the neighbour's FIFO 0 (§4).

The simulator must agree with :class:`~repro.vm.ThompsonVM` on the
match verdict for every configuration — a tested property.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..ir.diagnostics import BudgetExceeded, ReproError
from ..isa.instructions import Opcode
from ..isa.program import Program
from ..runtime.encoding import as_input_bytes
from .cache import InstructionCache, MemoryPort
from .config import ArchConfig
from .fifo import ThreadFifo

_ACCEPT = int(Opcode.ACCEPT)
_ACCEPT_PARTIAL = int(Opcode.ACCEPT_PARTIAL)
_SPLIT = int(Opcode.SPLIT)
_JMP = int(Opcode.JMP)
_MATCH_ANY = int(Opcode.MATCH_ANY)
_MATCH = int(Opcode.MATCH)
_NOT_MATCH = int(Opcode.NOT_MATCH)


class SimulationError(ReproError):
    """The simulation hit a structural limit (thread blow-up, no progress)."""

    code = "REPRO-SIM"


class SimulationCycleBudgetError(BudgetExceeded, SimulationError):
    """The cycle watchdog tripped: no termination within the budget.

    Both a :class:`~repro.ir.diagnostics.BudgetExceeded` (taxonomy) and a
    :class:`SimulationError` (existing callers keep working).
    """

    code = "REPRO-BUDGET-SIM-CYCLES"


class ThreadBudgetError(BudgetExceeded, SimulationError):
    """Per-position live-thread count exceeded the configured safety cap."""

    code = "REPRO-BUDGET-SIM-THREADS"


@dataclass
class SimulationStatistics:
    """Micro-architectural event counts for one run."""

    cycles: int = 0
    instructions: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    memory_fills: int = 0
    threads_spawned: int = 0
    threads_killed: int = 0
    cross_engine_transfers: int = 0
    window_slides: int = 0
    peak_threads: int = 0
    fifo_high_watermark: int = 0
    #: Cycles during which at least one core retired an instruction.
    active_cycles: int = 0

    @property
    def miss_rate(self) -> float:
        accesses = self.cache_hits + self.cache_misses
        return self.cache_misses / accesses if accesses else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


@dataclass(frozen=True)
class SimulationResult:
    matched: bool
    position: Optional[int]
    cycles: int
    stats: SimulationStatistics
    config: ArchConfig
    #: Multi-matching mode only (paper §8 extension): the identifiers of
    #: every RE that matched; None in single-match mode.
    matched_ids: Optional[frozenset] = None

    def __bool__(self) -> bool:
        return self.matched


#: Wake cycle of a core with nothing to do: its FIFOs are empty, so only
#: a push can give it work.  Larger than any cycle budget.
_NEVER = 1 << 62


class _Core:
    """One core's persistent state: its instruction cache.  What a core
    is doing *within* a run (a stalled fetch, when it can next act)
    lives in :meth:`CiceroSystem.run`'s wake-cycle tables."""

    __slots__ = ("cache",)

    def __init__(self, config: ArchConfig):
        self.cache = InstructionCache(
            config.icache_lines, config.icache_line_words, config.icache_ways
        )


class _Engine:
    __slots__ = ("fifos", "cores", "parked")

    def __init__(self, config: ArchConfig):
        self.fifos = [ThreadFifo() for _ in range(config.window_size)]
        self.cores = [_Core(config) for _ in range(config.cores_per_engine)]
        #: Threads produced for a character beyond the current window,
        #: waiting for it to slide: cc -> [(pc, ready_cycle, slot)].
        self.parked: Dict[int, List] = defaultdict(list)


class CiceroSystem:
    """One program loaded on one architecture configuration.

    The system object persists across :meth:`run` calls the way the
    hardware does across input chunks: FIFOs and pipeline state are
    reset per chunk, but the per-core instruction caches keep their
    contents (the program does not change), so cold-start misses are
    paid once per core rather than once per chunk.
    """

    def __init__(self, program: Program, config: ArchConfig):
        self.program = program
        self.config = config
        self._opcodes = [int(instruction.opcode) for instruction in program]
        self._operands = [instruction.operand for instruction in program]
        self._acceptance_ids = frozenset(
            instruction.operand
            for instruction in program
            if instruction.opcode.is_acceptance
        )
        self._engines = [_Engine(config) for _ in range(config.num_engines)]
        self._port = MemoryPort(config.memory_latency)
        # Per-slide controller synchronization latency (multi-engine only).
        if config.num_engines == 1:
            self._controller_latency = 0
        else:
            self._controller_latency = 1 + (config.num_engines - 1).bit_length()

    def _reset_engines(self) -> None:
        """Per-chunk reset: drain FIFOs and pipelines, keep icaches warm."""
        for engine in self._engines:
            engine.parked.clear()
            for fifo in engine.fifos:
                fifo.reset()

    # ------------------------------------------------------------------
    def run(
        self,
        text: Union[str, bytes],
        max_cycles: Optional[int] = None,
        collect_matches: bool = False,
        trace=None,
        profile=None,
    ) -> SimulationResult:
        """Execute over one chunk.

        ``collect_matches=True`` enables the §8 multi-matching mode: an
        acceptance records its identifier operand and kills only that
        thread; the run continues until every identifier in the program
        has been seen or the enumeration drains, and ``matched_ids``
        reports the set.

        ``trace`` accepts a :class:`~repro.arch.trace.TraceRecorder`
        that receives one event per retired instruction (the Figure-4
        view).

        ``profile`` accepts a :class:`repro.observability.SimProfile`
        built over this program: per-PC instruction retires and icache
        hits/misses (split exactly as ``stats.instructions`` /
        ``stats.cache_*`` total them) plus per-cycle core-occupancy and
        FIFO-depth histograms (``sum(occupancy.values()) == cycles``).

        The loop only visits what can change state.  Each core has a
        *wake cycle* — a lower bound on the next cycle it can act: the
        fill completion while it is stalled on a miss, else the ready
        cycle of the head of the FIFO(s) it serves — and is skipped
        until then; a cycle on which nothing retired jumps straight to
        the earliest wake cycle (or pending window slide).  Nothing the
        model counts can move during a skipped stretch, so every
        statistic, trace event and profile bucket is what stepping each
        core on each cycle would produce (``tests/arch`` keeps that
        loop as the oracle).
        """
        data = as_input_bytes(text, what="input chunk")
        config = self.config
        window = config.window_size
        self._reset_engines()
        engines = self._engines
        num_engines = config.num_engines
        new_org = config.is_new_organization
        multi_engine = num_engines > 1
        controller_latency = self._controller_latency
        port = self._port
        port.reset()

        # Flat views, engine-major, of the live objects: fault injection
        # swaps in FIFOs with a ``plan`` and caches that ``always_miss``
        # between construction and run.  No method of theirs is called.
        caches = [core.cache for engine in engines for core in engine.cores]
        tag_sets = [cache._ways_tags for cache in caches]
        always_miss = [cache.always_miss for cache in caches]
        cache = caches[0]  # every core's cache has the same geometry
        line_words, num_sets, ways = cache.line_words, cache.sets, cache.ways
        num_cores = len(caches)
        #: last_line[k]: core k's last fetched line, MRU in its set.
        last_line = [-1] * num_cores
        fifos = [fifo for engine in engines for fifo in engine.fifos]
        queues = [fifo.entries for fifo in fifos]
        #: drops[f](): FIFO f's plan loses this push (``bool()`` is False).
        drops = [bool if f.plan is None else f.plan.should_drop for f in fifos]
        if all(drop is bool for drop in drops):
            drops = None
        parked = [engine.parked for engine in engines]
        num_fifos = len(fifos)
        # FIFO f is served by core ``f >> server_shift``: its own core in
        # the new organization, its engine's only core in the old one.
        server_shift = 0 if new_org else config.cc_id_bits
        #: homes[k]: the first FIFO of core k's engine.
        homes = [
            k // config.cores_per_engine * window for k in range(num_cores)
        ]
        #: Old organization: core k's FIFOs, oldest character first.
        windows = [queues[home : home + window] for home in homes]

        opcodes = self._opcodes
        operands = self._operands
        length = len(data)
        split_extra = config.split_extra_latency
        transfer = config.transfer_latency
        # Old organization: the balancer / FIFO-distribution stage sits
        # between the core and every FIFO.
        produce_latency = config.pipeline_latency
        if not new_org:
            produce_latency += config.balancer_latency
        thread_cap = config.max_threads_per_position

        if max_cycles is None:
            max_cycles = 20_000 + (length + 2) * (len(opcodes) + 64) * 8

        counts = [0] * (length + 2)
        counts[0] = 1
        total_alive = 1
        instructions = 0
        #: Cache hits: retires minus ``resumed`` (retires after a fill).
        cache_misses = resumed = fifo_high_watermark = 0
        threads_spawned = 1
        threads_killed = 0
        cross_engine_transfers = 0
        window_slides = 0
        peak_threads = 0
        active_cycles = 0

        #: wake[k] <= the earliest cycle core k can act.  A push into a
        #: FIFO the core serves lowers it; a poll that finds nothing to
        #: do sets it exactly.
        wake = [_NEVER] * num_cores
        #: stalled[k]: the (pc, cc, fill completion) core k waits on.
        stalled: List[Optional[tuple]] = [None] * num_cores
        if drops is None or not drops[0]():
            queues[0].append((0, 0, 0))
        wake[0] = 0

        window_base = 0
        slide_ready: Optional[int] = None
        matched_at: Optional[int] = None
        matched_ids: set = set()
        all_ids = self._acceptance_ids
        done = False
        cycle = 0

        def trace_outcome(pc: int, cc: int):
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

        while total_alive and matched_at is None and not done:
            if cycle > max_cycles:
                raise SimulationCycleBudgetError(
                    f"no termination after {max_cycles} cycles "
                    f"(pattern {self.program.source_pattern!r}, "
                    f"config {config.name})",
                    limit=max_cycles,
                    spent=cycle,
                )
            active_cores = 0
            for k in range(num_cores):
                if wake[k] > cycle:
                    continue
                # ------------------------------------------------------
                # Fetch: resume a stalled fetch or pop a ready thread.
                # ------------------------------------------------------
                thread = stalled[k]
                if thread is not None:
                    pc, cc, resume = thread
                    if cycle < resume:
                        # Woken by a push; the fill is still in flight.
                        wake[k] = resume
                        continue
                    stalled[k] = None
                    resumed += 1
                else:
                    if new_org:
                        queue = queues[k]
                        if not queue or queue[0][2] > cycle:
                            wake[k] = queue[0][2] if queue else _NEVER
                            continue
                    else:
                        # Old organization: the single time-multiplexed
                        # core serves one thread per cycle across all
                        # window FIFOs, oldest character first (lockstep
                        # flows "over a character at a time", §2.2).
                        earliest = _NEVER
                        for queue in windows[k]:
                            if queue:
                                head_ready = queue[0][2]
                                if head_ready <= cycle:
                                    break
                                if head_ready < earliest:
                                    earliest = head_ready
                        else:
                            wake[k] = earliest
                            continue
                    # A FIFO is deepest just before a pop or at the end.
                    if len(queue) > fifo_high_watermark:
                        fifo_high_watermark = len(queue)
                    pc, cc, _ready = queue.popleft()
                    line = pc // line_words
                    if line != last_line[k]:
                        tags = tag_sets[k][line % num_sets]
                        missed = always_miss[k] or line not in tags
                        if line in tags:
                            tags.remove(line)
                        elif len(tags) >= ways:
                            tags.pop()
                        tags.insert(0, line)  # a hit's LRU update or a fill
                        if missed:
                            last_line[k] = -1 if always_miss[k] else line
                            cache_misses += 1
                            if profile is not None:
                                profile.cache_misses_by_pc[pc] += 1
                            resume = port.request_fill(cycle)
                            stalled[k] = (pc, cc, resume)
                            wake[k] = resume
                            continue
                        last_line[k] = line
                    if profile is not None:
                        profile.cache_hits_by_pc[pc] += 1

                # ------------------------------------------------------
                # Execute: retire the instruction, name what it produces.
                # ------------------------------------------------------
                active_cores += 1
                instructions += 1
                if profile is not None:
                    profile.pc_counts[pc] += 1
                if trace is not None:
                    outcome, goes_to = trace_outcome(pc, cc)
                    trace.record(
                        cycle=cycle,
                        engine=k // config.cores_per_engine,
                        core=k % config.cores_per_engine,
                        pc=pc, cc=cc, opcode=Opcode(opcodes[pc]),
                        outcome=outcome, target=goes_to,
                    )
                opcode = opcodes[pc]
                ready = cycle + produce_latency
                advanced = False
                if opcode == _MATCH or opcode == _MATCH_ANY:
                    counts[cc] -= 1
                    if cc < length and (
                        opcode == _MATCH_ANY or data[cc] == operands[pc]
                    ):
                        cc += 1
                        counts[cc] += 1
                        advanced = True
                        produced = ((pc + 1, ready),)
                    else:
                        total_alive -= 1
                        threads_killed += 1
                        produced = ()
                elif opcode == _SPLIT:
                    counts[cc] += 1
                    total_alive += 1
                    threads_spawned += 1
                    if counts[cc] > thread_cap:
                        raise ThreadBudgetError(
                            f"thread blow-up: {counts[cc]} live threads at "
                            f"position {cc} (pattern {self.program.source_pattern!r})",
                            limit=thread_cap,
                            spent=counts[cc],
                        )
                    if counts[cc] > peak_threads:
                        peak_threads = counts[cc]
                    # The second thread is born in S3, a cycle later.
                    produced = (
                        (pc + 1, ready),
                        (operands[pc], ready + split_extra),
                    )
                elif opcode == _JMP:
                    produced = ((operands[pc], ready),)
                elif opcode == _NOT_MATCH:
                    if cc < length and data[cc] != operands[pc]:
                        produced = ((pc + 1, ready),)
                    else:
                        counts[cc] -= 1
                        total_alive -= 1
                        threads_killed += 1
                        produced = ()
                elif opcode == _ACCEPT_PARTIAL or cc == length:  # acceptance
                    if collect_matches:
                        matched_ids.add(operands[pc])
                        counts[cc] -= 1
                        total_alive -= 1
                        threads_killed += 1
                        done = matched_ids >= all_ids
                    else:
                        matched_at = cc
                    produced = ()
                else:  # ACCEPT before the end of the chunk
                    counts[cc] -= 1
                    total_alive -= 1
                    threads_killed += 1
                    produced = ()

                # ------------------------------------------------------
                # Route each produced thread to a FIFO (or park it).
                # ------------------------------------------------------
                for new_pc, ready in produced:
                    slot = cc % window
                    home = homes[k]
                    dest = home + slot
                    # Cross-engine balancing.  Old organization: the
                    # distributed balancer may offload any produced
                    # thread to the ring neighbour.  New organization:
                    # only the last core's advanced threads may (§4).
                    if multi_engine and (
                        not new_org or (advanced and k - home == window - 1)
                    ):
                        neighbour = (home + window) % num_fifos + slot
                        if len(queues[neighbour]) < len(queues[dest]):
                            dest = neighbour
                            ready += transfer
                            cross_engine_transfers += 1
                    if cc >= window_base + window:
                        parked[dest // window][cc].append((new_pc, ready, slot))
                    else:
                        if drops is None or not drops[dest]():
                            queues[dest].append((new_pc, cc, ready))
                        server = dest >> server_shift
                        if ready < wake[server]:
                            wake[server] = ready

                # The core can act again as soon as its next head is
                # ready.  (Old organization: leave that to the next
                # poll, which walks the window FIFOs anyway.)
                if new_org:
                    queue = queues[k]
                    wake[k] = queue[0][2] if queue else _NEVER
                else:
                    wake[k] = cycle + 1

            if active_cores:
                active_cycles += 1
            if profile is not None:
                profile.record_cycle(active_cores, sum(map(len, queues)))

            # Window sliding (possibly several positions per check when
            # the controller latency is zero).
            while (
                total_alive > 0
                and matched_at is None
                and not done
                and counts[window_base] == 0
            ):
                if controller_latency == 0:
                    pass  # slide immediately
                elif slide_ready is None:
                    slide_ready = cycle + controller_latency
                    break
                elif cycle < slide_ready:
                    break
                slide_ready = None
                window_base += 1
                window_slides += 1
                if not new_org:
                    for oldest_first in windows:
                        oldest_first.append(oldest_first.pop(0))
                unblocked = window_base + window - 1
                for engine_idx in range(num_engines):
                    released = parked[engine_idx].pop(unblocked, None)
                    if released:
                        for pc, ready, slot in released:
                            if ready < cycle:
                                ready = cycle
                            dest = engine_idx * window + slot
                            if drops is None or not drops[dest]():
                                queues[dest].append((pc, unblocked, ready))
                            server = dest >> server_shift
                            if ready < wake[server]:
                                wake[server] = ready

            cycle += 1
            if not active_cores:
                # Nothing retired, so nothing can until a core wakes or
                # a pending slide falls due: go straight there.  The
                # watchdog sees a drained-but-alive system (a dropped
                # FIFO entry) at ``max_cycles + 1``, as it always did.
                next_event = min(wake)
                if slide_ready is not None and slide_ready < next_event:
                    next_event = slide_ready
                if next_event > max_cycles:
                    next_event = max_cycles + 1
                if next_event > cycle:
                    if profile is not None:
                        profile.record_cycle(
                            0, sum(map(len, queues)), next_event - cycle
                        )
                    cycle = next_event

        # --------------------------------------------------------------
        # Statistics roll-up
        # --------------------------------------------------------------
        stats = SimulationStatistics(
            cycles=cycle,
            instructions=instructions,
            cache_hits=instructions - resumed,
            cache_misses=cache_misses,
            memory_fills=port.fills,
            threads_spawned=threads_spawned,
            threads_killed=threads_killed,
            cross_engine_transfers=cross_engine_transfers,
            window_slides=window_slides,
            peak_threads=peak_threads,
            fifo_high_watermark=max(fifo_high_watermark, *map(len, queues)),
            active_cycles=active_cycles,
        )
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
