"""Per-PC execution profiles with source-regex attribution.

The profiler answers *where the cycles went*.  Both VMs and the
cycle-level simulator accept an optional profile object; when one is
supplied they count, per program counter, exactly the work their
existing aggregate counters already total:

* :class:`VMProfile` — one slot per instruction, incremented by the
  matching kernel's per-position observer from the same mask of
  executed PCs it adds to ``repro_vm_steps_total``.  The conservation law
  ``sum(profile.pc_counts) == steps`` is exact (property-tested), so
  the profile is a lossless decomposition of the step counter.
* :class:`SimProfile` — per-PC instruction retires and icache
  hits/misses from :meth:`repro.arch.system.CiceroSystem.run`, plus
  per-cycle core-occupancy and FIFO-depth histograms
  (``sum(occupancy.values()) == cycles``).

Attribution maps PCs back to source-regex fragments through
``Program.source_map``, the per-instruction provenance the lowering
pipeline threads from regex pieces through the §5 transforms to
codegen.  A report can therefore say "70% of steps burned in
``(a|ab|b)*``" — the signal literal-prefilter selection consumes.

Disabled-path discipline matches the rest of the layer: callers pass
``profile=None`` (the default) and no observer is attached — the VM
loop then pays one ``is not None`` per input position; a profiled run
shares its observer with tracing/metrics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # import-cycle guard: isa does not depend on us
    from ..isa.program import Program

#: Label used for instructions the source map cannot attribute (pass
#: synthesized glue that predates or outlives any regex fragment).
UNATTRIBUTED = "(unattributed)"


class ProgramProfile:
    """Shared per-PC counting and attribution over one program shape.

    Subclasses own the semantics of ``pc_counts`` (VM steps vs
    simulator retires) and add their own aggregate fields; everything
    keyed by program counter — opcode breakdowns, source-fragment
    attribution, hottest-PC ranking, merging — lives here.
    """

    def __init__(self, program: "Program") -> None:
        self.source_pattern: str = program.source_pattern
        self.opcode_names: List[str] = [
            instruction.opcode.mnemonic for instruction in program.instructions
        ]
        source_map = getattr(program, "source_map", None)
        self.source_map: Optional[List[Optional[str]]] = (
            list(source_map) if source_map is not None else None
        )
        self.pc_counts: List[int] = [0] * len(program.instructions)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        """Sum of every per-PC count (== the matching aggregate counter)."""
        return sum(self.pc_counts)

    def source_of(self, pc: int) -> str:
        """The regex fragment ``pc`` was lowered from (or a placeholder)."""
        if self.source_map is not None:
            label = self.source_map[pc]
            if label is not None:
                return label
        return UNATTRIBUTED

    def per_opcode(self) -> Dict[str, int]:
        """Counts aggregated by opcode mnemonic, descending."""
        totals: Dict[str, int] = {}
        for name, count in zip(self.opcode_names, self.pc_counts):
            totals[name] = totals.get(name, 0) + count
        return dict(sorted(totals.items(), key=lambda item: (-item[1], item[0])))

    def by_source(self) -> List[Tuple[str, int]]:
        """Counts aggregated by source-regex fragment, descending.

        The attribution the prefilter roadmap item consumes: each entry
        is ``(fragment, count)`` where ``fragment`` is the sub-pattern
        text recorded by the lowering pipeline.
        """
        totals: Dict[str, int] = {}
        for pc, count in enumerate(self.pc_counts):
            label = self.source_of(pc)
            totals[label] = totals.get(label, 0) + count
        return sorted(totals.items(), key=lambda item: (-item[1], item[0]))

    def hottest(self, n: int = 10) -> List[Tuple[int, str, str, int]]:
        """The ``n`` busiest PCs as ``(pc, opcode, source, count)``."""
        ranked = sorted(
            range(len(self.pc_counts)),
            key=lambda pc: (-self.pc_counts[pc], pc),
        )
        return [
            (pc, self.opcode_names[pc], self.source_of(pc), self.pc_counts[pc])
            for pc in ranked[:n]
            if self.pc_counts[pc] > 0
        ]

    def merge(self, other: "ProgramProfile") -> None:
        """Fold another profile of the *same program* into this one."""
        if len(other.pc_counts) != len(self.pc_counts):
            raise ValueError(
                f"cannot merge profiles of different programs "
                f"({len(other.pc_counts)} vs {len(self.pc_counts)} slots)"
            )
        for pc, count in enumerate(other.pc_counts):
            self.pc_counts[pc] += count

    def _base_dict(self) -> Dict[str, Any]:
        return {
            "source_pattern": self.source_pattern,
            "program_size": len(self.pc_counts),
            "pc_counts": list(self.pc_counts),
            "opcodes": list(self.opcode_names),
            "source_map": list(self.source_map)
            if self.source_map is not None
            else None,
            "per_opcode": self.per_opcode(),
            "by_source": [list(item) for item in self.by_source()],
        }

    def _attribution_lines(self, indent: str = "  ") -> List[str]:
        lines: List[str] = []
        total = self.total
        if total:
            lines.append(f"{indent}by source fragment:")
            for label, count in self.by_source():
                if count == 0:
                    continue
                lines.append(
                    f"{indent}  {count / total:6.1%}  {count:>10}  {label}"
                )
            lines.append(f"{indent}hottest pcs:")
            for pc, opcode, source, count in self.hottest():
                lines.append(
                    f"{indent}  pc {pc:>4}  {opcode:<13} {count:>10}  "
                    f"{count / total:6.1%}  {source}"
                )
        return lines


class VMProfile(ProgramProfile):
    """Exact per-PC step profile for the breadth-first VMs.

    ``pc_counts[pc]`` is the number of times the matching kernel
    executed the work instruction at ``pc``: its observer
    (:class:`repro.vm.kernel.Observer`) bumps one slot per PC in each
    position's mask of executed PCs, the same mask whose popcount it
    adds to ``steps`` (and thus ``repro_vm_steps_total``).  The invariant
    ``profile.total == steps`` therefore holds on every exit path,
    including early accept returns and step-budget aborts.
    """

    def __init__(self, program: "Program") -> None:
        super().__init__(program)
        self.runs: int = 0
        self.matches: int = 0
        self.positions: int = 0

    @property
    def total_steps(self) -> int:
        return self.total

    def to_dict(self) -> Dict[str, Any]:
        payload = self._base_dict()
        payload.update(
            kind="vm",
            runs=self.runs,
            matches=self.matches,
            positions=self.positions,
            total_steps=self.total_steps,
        )
        return payload

    def format_report(self) -> str:
        header = (
            f"vm profile: {self.source_pattern!r} — {self.runs} run(s), "
            f"{self.total_steps} steps, {self.positions} position(s), "
            f"{self.matches} match(es)"
        )
        return "\n".join([header, *self._attribution_lines()])


class SimProfile(ProgramProfile):
    """Cycle-level profile for :class:`~repro.arch.system.CiceroSystem`.

    ``pc_counts[pc]`` counts instruction retires (the per-PC split of
    ``SimulationStatistics.instructions``); ``cache_hits_by_pc`` /
    ``cache_misses_by_pc`` split the icache counters the same way.
    ``occupancy[k]`` counts cycles on which exactly ``k`` cores
    executed (``sum == cycles``), and ``fifo_depth[d]`` counts cycles
    observed at total FIFO depth ``d`` — the utilisation signal behind
    the paper's cycles-per-character comparisons.
    """

    def __init__(self, program: "Program") -> None:
        super().__init__(program)
        self.cache_hits_by_pc: List[int] = [0] * len(self.pc_counts)
        self.cache_misses_by_pc: List[int] = [0] * len(self.pc_counts)
        self.occupancy: Dict[int, int] = {}
        self.fifo_depth: Dict[int, int] = {}
        self.runs: int = 0
        self.cycles: int = 0

    @property
    def total_instructions(self) -> int:
        return self.total

    def record_cycle(
        self, active_cores: int, fifo_depth: int, cycles: int = 1
    ) -> None:
        """Account ``cycles`` simulated cycles spent at one occupancy and
        FIFO depth (called from the system loop: once per stepped cycle,
        and once for each idle stretch it skips over)."""
        self.occupancy[active_cores] = (
            self.occupancy.get(active_cores, 0) + cycles
        )
        self.fifo_depth[fifo_depth] = self.fifo_depth.get(fifo_depth, 0) + cycles

    def cache_hit_rate(self) -> Optional[float]:
        hits = sum(self.cache_hits_by_pc)
        total = hits + sum(self.cache_misses_by_pc)
        return hits / total if total else None

    def mean_occupancy(self) -> Optional[float]:
        cycles = sum(self.occupancy.values())
        if not cycles:
            return None
        return sum(k * n for k, n in self.occupancy.items()) / cycles

    def merge(self, other: "ProgramProfile") -> None:
        super().merge(other)
        if isinstance(other, SimProfile):
            for pc in range(len(self.pc_counts)):
                self.cache_hits_by_pc[pc] += other.cache_hits_by_pc[pc]
                self.cache_misses_by_pc[pc] += other.cache_misses_by_pc[pc]
            for key, value in other.occupancy.items():
                self.occupancy[key] = self.occupancy.get(key, 0) + value
            for key, value in other.fifo_depth.items():
                self.fifo_depth[key] = self.fifo_depth.get(key, 0) + value
            self.runs += other.runs
            self.cycles += other.cycles

    def to_dict(self) -> Dict[str, Any]:
        payload = self._base_dict()
        payload.update(
            kind="sim",
            runs=self.runs,
            cycles=self.cycles,
            total_instructions=self.total_instructions,
            cache_hits_by_pc=list(self.cache_hits_by_pc),
            cache_misses_by_pc=list(self.cache_misses_by_pc),
            cache_hit_rate=self.cache_hit_rate(),
            occupancy={str(k): v for k, v in sorted(self.occupancy.items())},
            fifo_depth={str(k): v for k, v in sorted(self.fifo_depth.items())},
            mean_occupancy=self.mean_occupancy(),
        )
        return payload

    def format_report(self) -> str:
        hit_rate = self.cache_hit_rate()
        occupancy = self.mean_occupancy()
        header = (
            f"sim profile: {self.source_pattern!r} — {self.runs} run(s), "
            f"{self.cycles} cycle(s), {self.total_instructions} retire(s), "
            f"icache hit rate "
            f"{'n/a' if hit_rate is None else format(hit_rate, '.1%')}, "
            f"mean occupancy "
            f"{'n/a' if occupancy is None else format(occupancy, '.2f')}"
        )
        return "\n".join([header, *self._attribution_lines()])
