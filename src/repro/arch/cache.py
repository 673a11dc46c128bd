"""Per-core instruction cache and the shared instruction memory port.

Each Cicero core fetches through a small direct-mapped instruction cache
backed by the central instruction memory (Fig. 1); a miss stalls the
core for the memory latency plus any arbitration delay on the single
shared memory port.  This is the mechanism that makes the architecture
"very susceptible to instruction cache misses" (§5) and turns the
compiler's ``D_offset`` code-locality metric into cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class CacheStatistics:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class InstructionCache:
    """Set-associative cache: ``lines`` lines of ``line_words`` words,
    grouped into ``ways``-wide sets with LRU replacement.

    ``ways=1`` degenerates to direct-mapped.  Total capacity in
    instructions is ``lines * line_words``.
    """

    __slots__ = ("lines", "line_words", "ways", "sets", "_ways_tags", "stats")
    #: Every lookup misses (fault injection's ``AlwaysMissCache``).
    always_miss = False

    def __init__(self, lines: int, line_words: int, ways: int = 2):
        if lines % ways:
            raise ValueError(f"{lines} lines do not divide into {ways} ways")
        self.lines = lines
        self.line_words = line_words
        self.ways = ways
        self.sets = lines // ways
        # Per set: list of tags in LRU order (front = most recent).
        self._ways_tags: List[List[int]] = [[] for _ in range(self.sets)]
        self.stats = CacheStatistics()

    def lookup(self, pc: int) -> bool:
        """Access the cache; returns hit/miss and updates statistics."""
        line = pc // self.line_words
        tags = self._ways_tags[line % self.sets]
        if line in tags:
            self.stats.hits += 1
            if tags[0] != line:
                tags.remove(line)
                tags.insert(0, line)
            return True
        self.stats.misses += 1
        return False

    def fill(self, pc: int) -> None:
        """Install the line containing ``pc``, evicting the LRU way."""
        line = pc // self.line_words
        tags = self._ways_tags[line % self.sets]
        if line in tags:
            return
        if len(tags) >= self.ways:
            tags.pop()
        tags.insert(0, line)

    def flush(self) -> None:
        self._ways_tags = [[] for _ in range(self.sets)]


class MemoryPort:
    """The single port of the central instruction memory.

    One line-fill request is granted per cycle; a granted fill completes
    ``latency`` cycles later.  Requests queue in arrival order, so engine
    and core count raise contention under poor code locality.
    """

    __slots__ = ("latency", "_next_free_cycle", "fills")

    def __init__(self, latency: int):
        self.latency = latency
        self._next_free_cycle = 0
        self.fills = 0

    def request_fill(self, cycle: int) -> int:
        """Queue a fill at ``cycle``; returns its completion cycle."""
        grant = max(cycle, self._next_free_cycle)
        self._next_free_cycle = grant + 1
        self.fills += 1
        return grant + self.latency

    def reset(self) -> None:
        self._next_free_cycle = 0
        self.fills = 0
