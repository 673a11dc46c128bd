"""The per-character thread FIFOs of a Cicero engine.

Each FIFO holds the program counters of the execution threads working on
one character of the engine's input window (Fig. 1).  Entries carry a
``ready_cycle`` modelling pipeline and transfer latency: hardware FIFOs
are strictly in-order, so a not-yet-ready head blocks the entries behind
it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

#: (pc, cc, ready_cycle)
ThreadEntry = Tuple[int, int, int]


class ThreadFifo:
    """In-order thread queue with readiness-gated popping.

    Capacity is not enforced: the real hardware sizes FIFOs to the
    worst case and stalls producers on overflow; modelling that adds
    deadlock-avoidance machinery without changing any of the paper's
    comparisons, so this model tracks the high-watermark instead (it
    feeds the resource model's FIFO depth sizing).
    """

    __slots__ = ("entries", "high_watermark", "total_pushed")
    #: The fault plan whose pushes this FIFO loses (``DroppingFifo``).
    plan = None

    def __init__(self):
        self.entries: Deque[ThreadEntry] = deque()
        self.high_watermark = 0
        self.total_pushed = 0

    def reset(self) -> None:
        """Empty the queue and restart its per-run counters."""
        self.entries.clear()
        self.high_watermark = 0
        self.total_pushed = 0

    def push(self, pc: int, cc: int, ready_cycle: int) -> None:
        entries = self.entries
        entries.append((pc, cc, ready_cycle))
        self.total_pushed += 1
        if len(entries) > self.high_watermark:
            self.high_watermark = len(entries)

    def pop_ready(self, cycle: int) -> Optional[ThreadEntry]:
        """Pop the head entry if it is ready at ``cycle``."""
        if self.entries and self.entries[0][2] <= cycle:
            return self.entries.popleft()
        return None

    def head_ready(self, cycle: int) -> bool:
        return bool(self.entries) and self.entries[0][2] <= cycle

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)
