"""The interface every workload of the layered benchmark implements."""

from __future__ import annotations

from typing import Dict, List

import harness
from harness import Pass, Recorder


def verdict(holds: bool) -> str:
    return "PASS" if holds else "FAIL"


class Workload:
    """One named workload: seeded inputs, an entry point, an oracle.

    ``setup`` builds inputs and expected verdicts from ``seed`` and
    starts the program; ``warm_up`` brings it to the state the measured
    phase starts from; ``run_pass`` times one pass over the inputs and
    checks its outputs after the clock has stopped.  The ``trace_*`` hooks serve the traced
    run: ``trace_setup`` once before the traced passes (one-off layers,
    replay state), ``trace_pass`` as often as time allows, and
    ``trace_counts`` once after them (exact counts that need a slower
    instrumented re-execution, kept out of every timed region).
    """

    name: str
    #: Unit of ``work_per_s`` and what one timed operation is.
    work_unit: str
    op: str
    #: The name ``work_per_s`` goes by on this workload.
    rate_alias: str
    #: Highest of p90/p95/p99 with >= 10 samples beyond it in a default run;
    #: printed, not bounded.
    tail_pct: int
    #: Every pass issues the same operations in the same order, so passes
    #: can be compared operation by operation (see ``harness.best_time``).
    aligned = True
    #: Attribute overrides of the self-test's tiny scale.
    tiny: Dict[str, object] = {}

    def __init__(self, seed: int, seconds: float, tiny: bool = False):
        self.seed = seed
        self.seconds = seconds
        if tiny:
            vars(self).update(self.tiny)

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        self.run_pass()

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def corrupt_oracle(self) -> None:
        """Flip one expected verdict (the self-test's wrong-oracle case)."""
        raise NotImplementedError

    def input_bytes(self) -> bytes:
        """Everything ``setup`` generated, for the self-test's seed check."""
        raise NotImplementedError

    def trace_setup(self, rec: Recorder) -> Dict[str, float]:
        return {}

    def trace_pass(self, rec: Recorder) -> Dict[str, float]:
        raise NotImplementedError

    def trace_counts(self) -> Dict[str, float]:
        return {}

    def finish(self, layers: Dict[str, float]) -> List[str]:
        """Add the ratios derived from the per-layer medians to ``layers``;
        return ``PASS``/``FAIL`` lines on the shape the workload must have."""
        return []

    def peak_rss_mb(self) -> float:
        return harness.peak_rss_mb()

    def close(self) -> None:
        pass
