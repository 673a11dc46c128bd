"""Shared machinery of the layered benchmark.

* :class:`Recorder` — the in-memory span log of the traced run;
* :class:`Pass` — what one measured pass of a workload reports;
* :func:`measure` / :func:`measure_traced` — the two kinds of run;
* :func:`emit` — the result line the driver parses.

A workload is an object with the hooks of :class:`workload.Workload`.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

clock = time.perf_counter

ROOT = Path(__file__).resolve().parents[2]

#: A run is cut into this many slices, each a fresh set-up followed by
#: its share of the measured passes, so the set-ups of one run are spread
#: over the whole run and not bunched in the first seconds of it.
SLICES = 4
#: Fewest passes a slice may hold.
MIN_PASSES = 2


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Recorder:
    """Span log kept in memory: ``[name, start, end, parent index]``.

    The span name is the layer (module path under ``src/repro``).  A
    layer's busy time is the *self* time of its spans: duration minus
    the part covered by child spans.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open = -1

    @contextmanager
    def span(self, name: str):
        self.spans.append([name, clock(), None, self._open])
        index = self._open = len(self.spans) - 1
        try:
            yield
        finally:
            self.spans[index][2] = clock()
            self._open = self.spans[index][3]

    def leaf(self, name: str, start: float, end: float) -> None:
        """A finished childless span — the hot-loop form of :meth:`span`."""
        self.spans.append([name, start, end, self._open])

    def mark(self) -> int:
        return len(self.spans)

    def busy(self, since: int = 0) -> Dict[str, float]:
        """Layer → self seconds over the spans recorded from ``since``."""
        spans = self.spans
        busy: Dict[str, float] = {}
        for name, start, end, parent in spans[since:]:
            duration = end - start
            busy[name] = busy.get(name, 0.0) + duration
            if parent >= since:
                parent_name = spans[parent][0]
                busy[parent_name] = busy.get(parent_name, 0.0) - duration
        return busy

    def write(self, path: Path, workload: str) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "workload": workload,
                            "id": index,
                            "parent": parent if parent >= 0 else None,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# Passes and statistics
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """One pass over a workload's inputs."""

    wall: float
    #: Units of work done (REs, MB of rule-bytes, kcycles, replies).
    work: float
    #: Seconds per operation, in issue order.
    latencies: List[float]
    attempted: int
    failed: int
    #: Counts that must be identical in every pass of a run.
    exact: Dict[str, int] = field(default_factory=dict)
    #: First failures, for the report.
    notes: List[str] = field(default_factory=list)


def time_operations(operations) -> tuple:
    """Issue each zero-argument callable when the previous one returns.

    Returns ``(wall, latencies, results)``.  An operation that raises
    yields its exception as its result: the caller counts it as failed
    when it checks the results, after the clock has stopped.
    """
    latencies: List[float] = []
    results = []
    started = clock()
    for operation in operations:
        op_started = clock()
        try:
            result = operation()
        except Exception as error:
            result = error
        latencies.append(clock() - op_started)
        results.append(result)
    return clock() - started, latencies, results


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(0, min(len(ordered) - 1, int(len(ordered) * pct / 100.0)))
    return ordered[rank]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, median, third = statistics.quantiles(values, n=4)
    return (third - first) / median if median else 0.0


def noise(values: Sequence[float]) -> str:
    return (
        f"min {min(values):.6g}  med {statistics.median(values):.6g}  "
        f"max {max(values):.6g}  iqr {100 * spread(values):.1f}%  n={len(values)}"
    )


#: Blocks a pass is cut into for :func:`best_time`: 60-90 ms each, short
#: enough to fall between two bursts, long enough (ten compiles, four
#: scan calls) to hold their share of collector pauses.
BLOCKS = 16


def best_time(passes: Sequence[Pass]) -> float:
    """Seconds one pass takes when nothing else disturbs it.

    Noise on a shared box only ever slows the program down: the host
    runs at two speeds, 1x and 1.4x, in stretches of 5-15 s, and a median
    of passes reads whichever held for most of the run.  Every pass
    issues the same operations in the same order, so a pass is cut into
    :data:`BLOCKS` runs of operations and each block counts with the
    fastest it ran in any pass.
    """
    count = len(passes[0].latencies)
    edges = [count * block // BLOCKS for block in range(BLOCKS + 1)]
    return sum(
        min(sum(p.latencies[low:high]) for p in passes)
        for low, high in zip(edges, edges[1:])
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def _set_up(make):
    """Set the workload up once; ``(workload, seconds it took)``.

    Inputs and oracle verdicts are frozen out of the collector's sight
    *before* the warm-up pass, so the collector has settled into the
    state the measured passes will keep it in.
    """
    gc.unfreeze()
    started = clock()
    workload = make()
    try:
        workload.setup()
        gc.collect()
        gc.freeze()
        workload.warm_up()
    except BaseException:
        workload.close()
        raise
    return workload, clock() - started


def measure(make, seconds: float, corrupt: bool = False) -> dict:
    """The untraced run: every end-to-end metric of one workload."""
    setups: List[float] = []
    passes: List[Pass] = []
    rss = 0.0
    for _ in range(SLICES):
        workload, setup_seconds = _set_up(make)
        setups.append(setup_seconds)
        try:
            if corrupt:
                workload.corrupt_oracle()
            started = clock()
            count = 0
            while count < MIN_PASSES or clock() - started < seconds / SLICES:
                passes.append(workload.run_pass())
                count += 1
            rss = max(rss, workload.peak_rss_mb())
        finally:
            workload.close()

    rates = [p.work / p.wall for p in passes]
    medians = [1e3 * statistics.median(p.latencies) for p in passes]
    latencies = sorted(x for p in passes for x in p.latencies)
    if workload.aligned:
        rate = passes[0].work / best_time(passes)
        median = 1e3 * statistics.median(map(min, zip(*(p.latencies for p in passes))))
    else:
        rate, median = max(rates), min(medians)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    notes = [note for p in passes for note in p.notes][:5]
    deterministic = all(p.exact == passes[0].exact for p in passes)
    if not deterministic:
        notes.append(
            "exact counts differ between passes: "
            + "; ".join(str(p.exact) for p in passes)
        )
    metrics = {
        "setup_s": min(setups),
        "work_per_s": rate,
        "op_p50_ms": median,
        "peak_rss_mb": rss,
    }
    tail = 1e3 * percentile(latencies, workload.tail_pct)

    name = workload.name
    print(f"[{name}] untraced: {len(passes)} passes, {len(latencies)} operations")
    print(f"  setup_s      {metrics['setup_s']:.4f} s   ({noise(setups)})")
    print(
        f"  work_per_s   {metrics['work_per_s']:.6g} {workload.work_unit}/s"
        f"   = {workload.rate_alias}   (passes: {noise(rates)})"
    )
    print(
        f"  op_p50_ms    {metrics['op_p50_ms']:.4f} ms per {workload.op}"
        f"   (passes: {noise(medians)})"
    )
    print(
        f"  op_p{workload.tail_pct}_ms    {tail:.4f} ms over all passes, not bounded"
        f"   (min {1e3 * latencies[0]:.4f}  max {1e3 * latencies[-1]:.4f}"
        f"  n={len(latencies)})"
    )
    print(f"  peak_rss_mb  {rss:.2f} MB")
    for key, value in passes[0].exact.items():
        verdict = "identical in every pass" if deterministic else "DIFFERS"
        print(f"  {key} {value:d} (exact; {verdict})")
    print(f"  failed_frac  {failed}/{attempted} = {failed / attempted:.6g}")
    for note in notes:
        print(f"  ! {note}")
    return {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def measure_traced(
    make, seconds: float, declared: Dict[str, str], out: Optional[Path]
) -> dict:
    """The traced run: every per-layer metric of one workload.

    One untraced reference pass gives the wall the tracing overhead is
    taken against and the verdicts the replay must reproduce; then the
    workload replays its inputs through the public functions of each
    layer under a :class:`Recorder`, as often as ``seconds`` allows.
    Times are medians over traced passes; a count that differs between
    traced passes fails the run.  A span name is a layer: its self time
    becomes ``<layer>.busy_s`` where ``declared`` (name → unit) has it.
    """
    workload, _ = _set_up(make)
    recorder = Recorder()

    def busy_metrics(busy: Dict[str, float]) -> Dict[str, float]:
        return {
            layer + ".busy_s": seconds
            for layer, seconds in busy.items()
            if layer + ".busy_s" in declared
        }

    try:
        started = clock()
        reference = workload.run_pass()
        layers: Dict[str, float] = {
            key: value for key, value in reference.exact.items() if key in declared
        }
        layers.update(workload.trace_setup(recorder))
        layers.update(busy_metrics(recorder.busy()))
        traced: List[Dict[str, float]] = []
        while not traced or clock() - started < seconds:
            mark = recorder.mark()
            pass_started = clock()
            values = workload.trace_pass(recorder)
            wall = clock() - pass_started
            busy = recorder.busy(mark)
            values.update(busy_metrics(busy))
            values["trace.wall_s"] = wall
            values["trace.coverage_frac"] = sum(busy.values()) / wall
            values.setdefault("trace.overhead_frac", wall / reference.wall - 1.0)
            traced.append(values)
        counts = workload.trace_counts()
    finally:
        workload.close()

    attempted, failed = reference.attempted, reference.failed
    notes = list(reference.notes)
    for key in traced[0]:
        column = [values[key] for values in traced]
        if isinstance(column[0], int) and len(set(column)) > 1:
            failed += 1
            notes.append(f"{key} differs between traced passes: {column}")
        layers[key] = statistics.median(column)
    layers.update(counts)
    preconditions = workload.finish(layers)

    name = workload.name
    print(f"[{name}] traced: {len(traced)} passes, {len(recorder.spans)} spans")
    for key in sorted(layers):
        value = layers[key]
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"  {key} {shown} {declared[key]}")
    for line in preconditions:
        print(f"  precondition: {line}")
    for note in notes[:5]:
        print(f"  ! {note}")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        recorder.write(out / f"trace-{name}.jsonl", name)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": layers,
    }


def emit(result: dict, declared: Sequence[dict]) -> None:
    """Print the result line: one value per declared metric, by name.

    A traced run reports 0 for the layers its workload never enters —
    that a layer idles on a workload is itself the measurement.
    """
    names = {entry["name"] for entry in declared}
    unknown = sorted(set(result["metrics"]) - names)
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {
        entry["name"]: {
            "value": result["metrics"].get(entry["name"], 0),
            "unit": entry["unit"],
        }
        for entry in declared
    }
    print(json.dumps({**result, "metrics": metrics}))
