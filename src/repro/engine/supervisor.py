"""The fault-tolerant scan supervisor and the report every scan returns.

The paper's hardware is explicitly fault-aware at the granularity of an
input chunk (engine-level load balancing tolerates imbalanced FIFOs,
§5); this module is the software analogue, isolating each shard of a
sharded scan:

* shards are dispatched as **individual futures** over an explicit
  ``multiprocessing`` context (:func:`~repro.engine.parallel.resolve_mp_context`);
* a **per-task timeout** (``Budget.max_task_seconds``) and an **overall
  deadline** (``Budget.max_wall_seconds``) bound every wait — a hung
  worker is reclaimed by terminating and respawning the pool;
* **dead workers are detected** (``os._exit``, OOM kill) by watching the
  pool's process table; in-flight shards are re-dispatched, and when
  several were in flight the supervisor *probes* them one at a time so
  a single poisonous input cannot take innocent shards down with it;
* a failed shard is **re-queued** up to ``retries`` times, then
  **quarantined** with a typed per-shard error instead of aborting the
  run.  Timeouts are terminal: retrying a deterministic hang burns
  ``max_task_seconds`` of wall clock per attempt.

Every shard ends in exactly one :class:`ShardOutcome` with status
``ok | error | timeout | quarantined``; the safety property (proven by
the process-fault-injection suite) is that an injected worker fault is
either retried to success, quarantined with a typed error, or converted
to a typed timeout — **never a hang, never a silently dropped verdict**.
Both the supervisor and the in-process path (:func:`run_in_process`)
fold their outcomes into the :class:`ScanReport` the engine returns.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..arch.simulator import DEFAULT_CHUNK_BYTES
from ..runtime.errors import (
    ReproError,
    ShardFailedError,
    ShardQuarantinedError,
    TaskTimeoutError,
    WallClockBudgetError,
    WorkerCrashError,
    WorkerStateError,
)
from ..runtime.faults import ProcessFaultPlan
from .parallel import WorkerPayload, build_match_fn, resolve_mp_context

#: The four ways a shard can settle.
OUTCOME_STATUSES = ("ok", "error", "timeout", "quarantined")

#: Retries per failed shard before quarantine (``Engine(retries=)``).
DEFAULT_RETRIES = 2

#: Fallback poll granularity.  Shard completions wake the supervisor
#: immediately (via result callbacks); this interval only bounds the
#: detection lag for hangs, crashes and deadlines.
POLL_SECONDS = 0.005


# ----------------------------------------------------------------------
# Outcomes and reports
# ----------------------------------------------------------------------
@dataclass
class ShardOutcome:
    """How one shard settled: its verdict, or a typed error.

    ``vm_counters`` carries the worker-local counter deltas (e.g.
    ``repro_vm_steps_total``) attributed to this shard's successful
    attempt, when the payload asked for collection
    (:attr:`~repro.engine.parallel.WorkerPayload.collect_vm_metrics`);
    the engine merges them back into the parent registry.  Failed
    attempts drop their deltas — retried work is never double-counted.
    """

    index: int
    status: str
    verdict: Optional[bool] = None
    error: Optional[ReproError] = None
    attempts: int = 1
    vm_counters: Optional[Dict[str, float]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        payload = {
            "index": self.index,
            "status": self.status,
            "verdict": self.verdict,
            "error": None if self.error is None else self.error.to_dict(),
            "attempts": self.attempts,
        }
        # Present only when worker metrics collection was opted in, so
        # the serialized shape is unchanged for ordinary scans.
        if self.vm_counters is not None:
            payload["vm_counters"] = self.vm_counters
        return payload


@dataclass
class CorpusScanResult:
    """Outcome of one strict :meth:`~repro.engine.Engine.scan_corpus` call."""

    matched: bool
    chunk_matches: List[Optional[bool]] = field(default_factory=list)
    bytes_scanned: int = 0
    chunk_bytes: int = DEFAULT_CHUNK_BYTES

    @property
    def chunks(self) -> int:
        return len(self.chunk_matches)

    @property
    def matched_chunks(self) -> int:
        return sum(1 for match in self.chunk_matches if match)

    def __bool__(self) -> bool:
        return self.matched


@dataclass
class ScanReport(CorpusScanResult):
    """A :class:`CorpusScanResult` that survives shard failures.

    Every scan produces one: every shard settles in exactly one
    :class:`ShardOutcome` (``ok | error | timeout | quarantined``),
    ``chunk_matches`` holds ``None`` at failed indices, and the
    supervision accounting (retry count, pool respawns, elapsed wall
    time) is attached for observability.
    """

    outcomes: List[ShardOutcome] = field(default_factory=list)
    retries: int = 0
    respawns: int = 0
    elapsed: float = 0.0

    @classmethod
    def from_outcomes(
        cls,
        outcomes: List[ShardOutcome],
        items: Sequence[bytes],
        retries: int = 0,
        respawns: int = 0,
        elapsed: float = 0.0,
    ) -> "ScanReport":
        """The report over ``items`` once every shard has its outcome."""
        verdicts = [outcome.verdict for outcome in outcomes]
        return cls(
            matched=any(verdicts),
            chunk_matches=verdicts,
            bytes_scanned=sum(len(data) for data in items),
            chunk_bytes=0,
            outcomes=outcomes,
            retries=retries,
            respawns=respawns,
            elapsed=elapsed,
        )

    @property
    def failed_chunks(self) -> int:
        return len(self.errors())

    @property
    def quarantined(self) -> int:
        return sum(
            1 for outcome in self.outcomes if outcome.status == "quarantined"
        )

    @property
    def complete(self) -> bool:
        """Did every shard produce a verdict?"""
        return self.failed_chunks == 0

    def errors(self) -> List[ShardOutcome]:
        """The failed outcomes, in shard order."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def raise_first_error(self) -> None:
        """Strict mode: re-raise the first failed shard's typed error."""
        for outcome in self.outcomes:
            if not outcome.ok:
                raise outcome.error


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
# (match_fn, fault_plan, registry), installed per worker by the pool
# initializer; registry is the worker-local counter sink (or None).
_SUPERVISED_STATE: Optional[Tuple[Optional[Callable], object, object]] = None
# Cumulative counter totals already attributed to earlier shards in this
# worker, so each shard ships only its own delta.
_COUNTER_BASELINE: Dict[str, float] = {}


def _init_supervised_worker(
    payload: WorkerPayload, fault_plan: Optional[ProcessFaultPlan]
) -> None:
    global _SUPERVISED_STATE
    registry = None
    if payload.collect_vm_metrics:
        from ..observability import MetricsRegistry

        registry = MetricsRegistry()
    try:
        match_fn: Optional[Callable] = build_match_fn(payload, registry).match
    except Exception:
        # A failing initializer would make the pool retry it forever;
        # leave the state poisoned and let every task report it instead.
        match_fn = None
    _SUPERVISED_STATE = (match_fn, fault_plan, registry)
    _COUNTER_BASELINE.clear()


def _counter_totals(registry) -> Dict[str, float]:
    """Counter values by family name (VM/sim counters are label-free)."""
    totals: Dict[str, float] = {}
    for instrument in registry.instruments():
        if instrument.kind == "counter":
            totals[instrument.name] = (
                totals.get(instrument.name, 0.0) + instrument.value
            )
    return totals


def _counter_delta(registry) -> Optional[Dict[str, float]]:
    """This shard's counter increments since the previous snapshot."""
    if registry is None:
        return None
    totals = _counter_totals(registry)
    delta = {
        name: value - _COUNTER_BASELINE.get(name, 0.0)
        for name, value in totals.items()
        if value - _COUNTER_BASELINE.get(name, 0.0) > 0.0
    }
    _COUNTER_BASELINE.clear()
    _COUNTER_BASELINE.update(totals)
    return delta or None


def _run_shard(task: Tuple[int, bytes]) -> Tuple[int, str, object, object]:
    """One shard, executed in a worker.  Always *returns* a tagged tuple
    — worker-side exceptions are converted to picklable typed errors, so
    the only ways a future can fail to resolve are a dead process or a
    hang, both of which the supervisor detects from outside.  The fourth
    element is the shard's worker-local counter delta (or ``None``)."""
    index, data = task
    state = _SUPERVISED_STATE
    if state is None or state[0] is None:
        return (
            index,
            "error",
            WorkerStateError(
                "supervised worker used before its initializer installed "
                "a matcher"
            ),
            None,
        )
    match_fn, fault_plan, registry = state
    try:
        if fault_plan is not None:
            fault_plan.fire(index)
        verdict = bool(match_fn(data))
        return (index, "ok", verdict, _counter_delta(registry))
    except ReproError as error:
        _counter_delta(registry)  # advance the baseline past failed work
        return (index, "error", error, None)
    except Exception as error:  # plain bugs become typed shard failures
        _counter_delta(registry)
        return (
            index,
            "error",
            ShardFailedError(index, type(error).__name__, str(error)),
            None,
        )


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
@dataclass
class _InFlight:
    result: object  # multiprocessing.pool.AsyncResult
    dispatched_at: float


def _live_pids(pool) -> set:
    workers = getattr(pool, "_pool", None) or []
    return {proc.pid for proc in workers if proc.is_alive()}


class _Supervisor:
    """One supervised run over one payload and one item list."""

    def __init__(
        self,
        payload: WorkerPayload,
        items: Sequence[bytes],
        jobs: int,
        task_timeout: Optional[float],
        wall_timeout: Optional[float],
        retries: int,
        mp_context: Optional[str],
        fault_plan: Optional[ProcessFaultPlan],
        tracer=None,
    ):
        from ..observability import as_tracer

        self.tracer = as_tracer(tracer)
        self.payload = payload
        self.items = items
        self.jobs = max(1, min(jobs, len(items)))
        self.task_timeout = task_timeout
        self.wall_timeout = wall_timeout
        self.max_retries = retries
        self.fault_plan = fault_plan

        self.context = resolve_mp_context(mp_context)
        self.outcomes: List[Optional[ShardOutcome]] = [None] * len(items)
        self.unsettled = len(items)
        self.dispatches = [0] * len(items)
        self.strikes = [0] * len(items)
        self.ready: deque = deque(range(len(items)))
        self.pending: Dict[int, _InFlight] = {}
        #: Indices being re-probed one at a time after a pool crash.
        self.probing: set = set()
        self.known_pids: set = set()
        self.retries = 0
        self.respawns = 0
        self.pool = None
        #: Set by result callbacks the moment any shard completes, so
        #: the loop blocks on this instead of a fixed-interval sleep —
        #: supervision latency is event-driven, not poll-bound.
        self.wake = threading.Event()

    # -- pool lifecycle -------------------------------------------------
    def _spawn_pool(self) -> None:
        self.pool = self.context.Pool(
            processes=self.jobs,
            initializer=_init_supervised_worker,
            initargs=(self.payload, self.fault_plan),
        )
        self.known_pids = _live_pids(self.pool)

    def _respawn_pool(self) -> None:
        self.respawns += 1
        if self.tracer.enabled:
            self.tracer.event("supervisor.respawn", respawns=self.respawns)
        self.pool.terminate()
        self.pool.join()
        self._spawn_pool()

    # -- settlement -----------------------------------------------------
    def _settle(self, index: int, outcome: ShardOutcome) -> None:
        if self.outcomes[index] is not None:
            return
        self.outcomes[index] = outcome
        self.unsettled -= 1
        self.probing.discard(index)

    def _fail(
        self, index: int, error: ReproError, *, timeout: bool = False
    ) -> None:
        """One definitive failed attempt on ``index``: retry or settle."""
        self.strikes[index] += 1
        if not timeout and self.strikes[index] <= self.max_retries:
            self.retries += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "supervisor.retry",
                    shard=index,
                    attempt=self.strikes[index],
                    error_code=error.code,
                )
            self.ready.append(index)
            return
        attempts = self.dispatches[index]
        if timeout:
            if self.tracer.enabled:
                self.tracer.event(
                    "supervisor.timeout", shard=index, attempts=attempts
                )
            self._settle(
                index,
                ShardOutcome(index, "timeout", error=error, attempts=attempts),
            )
        else:
            if self.tracer.enabled:
                self.tracer.event(
                    "supervisor.quarantine",
                    shard=index,
                    attempts=attempts,
                    error_code=error.code,
                )
            self._settle(
                index,
                ShardOutcome(
                    index,
                    "quarantined",
                    error=ShardQuarantinedError(index, attempts, error),
                    attempts=attempts,
                ),
            )

    def _settle_past_deadline(self, elapsed: float) -> None:
        for index in range(len(self.items)):
            if self.outcomes[index] is None:
                self._settle(
                    index,
                    ShardOutcome(
                        index,
                        "timeout",
                        error=WallClockBudgetError(
                            index, elapsed, self.wall_timeout
                        ),
                        attempts=self.dispatches[index],
                    ),
                )

    # -- loop phases ----------------------------------------------------
    def _collect_finished(self) -> bool:
        progressed = False
        for index, flight in list(self.pending.items()):
            if not flight.result.ready():
                continue
            del self.pending[index]
            progressed = True
            try:
                _, tag, value, counters = flight.result.get()
            except Exception as error:  # result transport failed
                self._fail(
                    index,
                    ShardFailedError(index, type(error).__name__, str(error)),
                )
                continue
            if tag == "ok":
                self._settle(
                    index,
                    ShardOutcome(
                        index,
                        "ok",
                        verdict=value,
                        attempts=self.dispatches[index],
                        vm_counters=counters,
                    ),
                )
            else:
                self._fail(index, value)
        return progressed

    def _check_crashes(self) -> bool:
        live = _live_pids(self.pool)
        died = self.known_pids - live
        self.known_pids = self.known_pids | live
        if not died or not self.pending:
            if died:
                # Workers died with nothing in flight (e.g. during
                # initializer); refresh the baseline and move on.
                self.known_pids = live
            return False
        in_flight = sorted(self.pending)
        self._respawn_pool()
        self.pending.clear()
        if len(in_flight) == 1:
            # Exactly one suspect: it is definitively the crasher.
            self._fail(in_flight[0], WorkerCrashError(in_flight[0]))
        else:
            # Ambiguous: probe the suspects one at a time so the poison
            # shard cannot strike out innocent neighbours.
            self.probing.update(in_flight)
            for index in reversed(in_flight):
                self.ready.appendleft(index)
        return True

    def _check_task_timeouts(self, now: float) -> bool:
        if self.task_timeout is None or not self.pending:
            return False
        expired = [
            (index, flight)
            for index, flight in self.pending.items()
            if now - flight.dispatched_at > self.task_timeout
        ]
        if not expired:
            return False
        # A hung worker cannot be interrupted in place: reclaim the whole
        # pool, then requeue the innocent in-flight shards uncounted.
        innocents = [
            index
            for index in sorted(self.pending)
            if index not in {index for index, _ in expired}
        ]
        self._respawn_pool()
        self.pending.clear()
        for index, flight in expired:
            self._fail(
                index,
                TaskTimeoutError(
                    index, now - flight.dispatched_at, self.task_timeout
                ),
                timeout=True,
            )
        for index in reversed(innocents):
            self.ready.appendleft(index)
        return True

    def _dispatch(self, now: float) -> bool:
        # While probing crash suspects the window narrows to one shard,
        # so a repeat crash unambiguously identifies the poison input.
        window = 1 if self.probing else self.jobs * 2
        progressed = False
        while self.ready and len(self.pending) < window:
            if self.probing:
                # Probe suspects before fresh work.
                index = None
                for candidate in self.ready:
                    if candidate in self.probing:
                        index = candidate
                        break
                if index is None:
                    index = self.ready[0]
                self.ready.remove(index)
            else:
                index = self.ready.popleft()
            if self.outcomes[index] is not None:
                continue
            self.dispatches[index] += 1
            self.pending[index] = _InFlight(
                self.pool.apply_async(
                    _run_shard,
                    ((index, self.items[index]),),
                    callback=self._on_result,
                    error_callback=self._on_result,
                ),
                now,
            )
            progressed = True
        return progressed

    def _on_result(self, _result) -> None:
        # Runs on the pool's result-handler thread; Event.set is the
        # only safe thing to do here.  Stale callbacks from a pool that
        # was respawned since are harmless — one spurious wake-up.
        self.wake.set()

    # -- main -----------------------------------------------------------
    def run(self) -> ScanReport:
        if self.tracer.enabled:
            with self.tracer.span(
                "supervisor.run", shards=len(self.items), jobs=self.jobs
            ) as span:
                report = self._run()
                span.set(
                    retries=report.retries,
                    respawns=report.respawns,
                    failed=report.failed_chunks,
                    quarantined=report.quarantined,
                )
                return report
        return self._run()

    def _run(self) -> ScanReport:
        started = time.monotonic()
        deadline = (
            started + self.wall_timeout
            if self.wall_timeout is not None
            else None
        )
        self._spawn_pool()
        try:
            while self.unsettled:
                now = time.monotonic()
                if deadline is not None and now > deadline:
                    self._settle_past_deadline(now - started)
                    break
                progressed = self._collect_finished()
                progressed |= self._check_crashes()
                progressed |= self._check_task_timeouts(time.monotonic())
                progressed |= self._dispatch(time.monotonic())
                if not progressed:
                    # Wake immediately on any shard completion; the
                    # timeout keeps hang/crash/deadline detection live.
                    self.wake.wait(POLL_SECONDS)
                    self.wake.clear()
        finally:
            # terminate (not close): hung workers must die with the run,
            # never outlive it.
            self.pool.terminate()
            self.pool.join()
        return ScanReport.from_outcomes(
            list(self.outcomes),
            self.items,
            retries=self.retries,
            respawns=self.respawns,
            elapsed=time.monotonic() - started,
        )


def supervised_matches(
    payload: WorkerPayload,
    items: Sequence[bytes],
    jobs: int,
    task_timeout: Optional[float] = None,
    wall_timeout: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
    mp_context: Optional[str] = None,
    fault_plan: Optional[ProcessFaultPlan] = None,
    tracer=None,
) -> ScanReport:
    """Match every item under supervision; every item gets an outcome.

    Workers rebuild their matcher from ``payload`` once each; shards run
    as per-shard futures with timeouts, crash recovery, ``retries``
    immediate re-queues and then quarantine.  ``fault_plan`` is the test
    hook injecting worker-process faults
    (:class:`~repro.runtime.faults.ProcessFaultPlan`).  ``tracer``
    records a ``supervisor.run`` span carrying retry / timeout /
    quarantine / respawn events.
    """
    if not items:
        return ScanReport.from_outcomes([], items)
    supervisor = _Supervisor(
        payload,
        items,
        jobs,
        task_timeout,
        wall_timeout,
        retries,
        mp_context,
        fault_plan,
        tracer=tracer,
    )
    return supervisor.run()


def run_in_process(
    match_fn: Callable[[bytes], object],
    items: Sequence[bytes],
) -> ScanReport:
    """The in-process analogue of :func:`supervised_matches`.

    Used when the shard count cannot pay for a pool; takes the
    ready-built ``match_fn`` (the engine's cached matcher's) so the
    serial fast path stays free of matcher-rebuild cost.  Worker-process
    failure modes (crashes, hangs) do not exist here, so the outcome
    taxonomy collapses to ``ok`` | ``error`` — but typed per-item errors
    are still isolated instead of aborting the batch.
    """
    outcomes = []
    for index, data in enumerate(items):
        try:
            outcomes.append(
                ShardOutcome(index, "ok", verdict=bool(match_fn(data)))
            )
        except ReproError as error:
            outcomes.append(ShardOutcome(index, "error", error=error))
    return ScanReport.from_outcomes(outcomes, items)


__all__ = [
    "CorpusScanResult",
    "DEFAULT_RETRIES",
    "OUTCOME_STATUSES",
    "ScanReport",
    "ShardOutcome",
    "run_in_process",
    "supervised_matches",
]
