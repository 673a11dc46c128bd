"""The fault-tolerant scan supervisor and the report every scan returns.

The paper's hardware is explicitly fault-aware at the granularity of an
input chunk (engine-level load balancing tolerates imbalanced FIFOs,
§5); this module is the software analogue, isolating each shard of a
sharded scan:

* the supervisor **starts its own** ``jobs`` worker processes over an
  explicit ``multiprocessing`` context
  (:func:`~repro.engine.parallel.resolve_mp_context`), one pipe each;
  a worker that owes nothing is sent a **batch** of contiguous shards
  (at most :data:`BATCH_BYTES`) and answers one message per shard, in
  order — so the first shard a worker still owes is the one it runs;
* the parent blocks in :func:`multiprocessing.connection.wait` until an
  answer, an EOF, or the nearest **per-task timeout**
  (``Budget.max_task_seconds``, timed from when a shard reaches the
  head of its worker's queue) or **overall deadline**
  (``Budget.max_wall_seconds``);
* EOF on a worker's pipe is a **crash** of the shard it was running,
  and a head shard past its timeout is a **hang** of that shard: only
  that worker is replaced, and the shards it had not started go back
  to the queue without a strike;
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

import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Callable, Dict, List, Optional, Sequence

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

#: Most bytes of shards one batch carries to a worker (a shard larger
#: than this travels alone).
BATCH_BYTES = 64 * 1024


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
    supervision accounting (retry count, replaced workers, elapsed wall
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
def _counter_totals(registry) -> Dict[str, float]:
    """Counter values by family name (VM/sim counters are label-free)."""
    totals: Dict[str, float] = {}
    for instrument in registry.instruments():
        if instrument.kind == "counter":
            totals[instrument.name] = (
                totals.get(instrument.name, 0.0) + instrument.value
            )
    return totals


def _run_shard(match_fn: Callable, fault_plan, index: int, data: bytes):
    """One shard's ``(tag, value)``: worker-side exceptions become
    picklable typed errors, so the only ways a shard can fail to answer
    are a dead process or a hang, both of which the supervisor sees from
    outside."""
    try:
        if fault_plan is not None:
            fault_plan.fire(index)
        return "ok", bool(match_fn(data))
    except ReproError as error:
        return "error", error
    except Exception as error:  # plain bugs become typed shard failures
        return "error", ShardFailedError(
            index, type(error).__name__, str(error)
        )


def _worker_match_fn(payload: WorkerPayload, registry) -> Callable:
    """The worker's matcher, or — if it cannot be built — a function
    that fails every shard with a typed error, so the worker answers
    instead of dying and being replaced once per shard."""
    try:
        return build_match_fn(payload, registry).match
    except Exception as error:
        failure = WorkerStateError(
            f"supervised worker could not build its matcher: "
            f"{type(error).__name__}: {error}"
        )

        def fail(data: bytes) -> bool:
            raise failure

        return fail


def _serve(
    conn, payload: WorkerPayload, fault_plan: Optional[ProcessFaultPlan]
) -> None:
    """A worker's life: rebuild the matcher once, then answer every
    shard of every batch with one ``(tag, value, counters)`` message, in
    batch order, until the pipe closes.  ``counters`` is the shard's
    worker-local counter delta when the payload asks for them."""
    registry = None
    if payload.collect_vm_metrics:
        from ..observability import MetricsRegistry

        registry = MetricsRegistry()
    match_fn = _worker_match_fn(payload, registry)
    baseline: Dict[str, float] = {}
    while True:
        try:
            batch = conn.recv()
        except EOFError:
            return
        for index, data in batch:
            tag, value = _run_shard(match_fn, fault_plan, index, data)
            counters = None
            if registry is not None:
                # Failed work advances the baseline too: a retried
                # shard's counters are never double-counted.
                totals = _counter_totals(registry)
                if tag == "ok":
                    counters = {
                        name: total - baseline.get(name, 0.0)
                        for name, total in totals.items()
                        if total > baseline.get(name, 0.0)
                    } or None
                baseline = totals
            conn.send((tag, value, counters))


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
class _Worker:
    """One worker process, the parent's end of its pipe, and the shards
    it owes, in the order it answers them.  The first one owed is the
    one it is running, since ``head_started``."""

    def __init__(self, context, payload, fault_plan):
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=_serve, args=(child, payload, fault_plan), daemon=True
        )
        self.process.start()
        child.close()  # so the worker's death reads as EOF here
        self.owed: deque = deque()
        self.head_started = 0.0

    def stop(self) -> None:
        # terminate, not a polite close: a hung worker must die with
        # the run, never outlive it.
        self.process.terminate()
        self.process.join()
        self.conn.close()


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
        #: Runs per shard: a shard is charged when it reaches the head
        #: of a worker's queue, never when it is merely sent.  Every run
        #: but the last one failed, so this also counts the strikes.
        self.attempts = [0] * len(items)
        self.ready: deque = deque(range(len(items)))
        self.workers: List[_Worker] = []
        self.retries = 0
        self.respawns = 0

    # -- workers --------------------------------------------------------
    def _replace(self, slot: int) -> Optional[int]:
        """Stop the worker in ``slot`` and start a fresh one there.  The
        shards it owed but had not started go back to the front of the
        queue without a strike; the one it was running is returned."""
        worker = self.workers[slot]
        worker.stop()
        self.respawns += 1
        if self.tracer.enabled:
            self.tracer.event("supervisor.respawn", respawns=self.respawns)
        self.workers[slot] = _Worker(
            self.context, self.payload, self.fault_plan
        )
        if not worker.owed:
            return None
        running = worker.owed.popleft()
        self.ready.extendleft(reversed(worker.owed))
        return running

    def _send_batch(self, slot: int) -> None:
        """Hand an idle worker the next contiguous run of ready shards:
        at most :data:`BATCH_BYTES`, and at most its fair share of the
        queue, so a small scan still reaches every worker."""
        limit = -(-len(self.ready) // self.jobs)
        batch = [self.ready.popleft()]
        size = len(self.items[batch[0]])
        while self.ready and len(batch) < limit:
            index = self.ready[0]
            size += len(self.items[index])
            if index != batch[-1] + 1 or size > BATCH_BYTES:
                break
            batch.append(self.ready.popleft())
        worker = self.workers[slot]
        try:
            worker.conn.send([(index, self.items[index]) for index in batch])
        except OSError:  # it died owing nothing: no shard is struck
            self.ready.extendleft(reversed(batch))
            self._replace(slot)
            return
        worker.owed.extend(batch)
        self._start_head(worker)

    def _start_head(self, worker: _Worker) -> None:
        if worker.owed:
            self.attempts[worker.owed[0]] += 1
            worker.head_started = time.monotonic()

    # -- settlement -----------------------------------------------------
    def _settle(self, index: int, outcome: ShardOutcome) -> None:
        self.outcomes[index] = outcome
        self.unsettled -= 1

    def _fail(
        self, index: int, error: ReproError, *, timeout: bool = False
    ) -> None:
        """One definitive failed attempt on ``index``: retry or settle."""
        attempts = self.attempts[index]
        if not timeout and attempts <= self.max_retries:
            self.retries += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "supervisor.retry",
                    shard=index,
                    attempt=attempts,
                    error_code=error.code,
                )
            self.ready.append(index)
            return
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
                        attempts=self.attempts[index],
                    ),
                )

    # -- loop phases ----------------------------------------------------
    def _receive(self, slot: int) -> None:
        """Read one answer from the worker in ``slot``: the verdict of
        the shard it was running, or EOF — it died running that shard
        (or while owing nothing, which strikes no shard)."""
        worker = self.workers[slot]
        try:
            tag, value, counters = worker.conn.recv()
        except (EOFError, OSError):
            running = self._replace(slot)
            if running is not None:
                self._fail(running, WorkerCrashError(running))
            return
        index = worker.owed.popleft()
        self._start_head(worker)
        if tag == "ok":
            self._settle(
                index,
                ShardOutcome(
                    index,
                    "ok",
                    verdict=value,
                    attempts=self.attempts[index],
                    vm_counters=counters,
                ),
            )
        else:
            self._fail(index, value)

    def _wake_at(self, deadline: Optional[float]) -> Optional[float]:
        """The nearest task or wall deadline, ``None`` for none."""
        moments = [deadline] if deadline is not None else []
        if self.task_timeout is not None:
            moments.extend(
                worker.head_started + self.task_timeout
                for worker in self.workers
                if worker.owed
            )
        return min(moments, default=None)

    def _expire_hung(self) -> None:
        now = time.monotonic()
        for slot, worker in enumerate(self.workers):
            seconds = now - worker.head_started
            if worker.owed and seconds >= self.task_timeout:
                running = self._replace(slot)
                self._fail(
                    running,
                    TaskTimeoutError(running, seconds, self.task_timeout),
                    timeout=True,
                )

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
        try:
            for _ in range(self.jobs):
                self.workers.append(
                    _Worker(self.context, self.payload, self.fault_plan)
                )
            while self.unsettled:
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    self._settle_past_deadline(now - started)
                    break
                for slot, worker in enumerate(self.workers):
                    if self.ready and not worker.owed:
                        self._send_batch(slot)
                slots = {
                    worker.conn: slot
                    for slot, worker in enumerate(self.workers)
                }
                wake = self._wake_at(deadline)
                timeout = None if wake is None else wake - time.monotonic()
                for conn in wait(list(slots), timeout):
                    self._receive(slots[conn])
                if self.task_timeout is not None:
                    self._expire_hung()
        finally:
            for worker in self.workers:
                worker.stop()
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

    Workers rebuild their matcher from ``payload`` once each and answer
    batches of shards in order; a shard gets a timeout, crash
    attribution, ``retries`` immediate re-queues and then quarantine.
    ``fault_plan`` is the test hook injecting worker-process faults
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

    Used when the shard count cannot pay for worker processes; takes the
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
