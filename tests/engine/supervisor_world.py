"""Worker processes and a clock, simulated, for driving the supervisor's
pure core (:class:`repro.engine.supervisor.SupervisorCore`) in-process.

A :class:`World` holds one core and the model of everything the real
driver owns: which worker in each slot is alive (and the shards it has
received, in order), which one died and still has an unread EOF, and a
fake clock.  A worker runs the shards it received in order; the run of
the shard at the head of its queue ends in one of

* ``OK`` — it answers the shard's verdict;
* ``RAISE`` — it answers a typed error (the worker-side conversion of a
  ``RuntimeError``);
* ``CRASH`` — it dies, and the core reads EOF;
* no answer at all (a hang): only the clock can end it.

Time moves only when the clock jumps to the core's next deadline
(:meth:`SupervisorCore.wake_at`).  A live worker that owes nothing may
also die idle; its EOF is then a later event of its own, and a batch the
core sends it in between fails to send.

Every step checks the supervisor's invariants and raises
:class:`Violation`, carrying the event trace that led there, when one
breaks.  :func:`explore` walks every event order breadth-first;
:func:`play` walks one, for scenario tests.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine import ScanReport, ShardOutcome, supervisor
from repro.runtime.errors import (
    ShardQuarantinedError,
    TaskTimeoutError,
    WallClockBudgetError,
)

OK, RAISE, CRASH, HANG = "ok", "raise", "crash", "hang"

#: A slot's worker when it is not alive: stopped by the core (or not
#: started yet), or dead with its EOF not yet read.
STOPPED, DEAD = "stopped", "dead"

#: ``{shard: (kind, times)}``: the shard's runs end in ``kind`` (one of
#: ``RAISE``, ``CRASH``, ``HANG``) on every attempt (``times`` is
#: ``None``) or on the first ``times`` attempts, and in ``OK`` after.
Faults = Dict[int, Tuple[str, Optional[int]]]

#: How far the clock may move between two events when no deadline is
#: that near, so that deadlines of different workers fall apart.
PAUSE = 0.5


class Violation(AssertionError):
    """An invariant broke; the message ends with the event trace."""

    def __init__(self, message: str, trace: Sequence[str]):
        lines = [f"  {step}. {event}" for step, event in enumerate(trace, 1)]
        super().__init__("\n".join([message, "event trace:", *lines]))


class World:
    """One core and its simulated workers.  ``faults`` fixes how each
    shard's runs end; ``None`` lets every run end in any way a fault
    configuration could (the explorer's choice)."""

    def __init__(
        self,
        core: supervisor.SupervisorCore,
        verdicts: Sequence[bool],
        faults: Optional[Faults] = None,
        idle_deaths: int = 0,
    ):
        self.core = core
        self.verdicts = verdicts
        self.faults = faults
        self.idle_deaths = idle_deaths
        self.now = 0.0
        self.workers: list = [STOPPED] * core.jobs
        self.runs = [0] * len(verdicts)
        self.first: List[Optional[str]] = [None] * len(verdicts)
        self.settled: List[Optional[str]] = [None] * len(verdicts)
        self.trace: tuple = ()
        self._handle("begin", core.begin(self.now))

    # -- state ----------------------------------------------------------
    def key(self) -> tuple:
        """Everything the future depends on: the core's queue, what each
        worker owes and for how long, the time left to the wall
        deadline, each unsettled shard's attempts and runs, and the
        world's workers.  A settled shard is its status alone, and the
        retry and respawn counts, which decide nothing, are left out."""
        core = self.core
        shards = tuple(
            status or (core.attempts[index], self.runs[index],
                       self.first[index])
            for index, status in enumerate(self.settled)
        )
        running = tuple(
            (tuple(owed), started - self.now) if owed else ()
            for owed, started in zip(core.owed, core.head_started)
        )
        wall = core.wall_timeout
        return (
            tuple(core.ready), running, shards, tuple(self.workers),
            None if wall is None else core.started + wall - self.now,
            self.idle_deaths,
        )

    def clone(self) -> "World":
        twin = _copy(self)
        core = twin.core = _copy(self.core)
        core.ready = deque(core.ready)
        core.owed = [deque(owed) for owed in core.owed]
        core.attempts = list(core.attempts)
        core.head_started = list(core.head_started)
        core.outcomes = list(core.outcomes)
        for name in ("workers", "runs", "first", "settled"):
            setattr(twin, name, list(getattr(self, name)))
        return twin

    def render_trace(self) -> List[str]:
        events, link = [], self.trace
        while link:
            event, link = link
            events.append(event if isinstance(event, str)
                          else f"    -> {_describe(event)}")
        return events[::-1]

    # -- events ---------------------------------------------------------
    def endings(self, index: int) -> Tuple[str, ...]:
        """How the run of ``index`` that is starting may end."""
        if self.faults is not None:
            kind, times = self.faults.get(index, (OK, None))
            return (kind,) if times is None or self.runs[index] <= times else (OK,)
        if self.runs[index] == 1:
            return (OK, RAISE, CRASH)  # a hang is the clock event
        # A fault is persistent or hits the first attempt only.
        return tuple(dict.fromkeys((OK, self.first[index] or OK)))

    def events(self) -> List[tuple]:
        """Every event that can happen next, in a fixed order."""
        found = []
        for slot, worker in enumerate(self.workers):
            if worker == DEAD:
                found.append(("eof", slot))
            elif worker != STOPPED and worker:
                found.extend(
                    ("run", slot, ending)
                    for ending in self.endings(worker[0])
                    if ending != HANG
                )
        if self.idle_deaths:
            found.extend(
                ("die", slot)
                for slot, worker in enumerate(self.workers)
                if worker == ()
            )
        wake = self.core.wake_at()
        if wake is not None:
            if self.now + PAUSE < wake:
                found.append(("wait", self.now + PAUSE))
            found.append(("tick", wake))
        return found

    def step(self, event: tuple) -> None:
        kind, slot = event[0], event[1]
        core = self.core
        if kind == "run":
            ending = event[2]
            queue = self.workers[slot]
            index = queue[0]
            if self.first[index] is None:
                self.first[index] = ending
            label = f"t={self.now:g} worker {slot} runs shard {index}: {ending}"
            if ending == CRASH:
                self.workers[slot] = DEAD
                self._handle(label, core.eof(self.now, slot), ending=(index, CRASH))
                return
            self.workers[slot] = queue[1:]
            if queue[1:]:
                self.runs[queue[1]] += 1
            verdict = self.verdicts[index]

            def match(data):
                if ending == RAISE:
                    raise RuntimeError(f"injected worker fault: shard {index} raises")
                return verdict

            tag, value = supervisor._run_shard(match, index, b"")
            self._handle(
                label, core.answer(self.now, slot, tag, value, None),
                ending=(index, ending),
            )
        elif kind == "eof":
            self._handle(f"t={self.now:g} EOF from dead worker {slot}",
                         core.eof(self.now, slot))
        elif kind == "wait":
            self.now = slot
            self.trace = (f"t={self.now:g} time passes", self.trace)
        elif kind == "die":
            self.workers[slot] = DEAD
            self.idle_deaths -= 1
            self.trace = (f"t={self.now:g} idle worker {slot} dies", self.trace)
        else:
            self.now = slot
            self._handle(f"t={self.now:g} clock passes a deadline",
                         core.tick(self.now), tick=True)

    # -- actions and invariants -----------------------------------------
    def _handle(self, label, actions: list, ending=None, tick=False) -> None:
        self.trace = (label, self.trace)
        pending = deque(actions)
        timed_out = self.timed_out = []
        while pending:
            action = pending.popleft()
            self.trace = (action, self.trace)
            kind, slot = action[0], action[1]
            worker = self.workers[slot] if kind != "settle" else None
            if kind == "start":
                if worker != STOPPED:
                    self._fail(f"worker {slot} started over a running one")
                self.workers[slot] = ()
            elif kind == "stop":
                if worker == STOPPED:
                    self._fail(f"worker {slot} stopped twice")
                if tick and worker not in (DEAD, ()):
                    timed_out.append(worker[0])
                self.workers[slot] = STOPPED
            elif kind == "send":
                for index in action[2]:
                    if self.settled[index] is not None:
                        self._fail(f"settled shard {index} sent again")
                    if any(index in queue for queue in self.workers
                           if queue not in (STOPPED, DEAD)):
                        self._fail(f"shard {index} sent to two workers")
                if worker == DEAD:
                    pending.extend(self.core.send_failed(self.now, slot))
                elif worker == STOPPED:
                    self._fail(f"batch sent to stopped worker {slot}")
                else:
                    if not worker:  # its head starts running
                        self.runs[action[2][0]] += 1
                    self.workers[slot] = worker + tuple(action[2])
            else:
                self._check_settle(slot, action[2], ending, tick)
        for index in timed_out:
            if self.settled[index] != "timeout":
                self._fail(f"shard {index} timed out but was not settled: "
                           f"a timeout was retried")
        self._check_conservation()

    def _check_settle(self, index, outcome: ShardOutcome, ending, tick) -> None:
        if self.settled[index] is not None:
            self._fail(f"shard {index} settled twice")
        if outcome.index != index:
            self._fail(f"shard {index} settled with the outcome of "
                       f"{outcome.index}")
        if outcome.attempts != self.runs[index]:
            self._fail(f"shard {index} settled with {outcome.attempts} "
                       f"attempts after {self.runs[index]} runs: a shard "
                       f"that did not run was struck")
        if outcome.attempts > self.core.max_retries + 1:
            self._fail(f"shard {index} ran {outcome.attempts} times with "
                       f"retries={self.core.max_retries}")
        status = outcome.status
        if status == "ok":
            if ending != (index, OK) or outcome.verdict != self.verdicts[index]:
                self._fail(f"shard {index} settled ok without its verdict")
        elif status == "quarantined":
            if (ending not in ((index, RAISE), (index, CRASH)) or
                    outcome.attempts != self.core.max_retries + 1 or
                    not isinstance(outcome.error, ShardQuarantinedError)):
                self._fail(f"shard {index} quarantined before its last "
                           f"allowed attempt failed")
            code = outcome.error.last_error.code
            if code != {RAISE: "REPRO-SHARD-FAILED",
                        CRASH: "REPRO-WORKER-CRASH"}[ending[1]]:
                self._fail(f"shard {index} quarantined with {code}")
        elif status == "timeout":
            error = outcome.error
            if not tick or not (
                isinstance(error, WallClockBudgetError)
                or isinstance(error, TaskTimeoutError)
                and index in self.timed_out
            ):
                self._fail(f"shard {index} timed out without a deadline")
        else:
            self._fail(f"shard {index} settled {status!r} under supervision")
        self.settled[index] = status

    def _check_conservation(self) -> None:
        """While the run lasts, every unsettled shard is queued or owed
        exactly once, and nothing else is."""
        if self.core.done:
            return
        held = list(self.core.ready)
        for owed in self.core.owed:
            held.extend(owed)
        unsettled = [i for i, s in enumerate(self.settled) if s is None]
        if sorted(held) != unsettled:
            self._fail(f"unsettled shards {unsettled} but the core holds "
                       f"{sorted(held)}: a shard was lost or duplicated")

    def check_done(self) -> None:
        """A finished run: every shard settled once, and no event asks
        for an action any more."""
        if None in self.settled:
            self._fail("the core is done with unsettled shards")
        outcomes = self.core.outcomes
        if [outcome.status for outcome in outcomes] != self.settled:
            self._fail("the report disagrees with the settled outcomes")
        late = self.core.tick(self.now + 1e9) + self.core.eof(self.now, 0)
        if late:
            self._fail(f"actions after the run settled: {late}")

    def _fail(self, message: str) -> None:
        raise Violation(message, self.render_trace())


def _describe(action: tuple) -> str:
    if action[0] == "settle":
        outcome = action[2]
        return (f"settle shard {action[1]}: {outcome.status} "
                f"after {outcome.attempts} attempt(s)")
    if action[0] == "send":
        return f"send worker {action[1]} shards {list(action[2])}"
    return f"{action[0]} worker {action[1]}"


def _copy(instance):
    twin = object.__new__(type(instance))
    twin.__dict__.update(instance.__dict__)
    return twin


def explore(make_core, verdicts: Sequence[bool], idle_deaths: int = 1) -> int:
    """Walk every event order of one configuration breadth-first,
    deduplicating states by their :meth:`World.key`; returns the number
    of states.  Raises :class:`Violation` at the first broken invariant,
    at a state no event can leave before the run is done, and when the
    state graph has a cycle (a run that need not terminate)."""
    root = World(make_core(), verdicts, idle_deaths=idle_deaths)
    index = {root.key(): 0}
    edges: List[List[int]] = [[]]
    frontier = deque([(0, root)])
    while frontier:
        number, world = frontier.popleft()
        if world.core.done:
            world.check_done()
            continue
        events = world.events()
        if not events:
            world._fail("the run cannot finish: no event can happen")
        for event in events:
            child = world.clone()
            child.step(event)
            key = child.key()
            if key not in index:
                index[key] = len(edges)
                edges.append([])
                frontier.append((index[key], child))
            edges[number].append(index[key])
    _check_acyclic(edges)
    return len(edges)


def _check_acyclic(edges: List[List[int]]) -> None:
    indegree = [0] * len(edges)
    for targets in edges:
        for target in targets:
            indegree[target] += 1
    ready = [node for node, degree in enumerate(indegree) if not degree]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for target in edges[node]:
            indegree[target] -= 1
            if not indegree[target]:
                ready.append(target)
    if seen != len(edges):
        raise Violation("the state graph has a cycle: a run need not "
                        "terminate", [])


def play(
    pattern: str,
    texts: Sequence[str],
    faults: Faults,
    jobs: int = 2,
    retries: int = 2,
    task_timeout: Optional[float] = None,
    wall_timeout: Optional[float] = None,
) -> ScanReport:
    """One scan of ``texts`` through the core under ``faults``, on one
    event order: the lowest slot with an answer answers first, and the
    clock jumps only when no worker can answer."""
    items = [text.encode() for text in texts]
    core = supervisor.SupervisorCore(
        [len(data) for data in items], jobs, task_timeout, wall_timeout,
        retries,
    )
    world = World(core, [bool(re.search(pattern, text)) for text in texts],
                  faults)
    while not core.done:
        events = world.events()
        if not events:
            world._fail("the run cannot finish: no event can happen")
        world.step(events[0])
    world.check_done()
    return ScanReport.from_outcomes(
        list(core.outcomes), items, retries=core.retries,
        respawns=core.respawns, elapsed=world.now,
    )
