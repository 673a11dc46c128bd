"""Every event order of small supervised runs, explored on the pure core.

The supervisor's policy lives in
:class:`~repro.engine.supervisor.SupervisorCore`, which takes events and
returns actions, so it can be driven without a process or a real clock
(``supervisor_world.py`` simulates both).  The explorer walks, breadth
first and deduplicating states, every order in which answers, EOFs,
idle worker deaths and the clock passing deadlines can arrive, for
every configuration of

* 1 or 2 jobs, 1 to 4 shards and ``retries`` 0 or 1;
* any fault per shard — none, raise, crash or hang, persistent or on
  the first attempt only: the run of a shard may end in any of these
  ways, subject to that rule, so every fault assignment's event orders
  are among the explored ones;
* at most one worker dying idle;
* the wall deadline on or off (the task timeout is always on: without
  one, a hang is never settled, by design).

On every path it asserts that each shard settles exactly once, that a
shard's attempts are its runs and at most ``retries + 1``, that
timeouts are never retried, that batch mates which had not started go
back unstruck, that no action follows settlement, and that the run
terminates.  Four planted bugs show that each check can fail.
"""

import itertools
import multiprocessing
import time

import pytest

from repro.engine.supervisor import SupervisorCore, ShardOutcome
from repro.runtime.errors import WallClockBudgetError
from supervisor_world import Violation, explore

TASK_TIMEOUT = 1.0

#: ``(jobs, shards, retries, wall_timeout)``, smallest runs first, so a
#: planted bug is reported with the shortest trace that shows it.
CONFIGS = list(itertools.product((1, 2), (1, 2, 3, 4), (1, 0), (None, 1.5)))


def explore_all(core_class=SupervisorCore):
    states = 0
    for jobs, shards, retries, wall_timeout in CONFIGS:
        states += explore(
            lambda: core_class(
                [1] * shards, jobs, TASK_TIMEOUT, wall_timeout, retries
            ),
            [index % 2 == 0 for index in range(shards)],
        )
    return states


def test_every_event_order_keeps_the_invariants(monkeypatch):
    def no_process(self):
        raise AssertionError("the explorer started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        no_process)
    started = time.perf_counter()
    states = explore_all()
    seconds = time.perf_counter() - started
    print(f"\nexplored {states} states over {len(CONFIGS)} configurations "
          f"in {seconds:.2f}s")
    assert states > 10_000


# ----------------------------------------------------------------------
# Planted bugs: each one is caught, with the trace that shows it
# ----------------------------------------------------------------------
class DoubleSettle(SupervisorCore):
    """Settles every shard at the wall deadline, settled ones too."""

    def _settle_past_deadline(self, elapsed):
        for index in range(len(self.outcomes)):
            self._settle(ShardOutcome(
                index, "timeout",
                error=WallClockBudgetError(index, elapsed, self.wall_timeout),
                attempts=self.attempts[index],
            ))


class LostShard(SupervisorCore):
    """Forgets the shards a replaced worker had not started."""

    def _replace(self, slot):
        self._actions += [("stop", slot), ("start", slot)]
        self.respawns += 1
        owed = self.owed[slot]
        running = owed.popleft() if owed else None
        owed.clear()
        return running


class StruckBatchMate(SupervisorCore):
    """Charges an attempt to the shards a replaced worker had not
    started."""

    def _replace(self, slot):
        for index in list(self.owed[slot])[1:]:
            self.attempts[index] += 1
        return super()._replace(slot)


class RetriedTimeout(SupervisorCore):
    """Treats a timeout like any other failure."""

    def _fail(self, index, error, *, timeout=False):
        super()._fail(index, error)


@pytest.mark.parametrize("core_class, message", [
    (DoubleSettle, "settled twice"),
    (LostShard, "a shard was lost"),
    (StruckBatchMate, "a shard that did not run was struck"),
    (RetriedTimeout, "a timeout was retried"),
])
def test_a_planted_bug_is_caught_with_its_trace(core_class, message):
    with pytest.raises(Violation, match=message) as caught:
        explore_all(core_class)
    print(f"\n{core_class.__name__}: {caught.value}")
    assert "event trace:" in str(caught.value)
