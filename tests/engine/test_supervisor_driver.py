"""The supervisor's driver over fake pipes: what it reads per wake-up.

``_Supervisor`` owns the processes, one selector and the clock; here
the worker processes and the selector are replaced by in-memory fakes,
so the order of its reads, selects and core events is observable.
"""

import selectors
from collections import deque

from repro.engine import supervisor
from repro.engine.supervisor import SupervisorCore, _Supervisor


class FakeConn:
    """A worker's pipe: a sent batch queues one ``ok`` answer per shard."""

    def __init__(self):
        self.answers = deque()
        self.closed = False

    def send(self, batch):
        for index, _ in batch:
            self.answers.append(("ok", index % 2 == 0, None))

    def recv(self):
        if not self.answers:
            raise EOFError
        return self.answers.popleft()

    def poll(self, timeout=0.0):
        return bool(self.answers)

    def close(self):
        self.closed = True


class FakeWorker:
    def __init__(self, context, payload):
        self.conn = FakeConn()

    def stop(self):
        self.conn.close()


class FakeSelector:
    """Reports each pipe with a queued answer as one readable event."""

    def __init__(self, log):
        self.log = log
        self.keys = {}

    def register(self, conn, events, data):
        self.keys[conn] = selectors.SelectorKey(conn, 0, events, data)

    def unregister(self, conn):
        del self.keys[conn]

    def select(self, timeout=None):
        self.log.append("select")
        return [
            (key, selectors.EVENT_READ)
            for conn, key in self.keys.items()
            if conn.answers
        ]

    def close(self):
        pass


def test_one_wake_up_reads_every_queued_answer(monkeypatch):
    """One readable event stands for three queued answers: all three reach
    the core before the driver selects again."""
    monkeypatch.setattr(supervisor, "_Worker", FakeWorker)
    items = [b"a", b"b", b"c"]
    core = SupervisorCore(
        [len(item) for item in items],
        jobs=1,
        task_timeout=None,
        wall_timeout=None,
        retries=0,
    )
    log = []
    answer = core.answer

    def logged_answer(*args):
        log.append("answer")
        return answer(*args)

    monkeypatch.setattr(core, "answer", logged_answer)
    driver = _Supervisor(None, items, core, mp_context=None)
    driver.selector.close()
    driver.selector = FakeSelector(log)
    report = driver.run()
    assert log == ["select", "answer", "answer", "answer"]
    assert [outcome.status for outcome in report.outcomes] == ["ok"] * 3
    assert [outcome.verdict for outcome in report.outcomes] == [True, False, True]
