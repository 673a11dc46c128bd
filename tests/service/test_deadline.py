"""The connection's one deadline (``http.Deadline``) and what the
service answers when each of its bounds runs out; over-limit head lines;
the JSON-lines diagnostics.
"""

import asyncio
import io
import json
import time

import pytest

from repro.service import MatchService, ServiceConfig
from repro.service.http import HEAD, REQUEST, Deadline
from service_helpers import RawConnection, fetch, parse_metrics


def run(coro):
    return asyncio.run(coro)


def count_timers(loop, owner):
    """Count the timers ``owner`` schedules from now on."""
    timers = []
    call_at = loop.call_at

    def spy(when, callback, *args, **kwargs):
        if getattr(callback, "__self__", None) is owner:
            timers.append(when)
        return call_at(when, callback, *args, **kwargs)

    loop.call_at = spy
    return timers


async def expiry_of(deadline, bound):
    """Wait to be cancelled; ``loop.time()`` when ``bound`` expired."""
    try:
        await asyncio.sleep(10.0)
    except asyncio.CancelledError:
        assert deadline.take(bound)
        return asyncio.get_running_loop().time()
    raise AssertionError("the deadline never fired")


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
def test_a_deadline_moved_later_never_fires_early():
    async def scenario():
        loop = asyncio.get_running_loop()
        deadline = Deadline()
        timers = count_timers(loop, deadline)
        deadline.move(HEAD, 0.05)
        await asyncio.sleep(0.02)
        due = loop.time() + 0.2
        deadline.move(HEAD, 0.2)
        assert len(timers) == 1  # moving later only stored the time
        fired = await expiry_of(deadline, HEAD)
        assert fired >= due - 1e-3
        assert fired < due + 1.0
        # The timer armed for 0.05 re-armed itself once, at the new time.
        assert len(timers) == 2
        deadline.close()

    run(scenario())


def test_a_deadline_moved_earlier_fires_at_the_new_time():
    async def scenario():
        loop = asyncio.get_running_loop()
        deadline = Deadline()
        deadline.move(HEAD, 5.0)
        due = loop.time() + 0.05
        deadline.move(HEAD, 0.05)
        fired = await expiry_of(deadline, HEAD)
        assert due - 1e-3 <= fired < due + 1.0
        deadline.close()

    run(scenario())


def test_the_earlier_of_phase_and_request_bound_decides():
    async def scenario():
        deadline = Deadline()
        deadline.move(HEAD, 5.0)
        deadline.limit(0.05)
        await expiry_of(deadline, REQUEST)
        deadline.unlimit()
        deadline.move(HEAD, 0.05)
        deadline.limit(5.0)
        await expiry_of(deadline, HEAD)
        deadline.close()

    run(scenario())


def test_a_cleared_bound_never_fires():
    async def scenario():
        deadline = Deadline()
        deadline.move(HEAD, 0.02)
        deadline.clear()
        deadline.limit(0.02)
        deadline.unlimit()
        await asyncio.sleep(0.1)  # the armed timer fires and finds nothing
        deadline.close()

    run(scenario())


def test_own_expiry_and_an_outside_cancel_are_told_apart():
    async def bounded(bound_seconds):
        deadline = Deadline()
        deadline.move(HEAD, bound_seconds)
        try:
            await asyncio.sleep(10.0)
        except asyncio.CancelledError:
            if deadline.take(HEAD):
                return "expired"
            raise
        finally:
            deadline.close()

    async def scenario():
        task = asyncio.ensure_future(bounded(0.05))
        assert await task == "expired"
        assert not task.cancelled()
        if hasattr(task, "cancelling"):
            assert task.cancelling() == 0  # the expiry's cancel taken back

        task = asyncio.ensure_future(bounded(5.0))
        await asyncio.sleep(0.01)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    run(scenario())


@pytest.mark.skipif(
    not hasattr(asyncio.Task, "uncancel"),
    reason="before Python 3.11 a task does not count its cancellations",
)
def test_an_outside_cancel_with_the_expiry_goes_on_up():
    async def scenario():
        loop = asyncio.get_running_loop()
        outcome = []

        async def bounded():
            deadline = Deadline()
            deadline.move(HEAD, 0.01)
            # Another cancel lands just after the expiry, in the same loop
            # iteration (the loop is blocked past both).
            loop.call_at(loop.time() + 0.02, asyncio.current_task().cancel)
            time.sleep(0.05)
            try:
                await asyncio.sleep(10.0)
            except asyncio.CancelledError:
                outcome.append(deadline.take(HEAD))
                raise
            finally:
                deadline.close()

        task = asyncio.ensure_future(bounded())
        with pytest.raises(asyncio.CancelledError):
            await task
        assert outcome == [False]

    run(scenario())


# ----------------------------------------------------------------------
# What the service answers
# ----------------------------------------------------------------------
async def stalled_body(service, headers=()):
    conn = await RawConnection(service.host, service.port).open()
    await conn.send_head(
        "POST", "/match", headers=headers, content_length=50)
    await conn.send(b'{"pat')  # then stall
    response = await conn.read_response(timeout=5.0)
    await conn.close()
    return response


def test_stalled_body_past_the_request_bound_gets_504():
    async def scenario():
        service = MatchService(ServiceConfig(port=0))
        await service.start()
        try:
            status, headers, body = await stalled_body(
                service, [("X-Repro-Deadline", "0.05")])
            assert status == 504
            assert headers["connection"] == "close"
            assert json.loads(body)["error"]["code"] == \
                "REPRO-BUDGET-REQUEST-DEADLINE"
        finally:
            await service.drain("test")

    run(scenario())


def test_stalled_body_past_the_body_bound_gets_408():
    async def scenario():
        service = MatchService(ServiceConfig(port=0, header_seconds=0.05))
        await service.start()
        try:
            status, headers, _ = await stalled_body(service)
            assert status == 408
            assert headers["connection"] == "close"
        finally:
            await service.drain("test")

    run(scenario())


# ----------------------------------------------------------------------
# Head lines past the stream reader's 64 KiB line limit
# ----------------------------------------------------------------------
LONG = 70 * 1024


@pytest.mark.parametrize("head", [
    b"GET /" + b"a" * LONG + b" HTTP/1.1\r\nHost: x\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * LONG + b"\r\n\r\n",
], ids=["request-line", "header-line"])
def test_an_over_limit_head_line_gets_400(head):
    async def scenario():
        log = io.StringIO()
        service = MatchService(ServiceConfig(port=0), log=log)
        await service.start()
        try:
            host, port = service.host, service.port
            conn = await RawConnection(host, port).open()
            await conn.send(head)
            status, headers, body = await conn.read_response(timeout=5.0)
            assert status == 400
            assert headers["connection"] == "close"
            assert "too long" in json.loads(body)["error"]["message"]
            await conn.close()
            _, _, text = await fetch(host, port, "GET", "/metrics")
            samples = parse_metrics(text.decode())
            assert samples[
                'repro_service_requests_total'
                '{endpoint="protocol",status="400"}'] == 1.0
        finally:
            await service.drain("test")
        assert log.getvalue() == ""

    run(scenario())


def test_an_over_limit_chunk_size_line_gets_400():
    async def scenario():
        log = io.StringIO()
        service = MatchService(ServiceConfig(port=0), log=log)
        await service.start()
        try:
            conn = await RawConnection(service.host, service.port).open()
            await conn.send(
                b"POST /stream HTTP/1.1\r\nX-Repro-Pattern: ab\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n" + b"1" * LONG + b"\r\n")
            status, headers, body = await conn.read_response(timeout=5.0)
            assert status == 400
            assert headers["connection"] == "close"
            assert json.loads(body)["error"]["message"] == \
                "chunk line too long"
            await conn.close()
        finally:
            await service.drain("test")
        assert log.getvalue() == ""

    run(scenario())


# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------
def test_diagnostics_are_json_lines(tmp_path):
    async def scenario(log):
        service = MatchService(
            ServiceConfig(port=0, stats_file=str(tmp_path / "no" / "s.json")),
            log=log,
        )
        await service.start()
        host, port = service.host, service.port

        async def broken_match(payload):
            raise RuntimeError("boom")

        service._handle_match = broken_match
        status, _, body = await fetch(
            host, port, "POST", "/match", b'{"pattern": "a", "text": "a"}')
        assert status == 500
        assert json.loads(body)["error"]["code"] == "REPRO-INTERNAL"

        async def broken_dispatch(request, writer):
            raise RuntimeError("lost")

        service._dispatch = broken_dispatch
        assert await fetch(host, port, "GET", "/healthz") is None
        await service.drain("test")

    log = io.StringIO()
    run(scenario(log))
    events = [json.loads(line) for line in log.getvalue().splitlines()]
    assert events[:2] == [
        {"event": "handler_error", "endpoint": "/match",
         "error": "RuntimeError: boom"},
        {"event": "connection_error", "endpoint": None,
         "error": "RuntimeError: lost"},
    ]
    snapshot = events[2]
    assert len(events) == 3
    assert (snapshot["event"], snapshot["endpoint"]) == \
        ("snapshot_failed", None)
    assert snapshot["error"].startswith("FileNotFoundError: ")
    assert str(tmp_path / "no") in snapshot["error"]
