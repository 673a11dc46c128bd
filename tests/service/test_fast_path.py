"""The short request path (ISSUE 19): no Task per request, a cache-hit
``/match`` answered on the event loop, and the loop and executor paths
indistinguishable from outside — same bytes, same typed errors, same
ledger entries.
"""

import asyncio
import json

from repro import Budget
from repro.engine import Engine
from repro.service import MatchService, ServiceConfig, app
from repro.service.http import render_response
from service_helpers import RawConnection, fetch, parse_metrics


def run(coro):
    return asyncio.run(coro)


def match_body(pattern, text):
    return json.dumps({"pattern": pattern, "text": text}).encode()


def spy_on_executor(service):
    """Record the name of every function ``_in_executor`` is handed."""
    calls = []
    original = service._in_executor

    async def spy(fn, *args):
        calls.append(getattr(fn, "__name__", repr(fn)))
        return await original(fn, *args)

    service._in_executor = spy
    return calls


def test_cache_hit_match_requests_create_no_task():
    """Nor a timer: the connection's one deadline stays armed across
    requests instead of scheduling one per phase."""
    async def scenario():
        service = MatchService(ServiceConfig(port=0))
        await service.start()
        try:
            conn = await RawConnection(service.host, service.port).open()
            body = match_body("ab+c", "x" * 300 + "abbc")

            async def one():
                # timeout=None: the client must not create Tasks either.
                await conn.send_head("POST", "/match",
                                     content_length=len(body))
                await conn.send(body)
                status, _, reply = await conn.read_response(timeout=None)
                assert (status, json.loads(reply)) == (200, {"matched": True})

            await one()  # compiles on the executor; the entry is resident now
            created = []
            timers = []
            loop = asyncio.get_running_loop()

            def factory(loop, coro, **kwargs):
                created.append(coro)
                return asyncio.Task(coro, loop=loop, **kwargs)

            call_at = loop.call_at

            def spy(when, callback, *args, **kwargs):
                timers.append(callback)
                return call_at(when, callback, *args, **kwargs)

            loop.set_task_factory(factory)
            loop.call_at = spy
            try:
                for _ in range(100):
                    await one()
            finally:
                loop.set_task_factory(None)
                del loop.call_at
            assert created == []
            assert len(timers) <= 1, timers
            await conn.close()
        finally:
            await service.drain("test")

    run(scenario())


def test_only_resident_short_matches_skip_the_executor():
    async def scenario():
        service = MatchService(ServiceConfig(port=0))
        await service.start()
        calls = spy_on_executor(service)
        try:
            conn = await RawConnection(service.host, service.port).open()
            limit = app.INLINE_MATCH_BYTES

            async def post(path, body, headers=()):
                before = len(calls)
                status, _, _ = await conn.request("POST", path, body, headers)
                assert status == 200
                return calls[before:]

            assert not service.engine.is_cached("ab+c")
            assert await post("/match", match_body("ab+c", "abbc")) == ["match"]
            assert service.engine.is_cached("ab+c")
            assert await post("/match", match_body("ab+c", "abbc")) == []
            assert await post("/match", match_body("ab+c", "x" * limit)) == []
            assert await post(
                "/match", match_body("ab+c", "x" * (limit + 1))) == ["match"]
            # A name resolves to its pattern before the probe.
            assert await post("/compile", json.dumps(
                {"pattern": "ab+c", "name": "r"}).encode()) == ["matcher"]
            assert await post("/match", json.dumps(
                {"name": "r", "text": "abbc"}).encode()) == []
            # Resident or not, the other endpoints never run on the loop.
            assert await post("/scan", match_body("ab+c", "abbc")) == ["_scan"]
            assert await post(
                "/stream", b"abbc", [("X-Repro-Pattern", "ab+c")]
            ) == ["matcher", "feed"]
            await conn.close()
        finally:
            await service.drain("test")

    run(scenario())


def test_is_cached_probe_is_keyed_like_the_cache_and_counts_nothing():
    engine = Engine()
    assert not engine.is_cached("ab+c")
    engine.match("ab+c", "abbc")
    before = engine.cache_stats()
    assert engine.is_cached("ab+c") and not engine.is_cached("other")
    assert engine.cache_stats() == before
    engine.clear_cache()
    assert not engine.is_cached("ab+c")


CASES = [
    ("matching", "ab+c", "zzabbbc", 200),
    ("non-matching", "ab+c", "zzz", 200),
    ("empty", "ab+c", "", 200),
    ("non-latin-1", "ab+c", "a☃b", 422),
    ("vm step budget", "a+b", "a" * 200 + "b", 422),
]


def test_loop_and_executor_paths_are_indistinguishable(monkeypatch):
    """Every case through a service that answers on the loop and through
    one that cannot (threshold below any text): same reply bytes, same
    counters, each moved exactly once."""
    config = ServiceConfig(
        port=0, budget=Budget(max_vm_steps=200, max_dfa_states=0))

    async def observe(inline):
        monkeypatch.setattr(
            app, "INLINE_MATCH_BYTES", 1024 if inline else -1)
        service = MatchService(config)
        await service.start()
        calls = spy_on_executor(service)
        observed = []
        try:
            host, port = service.host, service.port
            conn = await RawConnection(host, port).open()
            for _, pattern, _, _ in CASES:  # make every entry resident
                await conn.request("POST", "/match", match_body(pattern, ""))

            async def ledger():
                _, _, text = await fetch(host, port, "GET", "/metrics")
                samples = parse_metrics(text.decode())
                return {
                    name: value for name, value in samples.items()
                    if name.startswith((
                        'repro_service_requests_total{endpoint="/match"',
                        'repro_engine_requests_total{call="match"}',
                        "repro_cache_hits_total",
                        "repro_cache_misses_total",
                    ))
                }

            for label, pattern, text, status in CASES:
                before, hops = await ledger(), len(calls)
                reply = await conn.request(
                    "POST", "/match", match_body(pattern, text))
                after = await ledger()
                assert reply[0] == status, label
                assert (len(calls) - hops) == (0 if inline else 1), label
                moved = {
                    name: after[name] - before.get(name, 0.0)
                    for name in after
                    if after[name] != before.get(name, 0.0)
                }
                assert moved == {
                    'repro_service_requests_total'
                    f'{{endpoint="/match",status="{status}"}}': 1.0,
                    'repro_engine_requests_total{call="match"}': 1.0,
                    # The encoding error is raised before the cache lookup.
                    **({} if label == "non-latin-1"
                       else {"repro_cache_hits_total": 1.0}),
                }, label
                observed.append(reply)
            await conn.close()
        finally:
            await service.drain("test")
        return observed

    on_loop = run(observe(inline=True))
    on_executor = run(observe(inline=False))
    assert on_loop == on_executor
    codes = [json.loads(body).get("error", {}).get("code")
             for _, _, body in on_loop]
    assert codes == [None, None, None,
                     "REPRO-INPUT-ENCODING", "REPRO-BUDGET-VM-STEPS"]


def test_slow_scan_still_gets_the_typed_504():
    """The request deadline still pre-empts what runs on the executor."""
    async def scenario():
        service = MatchService(ServiceConfig(
            port=0, chaos=True, jobs=2, request_seconds=0.3))
        await service.start()
        try:
            conn = await RawConnection(service.host, service.port).open()
            status, headers, body = await conn.request(
                "POST", "/scan", json.dumps({
                    "pattern": "a(b|c)d",
                    "text": "xabd zzz acd majx abdx nope",
                    "chunk_bytes": 7,
                    "jobs": 2,
                    "fault": {"index": 0, "kind": "hang",
                              "hang_seconds": 2.0},
                }).encode())
            assert status == 504
            assert headers["connection"] == "close"
            assert json.loads(body)["error"]["code"] == \
                "REPRO-BUDGET-REQUEST-DEADLINE"
            await conn.close()
        finally:
            await service.drain("test")

    run(scenario())


def test_render_response_bytes():
    assert render_response(200, b"{}") == (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: 2\r\nConnection: keep-alive\r\n\r\n{}")
    assert render_response(
        429, b"x", keep_alive=False, extra_headers=(("Retry-After", "1"),)
    ) == (
        b"HTTP/1.1 429 Too Many Requests\r\n"
        b"Content-Type: application/json\r\nContent-Length: 1\r\n"
        b"Connection: close\r\nRetry-After: 1\r\n\r\nx")
    assert render_response(299, b"", content_type="text/plain") == (
        b"HTTP/1.1 299 Unknown\r\nContent-Type: text/plain\r\n"
        b"Content-Length: 0\r\nConnection: keep-alive\r\n\r\n")
