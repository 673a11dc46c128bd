"""Chaos coverage for the match service (ISSUE 9 acceptance bar).

The safety property throughout: **every request settles with exactly
one verdict or one typed REPRO-* error** — a shard failing mid-scan,
slow-loris clients, overload floods and SIGTERM mid-stream included —
and the ``repro_service_*`` counters reconcile exactly with the
responses the suite observed.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.runtime.budget import DEFAULT_BUDGET
from repro.service import MatchService, ServiceConfig
from service_helpers import (
    HeldStream,
    RawConnection,
    fetch,
    parse_metrics,
    post_json,
)


def run(coro):
    return asyncio.run(coro)


async def wait_for(predicate, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.005)


# ----------------------------------------------------------------------
# Slow loris
# ----------------------------------------------------------------------
def test_slow_loris_head_gets_408_not_a_held_socket():
    async def scenario():
        service = MatchService(
            ServiceConfig(port=0, header_seconds=0.2, idle_seconds=0.5))
        await service.start()
        try:
            conn = await RawConnection(service.host, service.port).open()
            # Request line + one header, then stall without finishing
            # the head.  The server must answer 408 within its bound.
            await conn.send(b"POST /match HTTP/1.1\r\nHost: x\r\n")
            started = time.monotonic()
            response = await conn.read_response(timeout=5.0)
            elapsed = time.monotonic() - started
            assert response is not None and response[0] == 408
            assert elapsed < 3.0
            # ...and the connection is closed, not parked.
            assert await conn.reader.read(64) == b""
            await conn.close()
        finally:
            await service.drain("test")

    run(scenario())


def test_slow_loris_trickled_head_is_bounded_as_a_whole():
    async def scenario():
        service = MatchService(ServiceConfig(port=0, header_seconds=0.3))
        await service.start()
        try:
            conn = await RawConnection(service.host, service.port).open()
            await conn.send(b"POST /match HTTP/1.1\r\n")
            started = time.monotonic()

            async def trickle():
                # Each line arrives well inside header_seconds (and none
                # at the instant it expires); the head never completes.
                for index in range(40):
                    await asyncio.sleep(0.12)
                    await conn.send(f"X-Pad-{index}: x\r\n".encode())

            trickler = asyncio.ensure_future(trickle())
            try:
                response = await conn.read_response(timeout=3.0)
                elapsed = time.monotonic() - started
                assert response is not None and response[0] == 408
                assert elapsed < 1.5
                # ...and the connection is closed: end of stream, or a
                # reset if a trickled line crossed the close.
                try:
                    assert await conn.reader.read(64) == b""
                except ConnectionResetError:
                    pass
            finally:
                trickler.cancel()
                try:
                    await trickler
                except (asyncio.CancelledError, ConnectionError):
                    pass
            await conn.close()
        finally:
            await service.drain("test")

    run(scenario())


def test_slow_loris_body_gets_408_and_releases_the_slot():
    async def scenario():
        service = MatchService(
            ServiceConfig(port=0, header_seconds=0.2, max_inflight=1))
        await service.start()
        try:
            host, port = service.host, service.port
            conn = await RawConnection(host, port).open()
            await conn.send_head("POST", "/match", content_length=50)
            await conn.send(b'{"pat')  # trickle, then stall
            response = await conn.read_response(timeout=5.0)
            assert response is not None and response[0] == 408
            await conn.close()
            # The admission slot came back: the next request is served.
            await wait_for(lambda: service.inflight == 0)
            status, _, _ = await post_json(
                host, port, "/match", {"pattern": "a", "text": "a"})
            assert status == 200
        finally:
            await service.drain("test")

    run(scenario())


def test_idle_keep_alive_connection_is_reaped():
    async def scenario():
        service = MatchService(ServiceConfig(port=0, idle_seconds=0.2))
        await service.start()
        try:
            conn = await RawConnection(service.host, service.port).open()
            # Send nothing at all; the reaper closes us without a
            # response (there is no request to answer).
            data = await asyncio.wait_for(conn.reader.read(64), 5.0)
            assert data == b""
            await conn.close()
        finally:
            await service.drain("test")

    run(scenario())


# ----------------------------------------------------------------------
# A failing shard mid-scan
# ----------------------------------------------------------------------
#: Three 200-byte chunks; the middle one runs the VM past its step
#: budget, so its shard fails on every attempt while the others match.
TRIPPING_TEXT = "xabd".ljust(200) + ("a" * 150 + "x").ljust(200) + "acd"


def tripping_service():
    budget = DEFAULT_BUDGET.replace(max_vm_steps=200, max_dfa_states=0)
    return MatchService(ServiceConfig(port=0, jobs=2, budget=budget))


def test_worker_kill_mid_scan_partial_report_has_typed_outcome():
    async def scenario():
        service = tripping_service()
        await service.start()
        try:
            status, _, body = await post_json(
                service.host, service.port, "/scan",
                {
                    "pattern": "a(b|c)d",
                    "text": TRIPPING_TEXT,
                    "chunk_bytes": 200,
                    "jobs": 2,
                    "partial": True,
                },
            )
            assert status == 200
            report = json.loads(body)
            # Healthy shards kept their verdicts; the failing shard
            # settled with a typed error — never a dropped verdict.
            assert report["matched"] is True
            assert report["complete"] is False
            failed = report["outcomes"]
            assert [o["index"] for o in failed] == [1]
            assert failed[0]["status"] == "quarantined"
            assert failed[0]["error"]["code"] == "REPRO-SHARD-QUARANTINED"
            assert failed[0]["error"]["last_error"]["code"] == \
                "REPRO-BUDGET-VM-STEPS"
            # One serializer: the partial outcomes are ShardOutcome.to_dict,
            # attempts included (the first try plus the default 2 retries).
            assert failed[0]["attempts"] == 3
            assert report["retries"] >= 1
        finally:
            await service.drain("test")

    run(scenario())


def test_worker_kill_strict_scan_is_one_typed_422():
    async def scenario():
        service = tripping_service()
        await service.start()
        try:
            status, _, body = await post_json(
                service.host, service.port, "/scan",
                {
                    "pattern": "a(b|c)d",
                    "text": TRIPPING_TEXT,
                    "chunk_bytes": 200,
                    "jobs": 2,
                },
            )
            assert status == 422
            assert json.loads(body)["error"]["code"].startswith(
                "REPRO-SHARD")
        finally:
            await service.drain("test")

    run(scenario())


def test_a_fault_key_is_ignored_like_any_unknown_key():
    async def scenario():
        service = MatchService(ServiceConfig(port=0))
        await service.start()
        try:
            status, _, body = await post_json(
                service.host, service.port, "/scan",
                {"pattern": "a", "text": "a",
                 "fault": {"index": 0, "kind": "raise"}},
            )
            assert status == 200
            assert json.loads(body)["matched"] is True
        finally:
            await service.drain("test")

    run(scenario())


# ----------------------------------------------------------------------
# Overload flood: exactly-one-settlement + exact metric reconciliation
# ----------------------------------------------------------------------
def test_flood_every_request_settles_exactly_once_and_reconciles():
    async def scenario():
        service = MatchService(
            ServiceConfig(port=0, max_inflight=1, retry_after=0.1))
        await service.start()
        try:
            host, port = service.host, service.port
            held = await HeldStream(host, port).start()
            await wait_for(lambda: service.inflight == 1)

            flood = 20
            responses = await asyncio.gather(*[
                post_json(host, port, "/match",
                          {"pattern": "ab+c", "text": "zabbbc"})
                for _ in range(flood)
            ])
            assert all(r is not None for r in responses)
            shed = [r for r in responses if r[0] == 429]
            assert len(shed) == flood  # the one slot is held
            for _, headers, body in shed:
                assert "retry-after" in headers
                assert json.loads(body)["error"]["code"] == \
                    "REPRO-SERVICE-OVERLOAD"

            release = await held.release()
            assert release[0] == 200
            await wait_for(lambda: service.inflight == 0)

            served = await asyncio.gather(*[
                post_json(host, port, "/match",
                          {"pattern": "ab+c", "text": "zabbbc"})
                for _ in range(flood)
            ])
            ok = [r for r in served if r[0] == 200]
            shed_late = [r for r in served if r[0] == 429]
            assert len(ok) + len(shed_late) == flood
            assert len(ok) >= 1
            for _, _, body in ok:
                assert json.loads(body) == {"matched": True}

            _, _, body = await fetch(host, port, "GET", "/metrics")
            samples = parse_metrics(body.decode())
            total_429 = samples.get(
                'repro_service_requests_total'
                '{endpoint="/match",status="429"}', 0.0)
            total_200 = samples.get(
                'repro_service_requests_total'
                '{endpoint="/match",status="200"}', 0.0)
            # Exact reconciliation: one counted response per request.
            assert total_429 == float(flood + len(shed_late))
            assert total_200 == float(len(ok))
            assert samples["repro_service_shed_total"] == total_429
            assert samples[
                'repro_service_requests_total'
                '{endpoint="/stream",status="200"}'] == 1.0
            assert samples["repro_service_inflight"] == 0.0
        finally:
            await service.drain("test")

    run(scenario())


# ----------------------------------------------------------------------
# SIGTERM mid-stream (real process)
# ----------------------------------------------------------------------
def test_sigterm_mid_stream_bounded_drain_typed_503(tmp_path):
    stats = tmp_path / "stats.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--drain-seconds", "1.0", "--stats-file", str(stats)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    try:
        banner = proc.stdout.readline().strip()
        assert banner.startswith("repro-serve listening on")
        port = int(banner.rsplit(":", 1)[1])

        async def scenario():
            conn = await RawConnection("127.0.0.1", port).open()
            await conn.send_head(
                "POST", "/stream",
                headers=[("X-Repro-Pattern", "abc")],
                content_length=1000,
            )
            await conn.send(b"xxab")  # mid-stream, 996 bytes owed
            await asyncio.sleep(0.2)
            started = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            # The in-flight stream is cancelled at the drain deadline
            # and still settles with one typed error, not a cut socket.
            response = await conn.read_response(timeout=10.0)
            elapsed = time.monotonic() - started
            assert response is not None
            status, _, body = response
            assert status == 503
            assert json.loads(body)["error"]["code"] == \
                "REPRO-SERVICE-DRAINING"
            assert elapsed < 8.0
            await conn.close()

        run(scenario())
        assert proc.wait(timeout=15) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    snapshot = json.loads(stats.read_text())
    assert snapshot["drain_reason"] == "SIGTERM"
    metrics = snapshot["metrics"]
    assert metrics[
        'repro_service_requests_total{endpoint="/stream",status="503"}'] \
        == 1.0
    assert metrics["repro_service_drain_seconds"] >= 1.0
    # No half-written temp files next to the atomic snapshot.
    assert not list(stats.parent.glob(".*tmp"))


def test_sigterm_with_no_inflight_exits_promptly():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    try:
        banner = proc.stdout.readline().strip()
        port = int(banner.rsplit(":", 1)[1])

        async def scenario():
            status, _, _ = await fetch("127.0.0.1", port, "GET", "/healthz")
            assert status == 200

        run(scenario())
        started = time.monotonic()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
        assert time.monotonic() - started < 5.0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
