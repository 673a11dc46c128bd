"""Functional contract of the match service (ISSUE 9 tentpole).

In-process: each test spins up a :class:`MatchService` on an ephemeral
port inside ``asyncio.run`` (no pytest-asyncio in the image) and talks
to it over real sockets with the raw client from ``service_helpers``.
"""

import asyncio
import json
import os

import pytest

import repro.engine.core as engine_core
from repro.engine.parallel import build_match_fn
from repro.engine.supervisor import run_in_process
from repro.runtime.budget import Budget
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


async def started(**overrides) -> MatchService:
    service = MatchService(ServiceConfig(port=0).replace(**overrides))
    await service.start()
    return service


async def wait_for(predicate, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.005)


def test_compile_match_scan_roundtrip():
    async def scenario():
        service = await started()
        try:
            host, port = service.host, service.port
            status, _, body = await post_json(
                host, port, "/compile",
                {"pattern": "a(b|c)+d", "tenant": "acme", "name": "r1"},
            )
            assert status == 200
            payload = json.loads(body)
            assert payload["registered"] is True

            status, _, body = await post_json(
                host, port, "/match",
                {"tenant": "acme", "name": "r1", "text": "xxabcbcd!"},
            )
            assert (status, json.loads(body)["matched"]) == (200, True)

            # Same compiled artifact: the second tenant's hit lands in
            # the shared LRU cache.
            before = service.engine.cache_stats().hits
            status, _, _ = await post_json(
                host, port, "/compile",
                {"pattern": "a(b|c)+d", "tenant": "other", "name": "same"},
            )
            assert status == 200
            assert service.engine.cache_stats().hits == before + 1

            status, _, body = await post_json(
                host, port, "/scan",
                {"pattern": "ab+", "text": "xx abbb yy " * 40,
                 "chunk_bytes": 64},
            )
            assert status == 200
            report = json.loads(body)
            assert report["matched"] and report["chunks"] > 1
        finally:
            await service.drain("test")

    run(scenario())


def test_stream_settles_like_one_shot():
    async def scenario():
        service = await started()
        try:
            host, port = service.host, service.port
            status, _, body = await fetch(
                host, port, "POST", "/stream", b"xxxabcbcdyyy",
                headers=[("X-Repro-Pattern", "a(b|c)+d")],
            )
            assert status == 200
            verdict = json.loads(body)
            assert verdict["matched"] and verdict["bytes"] == 12
            assert verdict["settled_early"]

            status, _, body = await fetch(
                host, port, "POST", "/stream", b"no such thing",
                headers=[("X-Repro-Pattern", "a(b|c)+d")],
            )
            assert status == 200
            verdict = json.loads(body)
            assert not verdict["matched"] and verdict["accelerated"]
        finally:
            await service.drain("test")

    run(scenario())


async def lazydfa_samples(host, port):
    status, _, body = await fetch(host, port, "GET", "/metrics")
    assert status == 200
    return {
        name: value
        for name, value in parse_metrics(body.decode()).items()
        if name.startswith("repro_lazydfa_")
    }


def test_streams_share_the_pattern_s_lazy_dfa():
    # /stream walks the DFA inside the engine's cached matcher: the
    # second identical stream takes only transitions the first built.
    async def scenario():
        service = await started()
        try:
            host, port = service.host, service.port
            built = []
            for _ in range(2):
                status, _, body = await fetch(
                    host, port, "POST", "/stream", b"xxabcbcbyy",
                    headers=[("X-Repro-Pattern", "a(b|c)+d")],
                )
                assert status == 200
                verdict = json.loads(body)
                assert not verdict["matched"] and verdict["accelerated"]
                samples = await lazydfa_samples(host, port)
                built.append(samples["repro_lazydfa_transitions_total"])
            assert built[0] > 0 and built[1] == built[0]
        finally:
            await service.drain("test")

    run(scenario())


def test_a_stream_that_blows_the_dfa_counts_one_fallback():
    async def scenario():
        service = await started(budget=Budget(max_dfa_states=2))
        try:
            host, port = service.host, service.port
            before = await lazydfa_samples(host, port)
            assert before.get("repro_lazydfa_fallback_total", 0.0) == 0.0
            for _ in range(2):  # the pattern stays on the VM: no second count
                status, _, body = await fetch(
                    host, port, "POST", "/stream", b"abcbcbcbd!",
                    headers=[("X-Repro-Pattern", "a(b|c)+d")],
                )
                assert status == 200
                verdict = json.loads(body)
                assert verdict["matched"] and not verdict["accelerated"]
                after = await lazydfa_samples(host, port)
                assert after["repro_lazydfa_fallback_total"] == 1.0
        finally:
            await service.drain("test")

    run(scenario())


def test_probes_errors_and_metrics():
    async def scenario():
        service = await started()
        try:
            host, port = service.host, service.port
            status, _, body = await fetch(host, port, "GET", "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "ok" and health["inflight"] == 0

            status, _, _ = await fetch(host, port, "GET", "/readyz")
            assert status == 200

            # Unknown name → typed 404; bad JSON → 400; bad syntax → 422.
            status, _, body = await post_json(
                host, port, "/match", {"name": "ghost", "text": "x"})
            assert status == 404
            assert json.loads(body)["error"]["code"] == \
                "REPRO-SERVICE-UNKNOWN-PATTERN"
            status, _, _ = await fetch(host, port, "POST", "/match",
                                       b"not json")
            assert status == 400
            status, _, body = await post_json(
                host, port, "/match", {"pattern": "a(((", "text": "x"})
            assert status == 422
            assert json.loads(body)["error"]["code"].startswith("REPRO-")
            status, _, _ = await fetch(host, port, "GET", "/nope")
            assert status == 404
            status, _, _ = await fetch(host, port, "POST", "/healthz")
            assert status == 405

            status, _, body = await fetch(host, port, "GET", "/metrics")
            assert status == 200
            samples = parse_metrics(body.decode())
            assert samples[
                'repro_service_requests_total'
                '{endpoint="/match",status="404"}'] == 1.0
            assert samples["repro_service_inflight"] == 0.0
        finally:
            await service.drain("test")

    run(scenario())


@pytest.mark.parametrize("fields", [
    {"chunk_bytes": "abc"},
    {"chunk_bytes": None},
    {"chunk_bytes": 2.5},
    {"chunk_bytes": True},
    {"jobs": "two"},
    {"jobs": False},
    {"jobs": 1.0},
    {"fault": "raise"},
    {"fault": [0]},
    {"fault": {"index": "x"}},
    {"fault": {"index": 1.0}},
    {"fault": {"kind": 7}},
    {"fault": {"kind": "boom"}},
    {"fault": {"times": "1"}},
    {"fault": {"hang_seconds": "abc"}},
    {"fault": {"marker_dir": 5}},
    {"tenant": 5},
    {"tenant": [1]},
    {"tenant": True},
    {"partial": "false"},
    {"partial": 1},
    {"fault": {"hang_seconds": float("nan")}},
    {"fault": {"hang_seconds": float("inf")}},
    {"fault": {"hang_seconds": -1}},
])
def test_scan_rejects_ill_typed_fields_with_422(fields):
    # Each of these used to be a 500 REPRO-INTERNAL, or (2.5) silently
    # truncated to a 2-byte chunk, or (a non-string tenant) ignored, or
    # ("false") taken as true, or (a NaN, infinite or negative hang)
    # retried and quarantined when the worker's sleep raised.
    async def scenario():
        service = await started(chaos=True)
        try:
            status, _, body = await post_json(
                service.host, service.port, "/scan",
                dict({"pattern": "ab+", "text": "xx abbb yy"}, **fields),
            )
            assert status == 422, body
            error = json.loads(body)["error"]
            assert error["code"] == "HTTP"
            assert repr(next(iter(fields)))[1:-1] in error["message"]

            status, _, body = await post_json(
                service.host, service.port, "/scan",
                {"pattern": "ab+", "text": "xx abbb yy", "chunk_bytes": 64,
                 "jobs": None},
            )
            assert (status, json.loads(body)["matched"]) == (200, True)
        finally:
            await service.drain("test")

    run(scenario())


def test_non_string_tenant_is_rejected_and_healthz_stays_up():
    # A registered int tenant used to sit next to the string ones, and
    # every /healthz then died sorting the mixed keys.
    async def scenario():
        service = await started()
        try:
            host, port = service.host, service.port
            for endpoint, payload in (
                ("/compile", {"pattern": "ab", "name": "r1", "tenant": 5}),
                ("/compile", {"pattern": "ab", "name": "r1", "tenant": [1]}),
                ("/match", {"name": "r1", "tenant": 5, "text": "ab"}),
            ):
                status, _, body = await post_json(host, port, endpoint, payload)
                assert status == 422, (endpoint, body)
                assert "'tenant'" in json.loads(body)["error"]["message"]
            status, _, _ = await post_json(
                host, port, "/compile",
                {"pattern": "ab", "name": "r1", "tenant": "acme"},
            )
            assert status == 200
            status, _, body = await fetch(host, port, "GET", "/healthz")
            assert status == 200
            assert json.loads(body)["tenants"] == {"acme": 1}
        finally:
            await service.drain("test")

    run(scenario())


def test_scan_jobs_is_capped_at_the_core_count(monkeypatch):
    # The supervisor starts min(jobs, chunks) workers at once; a recorder
    # stands in for it, so no process starts whatever the request asks.
    recorded = []

    def recording_supervisor(payload, items, jobs, **kwargs):
        recorded.append(jobs)
        return run_in_process(build_match_fn(payload).match, items)

    monkeypatch.setattr(engine_core, "supervised_matches", recording_supervisor)

    async def scenario():
        service = await started()
        try:
            status, _, body = await post_json(
                service.host, service.port, "/scan",
                {"pattern": "b", "text": "xx abbb yy" * 20,
                 "chunk_bytes": 1, "jobs": 10**6},
            )
            assert (status, json.loads(body)["matched"]) == (200, True)
        finally:
            await service.drain("test")

    run(scenario())
    assert max(recorded, default=1) <= (os.cpu_count() or 1)


def test_compile_checks_name_before_compiling():
    async def scenario():
        service = await started()
        try:
            host, port = service.host, service.port
            status, _, body = await post_json(
                host, port, "/compile", {"pattern": "ab+c", "name": 5}
            )
            assert status == 422, body
            assert "'name'" in json.loads(body)["error"]["message"]
            status, _, body = await fetch(host, port, "GET", "/healthz")
            assert status == 200
            assert json.loads(body)["cache"]["misses"] == 0
        finally:
            await service.drain("test")

    run(scenario())


def test_overload_sheds_429_and_metrics_reconcile():
    async def scenario():
        service = await started(max_inflight=2, retry_after=0.25)
        try:
            host, port = service.host, service.port
            held = [await HeldStream(host, port).start() for _ in range(2)]
            await wait_for(lambda: service.inflight == 2)

            shed_statuses = []
            for _ in range(5):
                status, headers, body = await post_json(
                    host, port, "/match", {"pattern": "a", "text": "a"})
                shed_statuses.append(status)
                assert headers.get("retry-after") == "0.25"
                assert json.loads(body)["error"]["code"] == \
                    "REPRO-SERVICE-OVERLOAD"
            assert shed_statuses == [429] * 5

            for stream in held:
                response = await stream.release()
                assert response[0] == 200

            status, _, _ = await post_json(
                host, port, "/match", {"pattern": "a", "text": "a"})
            assert status == 200

            _, _, body = await fetch(host, port, "GET", "/metrics")
            samples = parse_metrics(body.decode())
            assert samples["repro_service_shed_total"] == 5.0
            assert samples[
                'repro_service_requests_total'
                '{endpoint="/match",status="429"}'] == 5.0
            assert samples[
                'repro_service_requests_total'
                '{endpoint="/match",status="200"}'] == 1.0
            assert samples[
                'repro_service_requests_total'
                '{endpoint="/stream",status="200"}'] == 2.0
            assert samples["repro_service_inflight"] == 0.0
        finally:
            await service.drain("test")

    run(scenario())


def test_request_deadline_maps_to_504():
    async def scenario():
        service = await started(request_seconds=0.25)
        try:
            host, port = service.host, service.port
            conn = await RawConnection(host, port).open()
            await conn.send_head(
                "POST", "/stream",
                headers=[("X-Repro-Pattern", "ab")],
                content_length=100,
            )
            await conn.send(b"ab")  # then stall past the deadline
            status, _, body = await conn.read_response(timeout=10.0)
            assert status == 504
            error = json.loads(body)["error"]
            assert error["code"] == "REPRO-BUDGET-REQUEST-DEADLINE"
            await conn.close()
        finally:
            await service.drain("test")

    run(scenario())


def test_client_deadline_header_tightens_only():
    async def scenario():
        service = await started()  # default 30s budget
        try:
            host, port = service.host, service.port
            conn = await RawConnection(host, port).open()
            await conn.send_head(
                "POST", "/stream",
                headers=[("X-Repro-Pattern", "ab"),
                         ("X-Repro-Deadline", "0.2")],
                content_length=100,
            )
            await conn.send(b"ab")
            status, _, _ = await conn.read_response(timeout=10.0)
            assert status == 504
            await conn.close()
        finally:
            await service.drain("test")

    run(scenario())


def test_drain_rejects_new_work_but_finishes_inflight():
    async def scenario():
        service = await started(drain_seconds=5.0)
        host, port = service.host, service.port
        held = await HeldStream(host, port).start()
        await wait_for(lambda: service.inflight == 1)
        probe = await RawConnection(host, port).open()  # pre-drain conn

        drain_task = asyncio.ensure_future(service.drain("test"))
        await wait_for(lambda: service.draining)

        # Existing keep-alive connections see typed rejections...
        status, _, body = await probe.request(
            "POST", "/match",
            json.dumps({"pattern": "a", "text": "a"}).encode())
        assert status == 503
        assert json.loads(body)["error"]["code"] == "REPRO-SERVICE-DRAINING"
        await probe.close()

        # ...while admitted work runs to completion with its verdict.
        response = await held.release()
        assert response[0] == 200 and json.loads(response[2])["matched"] is \
            False
        elapsed = await drain_task
        assert elapsed < 5.0
        assert service.inflight == 0

    run(scenario())


def test_drain_writes_atomic_snapshot(tmp_path):
    stats = tmp_path / "deep" / "stats.json"
    stats.parent.mkdir()

    async def scenario():
        service = MatchService(
            ServiceConfig(port=0, stats_file=str(stats)))
        await service.start()
        host, port = service.host, service.port
        status, _, _ = await post_json(
            host, port, "/match", {"pattern": "a", "text": "a"})
        assert status == 200
        await service.drain("SIGTERM")

    run(scenario())
    snapshot = json.loads(stats.read_text())
    assert snapshot["drain_reason"] == "SIGTERM"
    assert any("repro_service_requests_total" in key
               for key in snapshot["metrics"])
    assert not list(stats.parent.glob(".*tmp"))


def test_readyz_flips_503_while_draining():
    async def scenario():
        service = await started(drain_seconds=2.0)
        host, port = service.host, service.port
        held = await HeldStream(host, port).start()
        await wait_for(lambda: service.inflight == 1)
        # Connections close after one response during drain (keep-alive
        # off), so each probe needs its own pre-drain connection.
        ready_probe = await RawConnection(host, port).open()
        live_probe = await RawConnection(host, port).open()
        drain_task = asyncio.ensure_future(service.drain("test"))
        await wait_for(lambda: service.draining)
        status, _, _ = await ready_probe.request("GET", "/readyz")
        assert status == 503
        # Liveness stays green during drain.
        status, _, body = await live_probe.request("GET", "/healthz")
        assert status == 200 and json.loads(body)["status"] == "draining"
        await ready_probe.close()
        await live_probe.close()
        await held.release()
        await drain_task

    run(scenario())


def test_tenant_namespace_limit_is_typed():
    async def scenario():
        service = await started(max_patterns_per_tenant=2)
        try:
            host, port = service.host, service.port
            for index in range(2):
                status, _, _ = await post_json(
                    host, port, "/compile",
                    {"pattern": f"a{{{index + 1}}}", "tenant": "t",
                     "name": f"r{index}"})
                assert status == 200
            status, _, body = await post_json(
                host, port, "/compile",
                {"pattern": "zzz", "tenant": "t", "name": "r9"})
            assert status == 422
            assert "limit" in json.loads(body)["error"]["message"]
        finally:
            await service.drain("test")

    run(scenario())


# ----------------------------------------------------------------------
# Keep-alive framing: a reply written before the body was read must not
# leave that body to be parsed as the next request.
# ----------------------------------------------------------------------
def test_shed_429_keeps_the_connection_usable_for_the_retry():
    async def scenario():
        service = await started(max_inflight=1, retry_after=0.25)
        try:
            host, port = service.host, service.port
            held = await HeldStream(host, port).start()
            await wait_for(lambda: service.inflight == 1)
            conn = await RawConnection(host, port).open()
            payload = json.dumps({"pattern": "ab+c", "text": "zabbbc"}).encode()

            status, headers, _ = await conn.request("POST", "/match", payload)
            assert status == 429
            assert headers["connection"] == "keep-alive"
            assert (await held.release())[0] == 200
            await wait_for(lambda: service.inflight == 0)

            # The retry that Retry-After invites, on the same connection.
            status, _, body = await conn.request("POST", "/match", payload)
            assert (status, json.loads(body)) == (200, {"matched": True})
            await conn.close()
        finally:
            await service.drain("test")

    run(scenario())


def test_typed_stream_errors_keep_the_connection_aligned():
    async def scenario():
        service = await started()
        try:
            conn = await RawConnection(service.host, service.port).open()
            good = json.dumps({"pattern": "ab+c", "text": "zabbbc"}).encode()
            for headers, expected in (
                ([("X-Repro-Name", "ghost")], 404),   # unknown name
                ([("X-Repro-Pattern", "a(((")], 422),  # does not compile
            ):
                status, reply_headers, _ = await conn.request(
                    "POST", "/stream", b"abcdefgh", headers=headers)
                assert status == expected
                assert reply_headers["connection"] == "keep-alive"
                status, _, body = await conn.request("POST", "/match", good)
                assert (status, json.loads(body)) == (200, {"matched": True})
            await conn.close()
        finally:
            await service.drain("test")

    run(scenario())


def test_reply_before_a_long_body_closes_instead_of_reading_it():
    async def scenario():
        service = await started(max_inflight=1)
        try:
            host, port = service.host, service.port
            held = await HeldStream(host, port).start()
            await wait_for(lambda: service.inflight == 1)
            conn = await RawConnection(host, port).open()
            # 1 MB declared, none sent: shedding must not wait for it.
            await conn.send_head("POST", "/match", content_length=1 << 20)
            status, headers, _ = await conn.read_response(timeout=5.0)
            assert status == 429
            assert headers["connection"] == "close"
            assert await conn.reader.read(64) == b""
            await conn.close()
            await held.release()
        finally:
            await service.drain("test")

    run(scenario())


def test_unknown_paths_share_one_metric_series():
    async def scenario():
        service = await started()
        try:
            host, port = service.host, service.port
            conn = await RawConnection(host, port).open()
            for index in range(100):
                status, _, _ = await conn.request("GET", f"/probe-{index}")
                assert status == 404
            await conn.close()
            _, _, body = await fetch(host, port, "GET", "/metrics")
            assert b"probe" not in body
            samples = parse_metrics(body.decode())
            series = [name for name in samples
                      if name.startswith("repro_service_requests_total")]
            assert series == [
                'repro_service_requests_total'
                '{endpoint="other",status="404"}']
            assert samples[series[0]] == 100.0
        finally:
            await service.drain("test")

    run(scenario())
