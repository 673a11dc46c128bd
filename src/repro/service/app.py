"""The asyncio match service: routes, admission, drain, metrics.

Life of a request::

    accept → parse head (slow-loris bounded) → route
      health/metrics      → answer immediately, never shed
      POST endpoints      → admission gate:
         draining?        → 503 ServiceDrainingError
         inflight full?   → 429 + Retry-After, ServiceOverloadError
         admitted         → handler under the per-request deadline
                            (Budget.max_wall_seconds); a short
                            ``/match`` on a resident pattern runs on
                            the event loop, everything that can take
                            milliseconds (compile, long texts, scans
                            behind the PR 4 supervisor, stream feeds)
                            on the executor → exactly one JSON verdict
                            or one typed REPRO-* error
      reply               → written once; the connection carries a
                            next request only if this one's body is
                            out of the stream

Drain (SIGTERM): stop accepting, flip ``/readyz`` to 503, give
in-flight work ``drain_seconds`` to settle, cancel the rest (each
cancelled request still writes a typed 503 before its connection
closes), flush the metrics snapshot atomically, report
``repro_service_drain_seconds``.

Every admitted or shed request increments
``repro_service_requests_total{endpoint,status}`` exactly once, at the
single point where its response bytes are written — the invariant the
chaos suite reconciles against.

No step of this path creates a Task.  Each connection has one
``http.Deadline``: the idle wait, the head and each body read move its
phase bound, and the handler runs under its request bound as well —
one armed timer for all of them, not one per phase.

Diagnostics (a connection or handler that failed, a snapshot that could
not be written) go to the log stream as JSON lines with ``event``,
``endpoint`` and ``error`` fields; stdout carries only the ``listening
on`` and ``drained in`` lines.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from types import NoneType
from typing import Any, Dict, NamedTuple, Optional, Set, Tuple

from ..engine import Engine
from ..runtime.errors import (
    BudgetExceeded,
    ReproError,
    RequestDeadlineError,
    ServiceDrainingError,
    ServiceOverloadError,
    UnknownPatternError,
)
from ..runtime.faults import WORKER_FAULT_KINDS, ProcessFaultPlan
from ..vm.streaming import StreamingMatcher
from .config import ServiceConfig
from .http import (
    REQUEST,
    Deadline,
    HttpProtocolError,
    Request,
    read_request,
    render_response,
)
from .tenants import TenantRegistry

#: Endpoints exempt from admission control — probes and scrapers must
#: keep answering while the service sheds matching work.
EXEMPT_PATHS = ("/healthz", "/readyz", "/metrics")
WORK_PATHS = ("/compile", "/match", "/scan", "/stream")
#: The values the ``endpoint`` metric label takes besides ``"other"``
#: (any other path) and ``"protocol"`` (no request could be parsed).
ROUTES = frozenset(EXEMPT_PATHS + WORK_PATHS)

#: A ``/match`` whose pattern is resident in the cache and whose text
#: is at most this long is answered on the event loop.  Over the first
#: 40 REs of each of the four suites such a match, once its lazy DFA has
#: seen the text, takes 0.058 ms median and 0.114 ms at worst — less
#: than the executor round trip (≈ 0.2 ms) it replaces.  It is bounded
#: (text length × program size, ``Budget.max_vm_steps``), not
#: pre-emptible; docs/service.md, *What runs where*, has the cold-DFA
#: figures.  Longer texts and cold patterns (a compile is milliseconds)
#: go to the executor.
INLINE_MATCH_BYTES = 1024

#: The most unread request body the connection loop reads and drops to
#: keep a connection alive past a reply that did not need the body (a
#: shed 429, a typed error); a longer one gets ``Connection: close``.
DISCARD_BODY_BYTES = 64 * 1024

_STATUS_BY_CODE = {
    "REPRO-SERVICE-OVERLOAD": 429,
    "REPRO-SERVICE-DRAINING": 503,
    "REPRO-SERVICE-UNKNOWN-PATTERN": 404,
    "REPRO-BUDGET-REQUEST-DEADLINE": 504,
}


def _status_for(error: ReproError) -> int:
    return _STATUS_BY_CODE.get(error.code, 422)


#: How a 422 names each JSON type a field may take.
_KINDS = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string",
    NoneType: "null",
}


def _field(payload: dict, name: str, default, *types: type, within: str = ""):
    """``payload[name]`` (``default`` when absent) when its type is
    exactly one of ``types`` (``true`` is no integer, ``1`` no boolean);
    a 422 naming ``within + name`` otherwise."""
    value = payload.get(name, default)
    if type(value) in types:
        return value
    kind = " or ".join(_KINDS[allowed] for allowed in types)
    raise HttpProtocolError(422, f"'{within}{name}' must be {kind}")


class _Reply(NamedTuple):
    """What a handler settled on; the connection loop writes it."""

    status: int
    body: bytes
    keep_alive: bool = True
    content_type: str = "application/json"
    extra_headers: Tuple[Tuple[str, str], ...] = ()


def _http_error(error: HttpProtocolError) -> _Reply:
    body = json.dumps(
        {"error": {"code": "HTTP", "message": error.detail}}
    ).encode()
    return _Reply(error.status, body, keep_alive=False)


def _typed_error(
    error: ReproError,
    *,
    keep_alive: bool = True,
    extra_headers: Tuple[Tuple[str, str], ...] = (),
) -> _Reply:
    body = json.dumps({"error": error.to_dict()}, sort_keys=True).encode()
    return _Reply(
        _status_for(error), body, keep_alive, extra_headers=extra_headers
    )


class MatchService:
    """One long-lived service instance (start / serve / drain)."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        metrics=None,
        log=None,
    ):
        self.config = config if config is not None else ServiceConfig()
        if metrics is None:
            from ..observability import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics
        self._log = log if log is not None else sys.stderr
        self.engine = Engine(
            budget=self.config.budget,
            cache_size=self.config.cache_size,
            jobs=self.config.jobs,
            metrics=metrics,
        )
        self.tenants = TenantRegistry(self.config.max_patterns_per_tenant)
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, min(32, self.config.max_inflight)),
            thread_name_prefix="repro-serve",
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self.host = self.config.host
        self.port = self.config.port
        self._inflight = 0
        self._draining = False
        self._drained = asyncio.Event()
        self._connections: Set[asyncio.Task] = set()
        self._request_tasks: Set[asyncio.Task] = set()
        # Instruments are resolved once (the engine does the same); the
        # per-(endpoint, status) response counters on first use — the
        # label set is bounded: nine endpoint values, the statuses of
        # http.STATUS_PHRASES.
        self._request_counters: Dict[Tuple[str, int], Any] = {}
        self._shed_total = metrics.counter(
            "repro_service_shed_total",
            help_text="requests shed 429 at the admission gate",
        )
        self._inflight_gauge = metrics.gauge(
            "repro_service_inflight",
            help_text="admitted requests currently in flight",
        )
        self._drain_gauge = metrics.gauge(
            "repro_service_drain_seconds",
            help_text="how long the last graceful drain took",
        )
        self._stream_bytes = metrics.counter(
            "repro_service_stream_bytes_total",
            help_text="bytes fed through streaming matchers",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting (port 0 → ephemeral, see ``port``)."""
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.host, self.port = sock.getsockname()[:2]
            break

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight(self) -> int:
        return self._inflight

    async def drain(self, reason: str = "SIGTERM") -> float:
        """Graceful shutdown; returns how long it took (also gauged)."""
        started = time.monotonic()
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._inflight == 0:
            self._drained.set()
        else:
            self._drained.clear()
            try:
                await asyncio.wait_for(
                    self._drained.wait(), self.config.drain_seconds
                )
            except asyncio.TimeoutError:
                # Deadline: cancel stragglers; each writes its typed
                # 503 on the way out (see _run_admitted).
                for task in list(self._request_tasks):
                    task.cancel()
                for task in list(self._request_tasks):
                    try:
                        await task
                    except (asyncio.CancelledError, Exception):
                        pass
        for task in list(self._connections):
            task.cancel()
        if self._server is not None:
            await self._server.wait_closed()
        self._executor.shutdown(wait=False)
        elapsed = time.monotonic() - started
        self._drain_gauge.set(elapsed)
        if self.config.stats_file:
            try:
                self.metrics.write_snapshot(
                    self.config.stats_file,
                    extra={"command": "serve", "drain_reason": reason},
                )
            except OSError as error:
                self._diagnose("snapshot_failed", None, error)
        return elapsed

    def _diagnose(
        self, event: str, endpoint: Optional[str], error: BaseException
    ) -> None:
        """One JSON line on the log stream."""
        print(
            json.dumps({
                "event": event,
                "endpoint": endpoint,
                "error": f"{type(error).__name__}: {error}",
            }),
            file=self._log,
            flush=True,
        )

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:
            pass
        except Exception as error:  # connection-level failures stay local
            self._diagnose("connection_error", None, error)
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        config = self.config
        deadline = Deadline()
        try:
            while True:
                try:
                    request = await read_request(
                        reader,
                        deadline,
                        head_timeout=config.header_seconds,
                        idle_timeout=config.idle_seconds,
                        body_timeout=config.header_seconds,
                        max_body_bytes=config.max_body_bytes,
                    )
                except HttpProtocolError as error:
                    self._write(writer, "protocol", _http_error(error), False)
                    await writer.drain()
                    return
                if request is None:
                    return
                reply = await self._dispatch(request, writer)
                # One rule for every reply: the connection carries a next
                # request only if this one's body is out of the stream —
                # read already, or short enough to read and drop below.
                unread = request.unread_body()
                keep_alive = (
                    reply.keep_alive
                    and request.keep_alive
                    and not self._draining
                    and unread is not None
                    and unread <= DISCARD_BODY_BYTES
                )
                self._write(
                    writer,
                    request.path if request.path in ROUTES else "other",
                    reply,
                    keep_alive,
                )
                try:
                    await writer.drain()
                except ConnectionError:
                    return
                if not keep_alive or (
                    unread and not await request.discard_body()
                ):
                    return
        finally:
            deadline.close()

    # ------------------------------------------------------------------
    # Routing + admission
    # ------------------------------------------------------------------
    def _write(
        self,
        writer: asyncio.StreamWriter,
        endpoint: str,
        reply: _Reply,
        keep_alive: bool,
    ) -> None:
        """The single response-writing point: one call, one count."""
        key = (endpoint, reply.status)
        counter = self._request_counters.get(key)
        if counter is None:
            counter = self._request_counters[key] = self.metrics.counter(
                "repro_service_requests_total",
                labels={"endpoint": endpoint, "status": str(reply.status)},
                help_text="service responses by endpoint and HTTP status",
            )
        counter.inc()
        try:
            writer.write(
                render_response(
                    reply.status,
                    reply.body,
                    content_type=reply.content_type,
                    extra_headers=reply.extra_headers,
                    keep_alive=keep_alive,
                )
            )
        except ConnectionError:
            pass

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> _Reply:
        endpoint = request.path
        if endpoint in EXEMPT_PATHS:
            if request.method != "GET":
                return _Reply(405, b'{"error": {"message": "GET only"}}')
            return self._handle_exempt(endpoint)
        if endpoint not in WORK_PATHS:
            return _Reply(404, b'{"error": {"message": "unknown endpoint"}}')
        if request.method != "POST":
            return _Reply(405, b'{"error": {"message": "POST only"}}')

        # --- admission gate -------------------------------------------
        if self._draining:
            return _typed_error(
                ServiceDrainingError("rejected at admission"),
                keep_alive=False,
            )
        if self._inflight >= self.config.max_inflight:
            self._shed_total.inc()
            return _typed_error(
                ServiceOverloadError(
                    self._inflight,
                    self.config.max_inflight,
                    self.config.retry_after,
                ),
                extra_headers=(
                    ("Retry-After", f"{self.config.retry_after:g}"),
                ),
            )

        self._inflight += 1
        self._inflight_gauge.set(self._inflight)
        task = asyncio.current_task()
        if task is not None:
            self._request_tasks.add(task)
        try:
            return await self._run_admitted(request, writer, endpoint)
        finally:
            if task is not None:
                self._request_tasks.discard(task)
            self._inflight -= 1
            self._inflight_gauge.set(self._inflight)
            if self._draining and self._inflight == 0:
                self._drained.set()

    async def _run_admitted(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        endpoint: str,
    ) -> _Reply:
        seconds = self.config.effective_request_seconds()
        requested = request.headers.get("x-repro-deadline")
        if requested is not None:
            try:
                seconds = min(seconds, float(requested))
            except ValueError:
                pass
        deadline = request.deadline
        started = time.monotonic()
        deadline.limit(seconds)
        try:
            status, body = await self._route(request, endpoint)
        except asyncio.CancelledError:
            if deadline.take(REQUEST):
                return _typed_error(
                    RequestDeadlineError(
                        endpoint, time.monotonic() - started, seconds
                    ),
                    keep_alive=False,
                )
            # Drain-deadline cancellation: settle with a typed error
            # before the connection closes — never a silent drop.  The
            # cancellation goes on up, so the reply is written here.
            reply = _typed_error(
                ServiceDrainingError("cancelled at drain deadline"),
                keep_alive=False,
            )
            self._write(writer, endpoint, reply, False)
            try:
                await writer.drain()
            except (ConnectionError, asyncio.CancelledError):
                pass
            raise
        except HttpProtocolError as error:
            return _http_error(error)
        except ReproError as error:
            return _typed_error(error)
        except Exception as error:  # defensive: never a hung client
            self._diagnose("handler_error", endpoint, error)
            body = json.dumps(
                {"error": {"code": "REPRO-INTERNAL",
                           "message": repr(error)}}
            ).encode()
            return _Reply(500, body, keep_alive=False)
        finally:
            deadline.unlimit()
        return _Reply(status, body)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _handle_exempt(self, endpoint: str) -> _Reply:
        if endpoint == "/metrics":
            return _Reply(
                200,
                self.metrics.render_prometheus().encode(),
                content_type="text/plain; version=0.0.4",
            )
        if endpoint == "/readyz":
            return _Reply(
                503 if self._draining else 200,
                json.dumps({"ready": not self._draining}).encode(),
            )
        stats = self.engine.cache_stats()
        body = json.dumps(
            {
                "status": "draining" if self._draining else "ok",
                "inflight": self._inflight,
                "max_inflight": self.config.max_inflight,
                "tenants": self.tenants.tenants(),
                "cache": {
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "evictions": stats.evictions,
                },
            },
            sort_keys=True,
        ).encode()
        return _Reply(200, body)

    async def _json_body(self, request: Request) -> dict:
        raw = await request.body()
        if not raw:
            raise HttpProtocolError(400, "empty JSON body")
        try:
            payload = json.loads(raw)
        except ValueError:
            raise HttpProtocolError(400, "body is not valid JSON")
        if not isinstance(payload, dict):
            raise HttpProtocolError(400, "JSON body must be an object")
        return payload

    def _resolve_pattern(self, payload: dict) -> str:
        tenant = _field(payload, "tenant", None, str, NoneType)
        pattern = payload.get("pattern")
        if pattern is not None:
            if not isinstance(pattern, str):
                raise HttpProtocolError(422, "pattern must be a string")
            return pattern
        name = payload.get("name")
        if not isinstance(name, str):
            raise HttpProtocolError(
                422, "provide either 'pattern' or 'tenant'+'name'"
            )
        return self.tenants.resolve(tenant, name)

    async def _in_executor(self, fn, *args):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn, *args)

    async def _route(
        self, request: Request, endpoint: str
    ) -> Tuple[int, bytes]:
        if endpoint == "/stream":
            return await self._handle_stream(request)
        payload = await self._json_body(request)
        if endpoint == "/compile":
            return await self._handle_compile(payload)
        if endpoint == "/match":
            return await self._handle_match(payload)
        return await self._handle_scan(payload)

    async def _handle_compile(self, payload: dict) -> Tuple[int, bytes]:
        pattern = payload.get("pattern")
        if not isinstance(pattern, str):
            raise HttpProtocolError(422, "'pattern' (string) is required")
        tenant = _field(payload, "tenant", None, str, NoneType)
        name = _field(payload, "name", None, str, NoneType)
        # Compile (or hit) through the shared cache off-loop.
        await self._in_executor(self.engine.matcher, pattern)
        registered = False
        if name is not None:
            registered = self.tenants.register(tenant, name, pattern)
        stats = self.engine.cache_stats()
        body = json.dumps(
            {
                "ok": True,
                "pattern": pattern,
                "tenant": tenant or TenantRegistry.DEFAULT_TENANT
                if name is not None
                else None,
                "name": name,
                "registered": registered,
                "cache": {"hits": stats.hits, "misses": stats.misses},
            },
            sort_keys=True,
        ).encode()
        return 200, body

    async def _handle_match(self, payload: dict) -> Tuple[int, bytes]:
        pattern = self._resolve_pattern(payload)
        text = payload.get("text")
        if not isinstance(text, str):
            raise HttpProtocolError(422, "'text' (string) is required")
        engine = self.engine
        if len(text) <= INLINE_MATCH_BYTES and engine.is_cached(pattern):
            matched = engine.match(pattern, text)
        else:
            matched = await self._in_executor(engine.match, pattern, text)
        return 200, json.dumps({"matched": bool(matched)}).encode()

    async def _handle_scan(self, payload: dict) -> Tuple[int, bytes]:
        pattern = self._resolve_pattern(payload)
        text = payload.get("text")
        if not isinstance(text, str):
            raise HttpProtocolError(422, "'text' (string) is required")
        chunk_bytes = _field(payload, "chunk_bytes", 500, int)
        jobs = _field(payload, "jobs", None, int, NoneType)
        if jobs is not None and jobs > 0:
            # The supervisor starts all its workers at once, so one
            # request may ask for every core (``0``) but never more.
            jobs = min(jobs, os.cpu_count() or 1)
        partial = _field(payload, "partial", False, bool)
        fault_plan = None
        fault = payload.get("fault")
        if fault is not None:
            if not isinstance(fault, dict):
                raise HttpProtocolError(422, "'fault' must be an object")
            if not self.config.chaos:
                raise HttpProtocolError(
                    422, "fault injection requires --chaos"
                )
            kind = _field(fault, "kind", "raise", str, within="fault.")
            if kind not in WORKER_FAULT_KINDS:
                raise HttpProtocolError(
                    422, f"'fault.kind' must be one of {WORKER_FAULT_KINDS}"
                )
            hang_seconds = _field(
                fault, "hang_seconds", 3600.0, int, float, within="fault."
            )
            if not 0 <= hang_seconds < math.inf:  # NaN fails both
                raise HttpProtocolError(
                    422, "'fault.hang_seconds' must be a finite number >= 0"
                )
            fault_plan = ProcessFaultPlan.single(
                _field(fault, "index", 0, int, within="fault."),
                kind,
                times=_field(fault, "times", None, int, NoneType, within="fault."),
                marker_dir=_field(
                    fault, "marker_dir", None, str, NoneType, within="fault."
                ),
                hang_seconds=float(hang_seconds),
            )

        def _scan():
            return self.engine.scan_corpus(
                pattern,
                text,
                chunk_bytes=chunk_bytes,
                jobs=jobs,
                strict=not partial,
                fault_plan=fault_plan,
            )

        result = await self._in_executor(_scan)
        response = {
            "matched": result.matched,
            "chunks": result.chunks,
            "matched_chunks": result.matched_chunks,
            "bytes": result.bytes_scanned,
        }
        if partial:
            response["complete"] = result.complete
            response["retries"] = result.retries
            response["outcomes"] = [
                outcome.to_dict() for outcome in result.errors()
            ]
        return 200, json.dumps(response, sort_keys=True).encode()

    async def _handle_stream(self, request: Request) -> Tuple[int, bytes]:
        headers = request.headers
        pattern = headers.get("x-repro-pattern")
        if pattern is None:
            name = headers.get("x-repro-name")
            if name is None:
                raise HttpProtocolError(
                    422,
                    "provide X-Repro-Pattern or X-Repro-Tenant/X-Repro-Name",
                )
            pattern = self.tenants.resolve(headers.get("x-repro-tenant"),
                                           name)
        matcher = await self._in_executor(self.engine.matcher, pattern)
        streamer = StreamingMatcher(matcher.dfa_matcher)
        settled = None
        fed = 0
        async for piece in request.iter_body():
            fed += len(piece)
            if settled is None:
                settled = await self._in_executor(streamer.feed, piece)
        self._stream_bytes.inc(fed)
        result = settled if settled is not None else streamer.finish()
        body = json.dumps(
            {
                "matched": result.matched,
                "position": result.position,
                "bytes": fed,
                "settled_early": settled is not None,
                "accelerated": streamer.accelerated,
            },
            sort_keys=True,
        ).encode()
        return 200, body


async def _serve_async(config: ServiceConfig) -> int:
    service = MatchService(config)
    await service.start()
    print(f"repro-serve listening on {service.host}:{service.port}",
          flush=True)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    reason = {"signal": "stop"}

    def _signal(name: str) -> None:
        reason["signal"] = name
        stop.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, _signal, sig.name)
        except NotImplementedError:  # non-POSIX event loops
            pass
    await stop.wait()
    elapsed = await service.drain(reason["signal"])
    print(f"repro-serve drained in {elapsed:.3f}s", flush=True)
    return 0


def serve(config: ServiceConfig) -> int:
    """Blocking entry point for ``repro serve``; returns the exit code."""
    return asyncio.run(_serve_async(config))


__all__ = ["EXEMPT_PATHS", "MatchService", "serve"]
