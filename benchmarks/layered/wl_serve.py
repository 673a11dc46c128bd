"""``serve_match``: the HTTP daemon under a closed-loop client.

``python -m repro.cli serve --port 0 --stats-file <tmp>`` runs as a
subprocess.  Two keep-alive connections (= ``nproc``), driven by one
selector loop so the client itself never contends for the interpreter
lock, each send their next request only after the previous reply:
80 % ``POST /match`` (16 brill rules, 500-byte texts) and 20 %
``POST /scan`` (8 KiB texts, ``chunk_bytes=500``) from a seeded schedule.

Client and daemon share one CPU.  A closed loop of two connections is a
ping-pong — on two CPUs it served no more requests than on one — and on
a shared host the wake-up from one virtual CPU to the other was the
noise: of 30 alternating pairs of 8 s runs the unpinned ones spread by
22 % (eleven in a row read 20 % low), the pinned ones by 3.3 %.
"""

from __future__ import annotations

import asyncio
import ctypes
import json
import os
import random
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

from repro.engine import Engine
from repro.service.http import read_request, render_response
from repro.workloads import brill

from harness import ROOT, Pass, Recorder, clock, percentile
from inputs import CHUNK_BYTES, oracle, split, suite
from workload import Workload, verdict

CONNECTIONS = 2
SCAN_BYTES = 8192
START_TIMEOUT = 30.0
#: A pass is one segment of load; short ones, so that some segment of a
#: run falls between the slow stretches of a shared box.
SEGMENTS = 24
PR_SET_PDEATHSIG = 1
COUNTED_ENDPOINTS = ('endpoint="/match"', 'endpoint="/scan"')


def _render(path: str, payload: Optional[dict] = None) -> bytes:
    if payload is None:
        return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
    body = json.dumps(payload).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


def _die_with_parent() -> None:
    """In the child, before exec: a harness that is killed outright (a
    driver's timeout) must not leave the daemon running.  Linux only, as
    is reading the daemon's ``VmHWM``; the harness has no threads here."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


class Connection:
    """One keep-alive socket with at most one request in flight."""

    def __init__(self, address: Tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=START_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def poll(self) -> Optional[Tuple[int, bytes]]:
        """Read what has arrived; the reply once its last body byte is in."""
        data = self.sock.recv(65536)
        if not data:
            raise ConnectionError("daemon closed the connection")
        self.buffer += data
        head_end = self.buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = self.buffer[:head_end].decode("latin-1")
        length = 0
        for line in head.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.lower() == "content-length":
                length = int(value)
        if len(self.buffer) < head_end + 4 + length:
            return None
        body = self.buffer[head_end + 4 : head_end + 4 + length]
        self.buffer = self.buffer[head_end + 4 + length :]
        return int(head.split(" ", 2)[1]), body

    def request(self, raw: bytes) -> Tuple[int, bytes]:
        self.sock.sendall(raw)
        while True:
            reply = self.poll()
            if reply is not None:
                return reply

    def close(self) -> None:
        self.sock.close()


class ServeMatch(Workload):
    name = "serve_match"
    work_unit = "replies"
    op = "request (send -> last body byte)"
    rate_alias = "req_per_s"
    tail_pct = 99
    #: A segment is a span of time, not a list of requests: its best
    #: segment stands for the run.
    aligned = False

    rule_count = 16
    pool = 1024
    warm_seconds = 1.0
    floor_samples = 300
    tiny = {"rule_count": 3, "pool": 40, "warm_seconds": 0.1, "floor_samples": 20}

    process: Optional[subprocess.Popen] = None
    affinity: Optional[set] = None
    tmp: Optional[str] = None
    exit_code: Optional[int] = None

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    def _schedule(self) -> None:
        rng = random.Random(self.seed)
        rules = suite("brill")[: self.rule_count]
        matchers = {rule: oracle(rule) for rule in rules}
        texts = split(
            brill.generate_input(rules, 64 * CHUNK_BYTES, seed=self.seed),
            CHUNK_BYTES,
        )
        long_texts = split(
            brill.generate_input(rules, 16 * SCAN_BYTES, seed=self.seed + 1),
            SCAN_BYTES,
        )
        self.rules = rules
        #: (endpoint, raw request, expected reply fields, pattern, text)
        self.requests = []
        for _ in range(self.pool):
            rule = rng.choice(rules)
            if rng.random() < 0.8:
                text = rng.choice(texts)
                expected = {"matched": matchers[rule](text.encode("latin-1"))}
                raw = _render("/match", {"pattern": rule, "text": text})
                self.requests.append(("/match", raw, expected, rule, text))
            else:
                text = rng.choice(long_texts)
                chunks = split(text.encode("latin-1"), CHUNK_BYTES)
                expected = {
                    "chunks": len(chunks),
                    "matched_chunks": sum(map(matchers[rule], chunks)),
                }
                raw = _render(
                    "/scan",
                    {"pattern": rule, "text": text, "chunk_bytes": CHUNK_BYTES},
                )
                self.requests.append(("/scan", raw, expected, rule, text))

    # ------------------------------------------------------------------
    # Daemon
    # ------------------------------------------------------------------
    def setup(self) -> None:
        self._schedule()
        # Inherited by the daemon; see the module docstring.
        self.affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.affinity)})
        scratch = ROOT / ".bench_tmp"
        scratch.mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="serve-", dir=scratch)
        started = clock()
        with open(os.path.join(self.tmp, "daemon.err"), "wb") as errors:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--port", "0",
                    "--stats-file", os.path.join(self.tmp, "stats.json"),
                ],
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                stdout=subprocess.PIPE,
                stderr=errors,
                preexec_fn=_die_with_parent,
            )
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(START_TIMEOUT):
                raise SystemExit("serve_match: daemon printed no address")
        line = self.process.stdout.readline().decode()
        if "listening on" not in line:
            raise SystemExit(f"serve_match: daemon said {line!r}")
        host, _, port = line.strip().rpartition(" ")[2].rpartition(":")
        address = (host, int(port))
        self.connections = [Connection(address) for _ in range(CONNECTIONS)]
        deadline = clock() + START_TIMEOUT
        while self.connections[0].request(_render("/readyz"))[0] != 200:
            if clock() > deadline:
                raise SystemExit("serve_match: daemon never became ready")
        self.startup_seconds = clock() - started

    def warm_up(self) -> None:
        """Every rule compiled into the daemon's cache, then a second of load."""
        for rule in self.rules:
            self.connections[0].request(
                _render("/match", {"pattern": rule, "text": ""})
            )
        self._drive(self.warm_seconds)

    def peak_rss_mb(self) -> float:
        """The daemon's high-water mark, not the client's."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise SystemExit("serve_match: no VmHWM for the daemon")

    def close(self) -> None:
        """SIGTERM and require exit 0; never leave a daemon behind."""
        for connection in getattr(self, "connections", ()):
            connection.close()
        self.connections = []
        process, self.process = self.process, None
        try:
            if process is not None:
                process.send_signal(signal.SIGTERM)
                try:
                    self.exit_code = process.wait(timeout=15)
                finally:
                    if process.poll() is None:
                        process.kill()
                        process.wait()
                    process.stdout.close()
        finally:
            if self.affinity is not None:
                os.sched_setaffinity(0, self.affinity)
            if self.tmp is not None:
                shutil.rmtree(self.tmp, ignore_errors=True)
                self.tmp = None
        if process is not None and self.exit_code != 0:
            raise SystemExit(f"serve_match: daemon exited with {self.exit_code}")

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def _drive(self, seconds: float, rec: Optional[Recorder] = None):
        """Closed loop on every connection for ``seconds``.

        Returns ``(wall, [(request index, status, body, latency)])``.
        """
        requests = self.requests
        replies = []
        cursor = [index * len(requests) // CONNECTIONS for index in range(CONNECTIONS)]
        sent_at = [0.0] * CONNECTIONS
        with selectors.DefaultSelector() as selector:
            started = clock()
            deadline = started + seconds
            for index, connection in enumerate(self.connections):
                selector.register(connection.sock, selectors.EVENT_READ, index)
                sent_at[index] = clock()
                connection.sock.sendall(requests[cursor[index]][1])
            inflight = CONNECTIONS
            while inflight:
                events = selector.select(START_TIMEOUT)
                if not events:
                    raise SystemExit("serve_match: no reply within the timeout")
                for key, _ in events:
                    index = key.data
                    connection = self.connections[index]
                    reply = connection.poll()
                    if reply is None:
                        continue
                    now = clock()
                    slot = cursor[index]
                    replies.append((slot, reply[0], reply[1], now - sent_at[index]))
                    if rec is not None:
                        rec.leaf(
                            "service" + requests[slot][0].replace("/", "."),
                            sent_at[index],
                            now,
                        )
                    if now >= deadline:
                        selector.unregister(connection.sock)
                        inflight -= 1
                        continue
                    cursor[index] = slot = (slot + 1) % len(requests)
                    sent_at[index] = clock()
                    connection.sock.sendall(requests[slot][1])
            wall = clock() - started
        return wall, replies

    def corrupt_oracle(self) -> None:
        self.requests[0][2]["no such field"] = True

    def input_bytes(self) -> bytes:
        return b"".join(raw for _, raw, _, _, _ in self.requests)

    def _check(self, replies) -> Tuple[int, List[str]]:
        failed = 0
        notes = []
        for slot, status, body, _ in replies:
            expected = self.requests[slot][2]
            got = json.loads(body) if status == 200 else {}
            if any(got.get(key) != value for key, value in expected.items()):
                failed += 1
                notes.append(
                    f"{self.requests[slot][0]} #{slot}: {status} {body!r:.80}, "
                    f"want {expected}"
                )
        return failed, notes

    def run_pass(self) -> Pass:
        wall, replies = self._drive(self.seconds / SEGMENTS)
        failed, notes = self._check(replies)
        self.reference_rate = len(replies) / wall
        return Pass(
            wall=wall,
            work=len(replies),
            latencies=[latency for _, _, _, latency in replies],
            attempted=len(replies),
            failed=failed,
            notes=notes,
        )

    # ------------------------------------------------------------------
    # Traced run
    # ------------------------------------------------------------------
    def trace_setup(self, rec: Recorder) -> Dict[str, float]:
        connection = self.connections[0]
        healthz = _render("/healthz")
        floor = []
        for _ in range(self.floor_samples):
            started = clock()
            connection.request(healthz)
            floor.append(clock() - started)
            rec.leaf("service.healthz", started, started + floor[-1])
        values = {
            "service.startup_s": self.startup_seconds,
            "service.transport.floor_ms": 1e3 * percentile(sorted(floor), 50),
        }

        # The daemon's own layers on the same requests, in this process.
        async def parse(raw: bytes) -> None:
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            request = await read_request(reader)
            await request.body()

        async def parse_all() -> None:
            for _, raw, _, _, _ in self.requests:
                await parse(raw)

        loop = asyncio.new_event_loop()
        try:
            with rec.span("service.http.read"):
                loop.run_until_complete(parse_all())
        finally:
            loop.close()
        bodies = [
            json.dumps(expected).encode() for _, _, expected, _, _ in self.requests
        ]
        with rec.span("service.http.write"):
            for body in bodies:
                render_response(200, body)
        engine = Engine()
        matches = [
            (rule, text)
            for endpoint, _, _, rule, text in self.requests
            if endpoint == "/match"
        ]
        for rule in self.rules:
            engine.match(rule, "")
        with rec.span("engine.match"):
            for rule, text in matches:
                engine.match(rule, text)
        self.match_requests = len(matches)
        return values

    def _settled(self) -> int:
        status, body = self.connections[0].request(_render("/metrics"))
        total = 0.0
        for line in body.decode().splitlines():
            if line.startswith("repro_service_requests_total") and any(
                endpoint in line for endpoint in COUNTED_ENDPOINTS
            ):
                total += float(line.rsplit(" ", 1)[1])
        return int(total)

    def trace_pass(self, rec: Recorder) -> Dict[str, float]:
        before = self._settled()
        wall, replies = self._drive(self.seconds / SEGMENTS, rec)
        settled = self._settled() - before
        failed, notes = self._check(replies)
        if failed:
            raise SystemExit(f"serve_match: traced replies wrong: {notes[:3]}")
        by_endpoint: Dict[str, List[float]] = {"/match": [], "/scan": []}
        for slot, _, _, latency in replies:
            by_endpoint[self.requests[slot][0]].append(latency)
        values = {
            "service.latency_p99_ms": 1e3
            * percentile(sorted(latency for _, _, _, latency in replies), 99),
            "service.settled_over_sent": settled / len(replies),
            "service.shed": sum(1 for _, status, _, _ in replies if status == 429),
            "trace.overhead_frac": self.reference_rate / (len(replies) / wall) - 1.0,
        }
        for endpoint, latencies in by_endpoint.items():
            latencies.sort()
            layer = "service" + endpoint.replace("/", ".")
            values[layer + ".p50_ms"] = 1e3 * percentile(latencies, 50)
            values[layer + ".p99_ms"] = 1e3 * percentile(latencies, 99)
        return values

    def finish(self, layers: Dict[str, float]) -> List[str]:
        engine_ms = 1e3 * layers["engine.match.busy_s"] / self.match_requests
        layers["service.wrapper_ms"] = (
            layers["service.match.p50_ms"]
            - layers["service.transport.floor_ms"]
            - engine_ms
        )
        layers["service.drain_exit_code"] = self.exit_code
        share = engine_ms / layers["service.match.p50_ms"]
        return [
            f"{verdict(share <= 0.15)} engine.match per /match "
            f"request = {engine_ms:.4f} ms = {share:.3f} of its p50 (want <= 0.15)"
        ]
