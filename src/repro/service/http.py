"""Minimal HTTP/1.1 over asyncio streams — zero dependencies.

The service speaks just enough HTTP for its JSON endpoints and the
chunk-at-a-time ``/stream`` body: request line + headers bounded in
size and read under one slow-loris deadline for the whole head, bodies
by ``Content-Length`` or ``chunked`` transfer coding, keep-alive by
default.  This is *not* a general server — it is the narrow, testable
waist the chaos suite beats on (oversized heads, trickled bytes,
half-closed sockets all settle with one well-formed response or a clean
close, never a hang).

Every time bound a connection is under is kept by its one
:class:`Deadline`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import AsyncIterator, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

#: Bound on the request head (request line + headers).  Oversized heads
#: are a classic memory-DoS vector; 16 KiB fits every legitimate client.
MAX_HEAD_BYTES = 16 * 1024

#: The bounds a :class:`Deadline` records as expired: the three phases
#: of reading a request, and the handler's request bound.
IDLE, HEAD, BODY, REQUEST = "idle", "head", "body", "request"

_NEVER = float("inf")

STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


_STATUS_LINES = {
    status: f"HTTP/1.1 {status} {phrase}\r\n".encode("latin-1")
    for status, phrase in STATUS_PHRASES.items()
}
_JSON_TYPE = b"Content-Type: application/json\r\nContent-Length: "
_KEEP_ALIVE = b"\r\nConnection: keep-alive\r\n"
_CLOSE = b"\r\nConnection: close\r\n"


class Deadline:
    """The time bounds of one connection, kept by at most one timer.

    Two bounds can run at once: a *phase* bound, which each phase of
    reading a request moves (:meth:`move`) and drops once its read is
    done (:meth:`clear`), and the handler's *request* bound
    (:meth:`limit` / :meth:`unlimit`).  Moving a bound later only
    stores a float — the armed timer, when it fires before any bound is
    due, re-arms itself at the nearest one — so a busy keep-alive
    connection schedules about one timer per phase length, not one per
    phase.  Moving a bound earlier re-arms at once.

    On expiry the timer cancels the task that created the deadline and
    records which bound ran out (the earlier one when both did).  The
    ``except CancelledError`` at the await asks :meth:`take` whether
    the cancellation is that expiry; a cancellation with none recorded
    came from elsewhere (the drain) and goes on up.
    """

    __slots__ = (
        "_loop", "_task", "_phase", "_phase_at", "_request_at",
        "_handle", "_armed_at", "_expired",
    )

    def __init__(self) -> None:
        task = asyncio.current_task()
        if task is None:
            raise RuntimeError("a Deadline needs a running task")
        self._loop = task.get_loop()
        self._task = task
        self._phase = IDLE
        self._phase_at = self._request_at = self._armed_at = _NEVER
        self._handle: Optional[asyncio.TimerHandle] = None
        self._expired: Optional[str] = None

    def move(self, phase: str, seconds: Optional[float]) -> None:
        """Bound ``phase`` to end ``seconds`` from now (``None``: never)."""
        self._phase = phase
        self._phase_at = self._at(seconds)

    def clear(self) -> None:
        """The phase's read is done: drop its bound."""
        self._phase_at = _NEVER

    def limit(self, seconds: float) -> None:
        """Bound the request to end ``seconds`` from now."""
        self._request_at = self._at(seconds)

    def unlimit(self) -> None:
        self._request_at = _NEVER

    def take(self, bound: str) -> bool:
        """Whether the cancellation being handled is ``bound``'s expiry.

        If it is, the expiry is consumed and the cancellation taken
        back (``Task.uncancel``, Python ≥ 3.11) — unless another
        cancellation is outstanding too, which then goes on up.
        """
        if self._expired != bound:
            return False
        self._expired = None
        uncancel = getattr(self._task, "uncancel", None)
        return uncancel is None or uncancel() == 0

    def close(self) -> None:
        """Disarm the timer; the connection is over."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _at(self, seconds: Optional[float]) -> float:
        if seconds is None:
            return _NEVER
        when = self._loop.time() + seconds
        if when < self._armed_at:
            self._arm(when)
        return when

    def _arm(self, when: float) -> None:
        if self._handle is not None:
            self._handle.cancel()
        self._armed_at = when
        self._handle = self._loop.call_at(when, self._fire)

    def _fire(self) -> None:
        # The loop runs a timer once its time is due, so a bound at or
        # before the armed time is due; a later one was moved since.
        armed_at, self._armed_at, self._handle = self._armed_at, _NEVER, None
        phase_at, request_at = self._phase_at, self._request_at
        nearest = min(phase_at, request_at)
        if nearest > armed_at:
            if nearest < _NEVER:
                self._arm(nearest)
            return
        self._expired = REQUEST if request_at <= phase_at else self._phase
        self._task.cancel()


class HttpProtocolError(Exception):
    """Malformed or over-limit request; carries the status to answer."""

    def __init__(self, status: int, detail: str):
        self.status = status
        self.detail = detail
        super().__init__(detail)


@dataclass
class Request:
    """One parsed request head plus a handle to read its body."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    reader: asyncio.StreamReader
    deadline: Deadline
    body_timeout: Optional[float] = None
    max_body_bytes: int = 64 * 1024 * 1024
    _body: Optional[bytes] = field(default=None, repr=False)
    _started: bool = field(default=False, repr=False)
    _done: bool = field(default=False, repr=False)

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if connection == "close":
            return False
        return True  # HTTP/1.1 default

    def content_length(self) -> Optional[int]:
        raw = self.headers.get("content-length")
        if raw is None:
            return None
        try:
            length = int(raw)
        except ValueError:
            raise HttpProtocolError(400, f"bad Content-Length {raw!r}")
        if length < 0:
            raise HttpProtocolError(400, f"bad Content-Length {raw!r}")
        return length

    @property
    def chunked(self) -> bool:
        coding = self.headers.get("transfer-encoding", "").lower()
        return "chunked" in coding

    async def _read(self, count: Optional[int] = None) -> bytes:
        """``count`` body bytes, or one line when ``count`` is ``None``
        (chunked framing), under the deadline's body bound."""
        deadline = self.deadline
        deadline.move(BODY, self.body_timeout)
        try:
            if count is not None:
                return await self.reader.readexactly(count)
            line = await self.reader.readline()
        except asyncio.IncompleteReadError:
            raise HttpProtocolError(400, "connection closed mid-body")
        except ValueError:  # a line past the reader's limit
            raise HttpProtocolError(400, "chunk line too long")
        except asyncio.CancelledError:
            if deadline.take(BODY):
                raise HttpProtocolError(408, "timed out reading request body")
            raise
        finally:
            deadline.clear()
        if not line.endswith(b"\n"):
            raise HttpProtocolError(400, "connection closed mid-body")
        return line

    async def iter_body(
        self, chunk_bytes: int = 64 * 1024
    ) -> AsyncIterator[bytes]:
        """Yield body chunks as they arrive (the ``/stream`` feed).

        Honors ``Content-Length`` or ``chunked`` transfer coding; total
        size is bounded by ``max_body_bytes`` (413 past it).  Chunks
        are yielded as read, so a matcher downstream sees data with
        exactly the chunk boundaries the network produced.
        """
        self._started = True
        total = 0
        if self.chunked:
            while True:
                size_line = await self._read()
                try:
                    size = int(size_line.split(b";", 1)[0].strip(), 16)
                except ValueError:
                    raise HttpProtocolError(400, "bad chunk size")
                if size < 0:
                    raise HttpProtocolError(400, "bad chunk size")
                if size == 0:
                    await self._read()  # trailing CRLF (no trailers)
                    self._done = True
                    return
                total += size
                if total > self.max_body_bytes:
                    raise HttpProtocolError(413, "request body too large")
                remaining = size
                while remaining:
                    piece = await self._read(min(remaining, chunk_bytes))
                    remaining -= len(piece)
                    yield piece
                await self._read(2)  # chunk CRLF
            return
        length = self.content_length()
        if length is None or length == 0:
            self._done = True
            return
        if length > self.max_body_bytes:
            raise HttpProtocolError(413, "request body too large")
        remaining = length
        while remaining:
            piece = await self._read(min(remaining, chunk_bytes))
            remaining -= len(piece)
            yield piece
        self._done = True

    async def body(self) -> bytes:
        """The whole body (cached; JSON endpoints use this)."""
        if self._body is None:
            parts = []
            async for piece in self.iter_body():
                parts.append(piece)
            self._body = b"".join(parts)
        return self._body

    def unread_body(self) -> Optional[int]:
        """Body bytes a reply written now would leave in the stream.

        ``0`` once the body was read to its end (or none was declared),
        the declared length before any read, ``None`` when the count
        cannot be known: ``chunked`` coding, a body abandoned part-way,
        a malformed ``Content-Length``.
        """
        if self._done:
            return 0
        if self._started or self.chunked:
            return None
        try:
            return self.content_length() or 0
        except HttpProtocolError:
            return None

    async def discard_body(self) -> bool:
        """Read an unread body and drop it; ``False`` when the client
        stalled, hung up or overran ``max_body_bytes`` first — the
        stream is then not at a request boundary."""
        try:
            async for _ in self.iter_body():
                pass
        except HttpProtocolError:
            return False
        return True


async def _read_headers(
    reader: asyncio.StreamReader, head_bytes: int
) -> Dict[str, str]:
    """Header lines up to the blank line; ``head_bytes`` counts the
    request line already read against :data:`MAX_HEAD_BYTES`."""
    headers: Dict[str, str] = {}
    while True:
        try:
            line = await reader.readline()
        except ValueError:  # a line past the reader's limit
            raise HttpProtocolError(400, "header line too long")
        if not line.endswith(b"\n"):
            raise HttpProtocolError(400, "connection closed mid-head")
        head_bytes += len(line)
        if head_bytes > MAX_HEAD_BYTES:
            raise HttpProtocolError(400, "request head too large")
        if line in (b"\r\n", b"\n"):
            return headers
        try:
            name, value = line.decode("latin-1").split(":", 1)
        except ValueError:
            raise HttpProtocolError(400, f"bad header line {line!r}")
        headers[name.strip().lower()] = value.strip()


async def read_request(
    reader: asyncio.StreamReader,
    deadline: Optional[Deadline] = None,
    *,
    head_timeout: Optional[float] = None,
    idle_timeout: Optional[float] = None,
    body_timeout: Optional[float] = None,
    max_body_bytes: int = 64 * 1024 * 1024,
) -> Optional[Request]:
    """Parse one request head; ``None`` on clean connection close.

    The bounds are phases of ``deadline`` (the connection's; a fresh
    one when none is given).  ``idle_timeout`` bounds the wait for the
    request line (keep-alive idling); ``head_timeout`` bounds the read
    of the *whole* rest of the head, however many lines it is cut into
    — a slow-loris client trickling header bytes gets a 408, not a
    held socket; ``body_timeout`` bounds each read of the body.
    """
    if deadline is None:
        deadline = Deadline()
    deadline.move(IDLE, idle_timeout)
    try:
        first = await reader.readline()
    except asyncio.CancelledError:
        if deadline.take(IDLE):
            return None  # idle keep-alive connection: just close it
        raise
    except ValueError:  # a line past the reader's limit
        raise HttpProtocolError(400, "request line too long")
    finally:
        deadline.clear()
    if not first:
        return None
    if not first.endswith(b"\n"):
        if len(first) >= MAX_HEAD_BYTES:
            raise HttpProtocolError(400, "request line too long")
        return None  # closed mid-line

    try:
        method, target, version = first.decode("latin-1").split()
    except ValueError:
        raise HttpProtocolError(400, f"bad request line {first!r}")
    if not version.startswith("HTTP/1."):
        raise HttpProtocolError(400, f"unsupported version {version!r}")

    deadline.move(HEAD, head_timeout)
    try:
        headers = await _read_headers(reader, len(first))
    except asyncio.CancelledError:
        if deadline.take(HEAD):
            raise HttpProtocolError(408, "timed out reading request head")
        raise
    finally:
        deadline.clear()

    parts = urlsplit(target)
    query = (
        dict(parse_qsl(parts.query, keep_blank_values=True))
        if parts.query
        else {}
    )
    return Request(
        method=method.upper(),
        path=parts.path,
        query=query,
        headers=headers,
        reader=reader,
        deadline=deadline,
        body_timeout=body_timeout,
        max_body_bytes=max_body_bytes,
    )


def render_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    extra_headers: Tuple[Tuple[str, str], ...] = (),
    keep_alive: bool = True,
) -> bytes:
    parts = [
        _STATUS_LINES.get(status)
        or f"HTTP/1.1 {status} Unknown\r\n".encode("latin-1"),
        _JSON_TYPE
        if content_type == "application/json"
        else f"Content-Type: {content_type}\r\nContent-Length: ".encode(
            "latin-1"
        ),
        b"%d" % len(body),
        _KEEP_ALIVE if keep_alive else _CLOSE,
    ]
    for name, value in extra_headers:
        parts.append(f"{name}: {value}\r\n".encode("latin-1"))
    parts.append(b"\r\n")
    parts.append(body)
    return b"".join(parts)


__all__ = [
    "BODY",
    "HEAD",
    "IDLE",
    "MAX_HEAD_BYTES",
    "REQUEST",
    "Deadline",
    "HttpProtocolError",
    "Request",
    "read_request",
    "render_response",
]
