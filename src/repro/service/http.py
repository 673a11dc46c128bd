"""Minimal HTTP/1.1 over asyncio streams — zero dependencies.

The service speaks just enough HTTP for its JSON endpoints and the
chunk-at-a-time ``/stream`` body: request line + headers bounded in
size and read under one slow-loris deadline for the whole head, bodies
by ``Content-Length`` or ``chunked`` transfer coding, keep-alive by
default.  This is *not* a general server — it is the narrow, testable
waist the chaos suite beats on (oversized heads, trickled bytes,
half-closed sockets all settle with one well-formed response or a clean
close, never a hang).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import AsyncIterator, Awaitable, Dict, Optional, Tuple, TypeVar
from urllib.parse import parse_qsl, urlsplit

T = TypeVar("T")

#: Bound on the request head (request line + headers).  Oversized heads
#: are a classic memory-DoS vector; 16 KiB fits every legitimate client.
MAX_HEAD_BYTES = 16 * 1024

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


if hasattr(asyncio, "timeout"):

    async def within(seconds: Optional[float], awaitable: Awaitable[T]) -> T:
        """``await awaitable``, or ``asyncio.TimeoutError`` after ``seconds``.

        The deadline is a timer on the calling task — no Task is
        created — and :func:`asyncio.timeout` keeps its own expiry
        apart from a cancellation that arrives from outside (the drain
        path cancels request tasks): the first surfaces as
        ``TimeoutError``, the second stays ``CancelledError``.
        """
        if seconds is None:
            return await awaitable
        async with asyncio.timeout(seconds):
            return await awaitable

else:  # Python < 3.11 has no asyncio.timeout; wait_for wraps a Task.

    async def within(seconds: Optional[float], awaitable: Awaitable[T]) -> T:
        return await asyncio.wait_for(awaitable, seconds)


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

    async def _read_exactly(self, count: int) -> bytes:
        try:
            return await within(
                self.body_timeout, self.reader.readexactly(count)
            )
        except asyncio.IncompleteReadError:
            raise HttpProtocolError(400, "connection closed mid-body")
        except asyncio.TimeoutError:
            raise HttpProtocolError(408, "timed out reading request body")

    async def _read_line(self) -> bytes:
        try:
            line = await within(self.body_timeout, self.reader.readline())
        except asyncio.TimeoutError:
            raise HttpProtocolError(408, "timed out reading request body")
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
                size_line = await self._read_line()
                try:
                    size = int(size_line.split(b";", 1)[0].strip(), 16)
                except ValueError:
                    raise HttpProtocolError(400, "bad chunk size")
                if size < 0:
                    raise HttpProtocolError(400, "bad chunk size")
                if size == 0:
                    await self._read_line()  # trailing CRLF (no trailers)
                    self._done = True
                    return
                total += size
                if total > self.max_body_bytes:
                    raise HttpProtocolError(413, "request body too large")
                remaining = size
                while remaining:
                    piece = await self._read_exactly(
                        min(remaining, chunk_bytes)
                    )
                    remaining -= len(piece)
                    yield piece
                await self._read_exactly(2)  # chunk CRLF
            return
        length = self.content_length()
        if length is None or length == 0:
            self._done = True
            return
        if length > self.max_body_bytes:
            raise HttpProtocolError(413, "request body too large")
        remaining = length
        while remaining:
            piece = await self._read_exactly(min(remaining, chunk_bytes))
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
        line = await reader.readline()
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
    *,
    head_timeout: Optional[float] = None,
    idle_timeout: Optional[float] = None,
    body_timeout: Optional[float] = None,
    max_body_bytes: int = 64 * 1024 * 1024,
) -> Optional[Request]:
    """Parse one request head; ``None`` on clean connection close.

    ``idle_timeout`` bounds the wait for the request line (keep-alive
    idling); ``head_timeout`` bounds the read of the *whole* rest of
    the head, however many lines it is cut into — a slow-loris client
    trickling header bytes gets a 408, not a held socket.
    """
    try:
        first = await within(idle_timeout, reader.readline())
    except asyncio.TimeoutError:
        return None  # idle keep-alive connection: just close it
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

    try:
        headers = await within(
            head_timeout, _read_headers(reader, len(first))
        )
    except asyncio.TimeoutError:
        raise HttpProtocolError(408, "timed out reading request head")

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
    "MAX_HEAD_BYTES",
    "HttpProtocolError",
    "Request",
    "read_request",
    "render_response",
    "within",
]
