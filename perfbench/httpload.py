"""A closed-loop HTTP/1.1 load client on asyncio streams.

Each connection is kept alive and sends its next request only after the
previous response has been read in full, which models callers that wait
for every answer.  Framing is the subset the server speaks: requests and
responses carry ``Content-Length`` bodies, never chunked encoding.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Longest status line or header line accepted from the server.
MAX_LINE = 16 * 1024


class FramingError(Exception):
    """The server sent a response this client cannot frame."""


def encode_request(path: str, body: bytes, host: str = "127.0.0.1") -> bytes:
    """A keep-alive ``POST`` carrying a JSON body."""
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


def encode_get(path: str, host: str = "127.0.0.1") -> bytes:
    """A keep-alive ``GET`` without a body."""
    return (
        f"GET {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: 0\r\n"
        "Connection: keep-alive\r\n\r\n"
    ).encode("ascii")


async def read_response(reader: asyncio.StreamReader) -> Tuple[int, Dict[str, str], bytes]:
    """Read one response: ``(status, lower-cased headers, body)``.

    The body is exactly ``Content-Length`` bytes, so the next response on
    the same connection starts where this one ends.
    """
    status_line = await reader.readline()
    if not status_line:
        raise FramingError("connection closed before a status line")
    parts = status_line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1.") or not parts[1].isdigit():
        raise FramingError(f"malformed status line {status_line!r}")
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if len(line) > MAX_LINE:
            raise FramingError("header line too long")
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise FramingError("connection closed inside the headers")
        name, separator, value = line.decode("latin-1").partition(":")
        if not separator:
            raise FramingError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding", "").lower() == "chunked":
        raise FramingError("chunked responses are not supported")
    length = headers.get("content-length")
    if length is None or not length.isdigit():
        raise FramingError(f"response without a valid Content-Length: {length!r}")
    body = await reader.readexactly(int(length))
    return int(parts[1]), headers, body


class Connection:
    """One keep-alive connection issuing requests strictly one at a time."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port, limit=MAX_LINE)
        return cls(reader, writer)

    async def send(self, raw_request: bytes) -> Tuple[int, Dict[str, str], bytes]:
        self._writer.write(raw_request)
        await self._writer.drain()
        status, headers, body = await read_response(self._reader)
        if headers.get("connection", "").lower() == "close":
            raise FramingError("server closed the keep-alive connection")
        return status, headers, body

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass


@dataclass(frozen=True)
class Job:
    """One request of a stream: raw bytes, its kind, the queries it carries
    and the body expected back (``None`` skips the byte check)."""

    kind: str
    raw: bytes
    queries: int
    expected: Optional[bytes]


@dataclass
class Sample:
    kind: str
    start: float
    end: float
    queries: int
    ok: bool
    #: Index of the timed segment the request was sent in.
    segment: int = 0


def normalise_cached(body: bytes) -> bytes:
    """The body with every ``cached`` provenance flag cleared, so answers
    compare equal whether or not the answer cache served them."""
    return body.replace(b'"cached":true', b'"cached":false')


async def _stream(
    connection: Connection, jobs: Sequence[Job], offset: int, stop_at: float,
    samples: Optional[List[Sample]], segment: int = 0,
) -> int:
    """Send ``jobs`` cyclically until ``stop_at``; return the next offset."""
    position = offset
    while time.perf_counter() < stop_at:
        job = jobs[position % len(jobs)]
        position += 1
        start = time.perf_counter()
        status, _headers, body = await connection.send(job.raw)
        end = time.perf_counter()
        if samples is not None:
            ok = status == 200 and (
                job.expected is None or normalise_cached(body) == job.expected
            )
            samples.append(Sample(job.kind, start, end, job.queries, ok, segment))
    return position


async def closed_loop(
    host: str, port: int, streams: Sequence[Sequence[Job]], seconds: float,
    warmup_seconds: float = 0.0, *, segments: int = 1,
    between: Optional[Callable[[], None]] = None,
) -> Tuple[List[Sample], List[Tuple[float, float]]]:
    """Drive one connection per stream for ``seconds`` after a warm-up.

    The timed phase is ``segments`` equal segments.  ``between()`` runs
    before the first and after every segment, with every connection idle
    (its last response read) and outside the timed segments.

    Returns the samples and the ``(start, stop)`` of every segment; a
    request still in flight at ``stop`` finishes and is recorded in the
    segment it was sent in.  Requests of the warm-up are not recorded.
    """
    if segments < 1:
        raise ValueError("need at least one segment")
    connections = [await Connection.open(host, port) for _ in streams]
    samples: List[Sample] = []
    bounds: List[Tuple[float, float]] = []
    try:
        offsets = [0] * len(streams)
        if warmup_seconds > 0:
            stop = time.perf_counter() + warmup_seconds
            offsets = await asyncio.gather(
                *(_stream(c, s, 0, stop, None) for c, s in zip(connections, streams))
            )
        for segment in range(segments):
            if between is not None and segment == 0:
                between()
            start = time.perf_counter()
            stop = start + seconds / segments
            offsets = await asyncio.gather(
                *(
                    _stream(c, s, o, stop, samples, segment)
                    for c, s, o in zip(connections, streams, offsets)
                )
            )
            bounds.append((start, stop))
            if between is not None:
                between()
    finally:
        for connection in connections:
            await connection.close()
    return samples, bounds
