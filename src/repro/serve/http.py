"""Stdlib-only HTTP front end for :class:`~repro.serve.InferenceService`.

No third-party web framework: an HTTP/1.1 server built on
``asyncio.start_server`` runs on the service's own event loop, so a
request is parsed, served and answered on the one thread that also runs
the batchers and reads the shard pipes.  Endpoints:

- ``POST /infer``  -- body: an :class:`~repro.serve.InferenceRequest`
  JSON object (``inputs`` as nested lists or a tagged ndarray).  Returns
  the :class:`~repro.serve.InferenceResponse` (200), a client error for
  malformed requests / unknown substrates / width mismatches (400), or
  a retryable 503 when the bounded queue is full **or** a worker shard
  died mid-flight (:class:`~repro.serve.types.WorkerCrashed` is a
  :class:`~repro.serve.ServiceOverloaded` -- the shard respawns, the
  client retries; a dead shard never hangs a request).
- ``POST /track/open`` / ``/track/step`` / ``/track/close`` -- stateful
  streaming tracks (:mod:`repro.serve.tracks`): open a live
  particle-filter localization stream (503 + ``Retry-After`` beyond the
  :class:`~repro.runtime.policy.TrackPolicy` admission bound), feed it
  one measurement per step, close it.  Track lifecycle errors are
  typed: 404 for unknown tracks (and services without a track world),
  410 for expired (idle-TTL-evicted) or closed tracks -- never a hang.
- ``GET /healthz`` -- static service configuration plus liveness:
  ``status`` is ``"degraded"`` (with the respawning shard ids) while a
  dead worker shard is being respawned, so load balancers can drain
  early; ``"ok"`` otherwise.
- ``GET /stats``   -- live counters (requests, batches, rejections,
  per-substrate tallies, the warm (substrate, model) pairs, track
  lifecycle tallies, and -- when sharded -- one row per worker shard
  with queue depth and dispatch ages).

Every 503 -- admission bound, shard crash, track admission -- carries a
``Retry-After`` header and machine-readable ``"retryable": true`` in
the JSON body, so clients back off on structure instead of
string-matching error messages.  Any body that fails to decode into a
request is a 400, never a dropped connection.

Connections are persistent (HTTP/1.1 keep-alive, ``TCP_NODELAY``) and
pipelined requests are answered in order.  Bodies are ``Content-Length``
bodies of at most :data:`MAX_BODY_BYTES` (``Transfer-Encoding`` is
refused with 411); ``Expect: 100-continue`` is answered.  A reply sent
before the body was read, or to an HTTP/1.0 or ``Connection: close``
request, closes the connection, so unread bytes are never parsed as the
next request.  An idle connection ends after :data:`IDLE_TIMEOUT_S`; a
request unanswered after :data:`REQUEST_TIMEOUT_S` is cancelled,
releasing its admission slot, and answered 500.

Every body is emitted with :func:`repro.api.results.strict_dumps`, so
the wire never carries bare ``NaN`` / ``Infinity`` tokens: non-finite
floats arrive as tagged ``{"__nonfinite__": ...}`` sentinels that
:func:`repro.api.results.strict_loads` restores exactly.
"""

from __future__ import annotations

import asyncio
import socket
import sys
import threading
from http import HTTPStatus
from typing import Any, Callable, Coroutine

from repro.api.results import strict_dumps, strict_loads
from repro.serve.service import InferenceService
from repro.serve.types import (
    InferenceRequest,
    RequestExecutionError,
    ServiceOverloaded,
    TrackError,
    TrackOpenRequest,
    TrackStepRequest,
    WorkerCrashed,
)

REQUEST_TIMEOUT_S = 300.0
# A keep-alive connection with no request for this long is closed, so an
# idle client never pins a connection.
IDLE_TIMEOUT_S = 30.0
MAX_BODY_BYTES = 32 * 1024 * 1024
# Request line plus headers; a longer head is refused with 431.
MAX_HEADER_BYTES = 64 * 1024
RETRY_AFTER_S = 1

# TrackError.kind -> HTTP status: unknown tracks (and track serving
# being disabled) are 404s; expired/closed tracks are 410 Gone -- the id
# was valid once but will never serve again.
_TRACK_STATUS = {
    "unknown": 404,
    "disabled": 404,
    "expired": 410,
    "closed": 410,
}

# status, JSON payload, extra headers, whether the connection must close
_Reply = tuple[int, Any, dict[str, str], bool]


class _Refused(Exception):
    """A request answered before its body was read: the reply closes
    the connection, so the unread bytes are never parsed as the next
    request."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_head(
    reader: asyncio.StreamReader,
) -> tuple[str, str, str, dict[str, str]] | None:
    """One request line and header section.

    Lines may end in CRLF or a bare LF, and blank lines before the
    request line are skipped.  Returns ``(method, path, version,
    headers)`` with lower-cased header names, or None when the client
    closed the connection.
    """
    lines: list[str] = []
    size = 0
    while True:
        try:
            line = await reader.readline()
        except ValueError:  # one line longer than the reader's limit
            raise _Refused(431, "request header section too large") from None
        size += len(line)
        if size > MAX_HEADER_BYTES:
            raise _Refused(431, "request header section too large")
        if not line:
            return None  # the client went away, between requests or mid-head
        text = line.decode("latin-1").rstrip("\r\n")
        if text:
            lines.append(text)
        elif lines:  # the blank line that ends the head
            break
    request_line, *header_lines = lines
    words = request_line.split()
    if len(words) != 3 or not words[2].startswith("HTTP/1."):
        raise _Refused(400, f"bad request line {request_line[:80]!r}")
    headers: dict[str, str] = {}
    for line in header_lines:
        name, colon, value = line.partition(":")
        if not colon or not name.strip():
            raise _Refused(400, f"bad header line {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    method, path, version = words
    return method, path, version, headers


def _encode_reply(
    status: int, payload: Any, headers: dict[str, str], close: bool
) -> bytes:
    body = strict_dumps(payload).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        *(f"{name}: {value}" for name, value in headers.items()),
    ]
    if close:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _overloaded(error: ServiceOverloaded) -> _Reply:
    """All 503s are structurally retryable: ``Retry-After`` header plus
    ``retryable: true`` in the body, so clients back off without
    string-matching."""
    payload = {"error": str(error), "retryable": True, "pending": error.pending}
    if isinstance(error, WorkerCrashed):
        # Shard death, not an admission bound: report which shard died
        # instead of a meaningless queue limit.
        payload["shard"] = error.shard
    else:
        payload["max_pending"] = error.max_pending
    return 503, payload, {"Retry-After": str(RETRY_AFTER_S)}, False


def _track_close_id(body: str) -> str:
    """The ``track_id`` of a ``/track/close`` body: exactly one field,
    a non-empty string."""
    data = strict_loads(body)
    if not isinstance(data, dict) or set(data) != {"track_id"}:
        raise ValueError("track-close payload must hold exactly 'track_id'")
    track_id = data["track_id"]
    if not isinstance(track_id, str) or not track_id:
        raise ValueError("track-close 'track_id' must be a non-empty string")
    return track_id


# POST path -> (service, body) -> the service coroutine serving it.  A
# body that does not parse raises before any coroutine exists (400).
_ROUTES: dict[str, Callable[[InferenceService, str], Coroutine]] = {
    "/infer": lambda service, body: service.submit(
        InferenceRequest.from_json(body)
    ),
    "/track/open": lambda service, body: service.track_open(
        TrackOpenRequest.from_json(body)
    ),
    "/track/step": lambda service, body: service.track_step(
        TrackStepRequest.from_json(body)
    ),
    "/track/close": lambda service, body: service.track_close(
        _track_close_id(body)
    ),
}


class ServingContext:
    """A running service behind an HTTP server, both on one event loop.

    The loop runs on one daemon thread, ``repro-serve-loop``; it serves
    every connection, runs the batchers and reads the shard pipes.  So
    tests (and the CLI, which then just blocks) can stand up a full
    serving stack in-process::

        with serve_http(service, port=0) as ctx:
            urllib.request.urlopen(f"http://127.0.0.1:{ctx.port}/healthz")
    """

    def __init__(self, service: InferenceService, host: str, port: int,
                 verbose: bool = False):
        self.service = service
        self.verbose = verbose
        # Live connection -> the task serving it; only the loop touches it.
        self._connections: dict[asyncio.StreamWriter, Any] = {}
        self.loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self.loop.run_forever, name="repro-serve-loop", daemon=True
        )
        self._loop_thread.start()
        asyncio.run_coroutine_threadsafe(service.start(), self.loop).result()
        self._server = asyncio.run_coroutine_threadsafe(
            asyncio.start_server(
                self._serve_connection, host, port, limit=MAX_HEADER_BYTES
            ),
            self.loop,
        ).result()
        self.port: int = self._server.sockets[0].getsockname()[1]

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections[writer] = asyncio.current_task()
        try:
            while await self._serve_one(reader, writer):
                pass
        except (ConnectionError, asyncio.TimeoutError):
            pass  # the client went away or idled out: nothing to answer
        finally:
            del self._connections[writer]
            writer.close()

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Read, serve and answer one request; False ends the connection."""
        request_line = "-"
        try:
            head = await asyncio.wait_for(_read_head(reader), IDLE_TIMEOUT_S)
            if head is None:
                return False
            method, path, version, headers = head
            request_line = f"{method} {path} {version}"
            reply = await self._respond(reader, writer, head)
            if reply is None:
                return False  # the client went away mid-body
            status, payload, extra, close = reply
            close = close or version == "HTTP/1.0" or (
                "close" in headers.get("connection", "").lower()
            )
        except _Refused as refusal:
            status, payload, extra, close = (
                refusal.status, {"error": str(refusal)}, {}, True
            )
        writer.write(_encode_reply(status, payload, extra, close))
        await writer.drain()
        if self.verbose:
            peer = writer.get_extra_info("peername")
            print(f'{peer} "{request_line}" {status}', file=sys.stderr)
        return not close

    async def _respond(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        head: tuple[str, str, str, dict[str, str]],
    ) -> _Reply | None:
        """Serve one parsed request; None if the client left mid-body."""
        method, path, version, headers = head
        if "transfer-encoding" in headers:
            raise _Refused(
                411, "chunked bodies are not supported: send Content-Length"
            )
        if method == "GET":
            # A GET's body is never read: close rather than parse it.
            unread = headers.get("content-length", "0") != "0"
            if path == "/healthz":
                payload = {**self.service.health(), **self.service.describe()}
                return 200, payload, {}, unread
            if path == "/stats":
                return 200, self.service.stats_snapshot(), {}, unread
            return 404, {"error": f"unknown path {path!r}"}, {}, unread
        if method != "POST":
            raise _Refused(501, f"unsupported method {method!r}")
        route = _ROUTES.get(path)
        if route is None:
            raise _Refused(404, f"unknown path {path!r}")
        try:
            length = int(headers.get("content-length", 0))
        except ValueError:
            raise _Refused(400, "bad Content-Length") from None
        if length <= 0 or length > MAX_BODY_BYTES:
            raise _Refused(400, "missing or oversized request body")
        if version != "HTTP/1.0" and (
            headers.get("expect", "").lower() == "100-continue"
        ):
            # The client holds the body back until told to send it.
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        try:
            raw = await asyncio.wait_for(
                reader.readexactly(length), IDLE_TIMEOUT_S
            )
        except asyncio.IncompleteReadError:
            return None
        try:
            call = route(self.service, raw.decode("utf-8"))
        except Exception as error:
            return 400, {"error": f"bad request: {error}"}, {}, False
        try:
            result = await asyncio.wait_for(call, REQUEST_TIMEOUT_S)
        except ServiceOverloaded as error:
            return _overloaded(error)
        except TrackError as error:
            payload = {"error": str(error), "kind": error.kind, "retryable": False}
            return _TRACK_STATUS.get(error.kind, 400), payload, {}, False
        except RequestExecutionError as error:
            # A failure while executing on a shard: a server-side fault,
            # never the client's request.
            return 500, {"error": str(error)}, {}, False
        except (KeyError, ValueError) as error:
            # Submission-time validation: unknown substrate/model, input
            # width mismatch -- the request itself is at fault.
            message = error.args[0] if error.args else str(error)
            return 400, {"error": str(message)}, {}, False
        except Exception as error:
            return 500, {"error": f"{type(error).__name__}: {error}"}, {}, False
        payload = result if isinstance(result, dict) else result.to_dict()
        return 200, payload, {}, False

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(self._shutdown(), self.loop).result()
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._loop_thread.join(timeout=10)
        self.loop.close()

    async def _shutdown(self) -> None:
        """Stop accepting, end every connection, then stop the service.

        Shuts each connection's read side only: one idle between
        requests sees EOF and ends at once, while one mid-request still
        writes its reply first (within 10 s, then it is cancelled).
        """
        self._server.close()
        for writer in self._connections:
            try:
                writer.get_extra_info("socket").shutdown(socket.SHUT_RD)
            except OSError:  # the peer already closed it
                pass
        if self._connections:
            _, late = await asyncio.wait(
                list(self._connections.values()), timeout=10
            )
            for task in late:
                task.cancel()
            await asyncio.gather(*late, return_exceptions=True)
        await self.service.stop()

    def __enter__(self) -> "ServingContext":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def serve_http(
    service: InferenceService,
    host: str = "127.0.0.1",
    port: int = 8000,
    verbose: bool = False,
) -> ServingContext:
    """Start ``service`` behind an HTTP endpoint; returns the context.

    ``port=0`` binds an ephemeral port (see ``context.port``).
    """
    return ServingContext(service, host, port, verbose=verbose)


__all__ = ["ServingContext", "serve_http"]
