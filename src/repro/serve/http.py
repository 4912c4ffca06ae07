"""Stdlib-only HTTP front end for :class:`~repro.serve.InferenceService`.

No third-party web framework: a ``ThreadingHTTPServer`` whose handler
threads bridge into the service's asyncio loop with
``asyncio.run_coroutine_threadsafe``.  Endpoints:

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
  per-substrate tallies, pool idle states, track lifecycle tallies,
  and -- when sharded -- one row per worker shard with queue depth and
  dispatch ages).

Every 503 -- admission bound, shard crash, track admission -- carries a
``Retry-After`` header and machine-readable ``"retryable": true`` in
the JSON body, so clients back off on structure instead of
string-matching error messages.

Connections are persistent (HTTP/1.1 keep-alive) with ``TCP_NODELAY``
set, so a client reuses one connection for many requests and a small
reply is never held back by Nagle's algorithm waiting on a delayed ACK.
A reply sent before the request body was read (unknown POST path, bad
or missing ``Content-Length``) carries ``Connection: close`` -- the
unread body must never be parsed as the next request.  An idle
connection ends after :data:`IDLE_TIMEOUT_S`, and
:meth:`ServingContext.close` ends every open one at once.

Every body is emitted with :func:`repro.api.results.strict_dumps`, so
the wire never carries bare ``NaN`` / ``Infinity`` tokens: non-finite
floats arrive as tagged ``{"__nonfinite__": ...}`` sentinels that
:func:`repro.api.results.strict_loads` restores exactly.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
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
# idle client never pins a handler thread.
IDLE_TIMEOUT_S = 30.0
MAX_BODY_BYTES = 32 * 1024 * 1024
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


class _Handler(BaseHTTPRequestHandler):
    server: "ServiceHTTPServer"
    protocol_version = "HTTP/1.1"
    # Keep-alive without TCP_NODELAY stalls every reply on Nagle's
    # algorithm meeting the client's delayed ACK (~40 ms per request).
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    # Quiet by default; the CLI enables logging via server attribute.
    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    def _reply(
        self,
        status: int,
        payload: Any,
        headers: dict[str, str] | None = None,
        close: bool = False,
    ) -> None:
        """Send one JSON reply; ``close`` ends the connection after it
        (required whenever the request body was left unread)."""
        body = strict_dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if close:
            # Also sets self.close_connection.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _reply_overloaded(self, error: ServiceOverloaded) -> None:
        """All 503s are structurally retryable: ``Retry-After`` header
        plus ``retryable: true`` in the body, so clients back off
        without string-matching."""
        if isinstance(error, WorkerCrashed):
            # Shard death, not an admission bound: report which shard
            # died instead of a meaningless queue limit.
            payload = {
                "error": str(error),
                "retryable": True,
                "shard": error.shard,
                "pending": error.pending,
            }
        else:
            payload = {
                "error": str(error),
                "retryable": True,
                "pending": error.pending,
                "max_pending": error.max_pending,
            }
        self._reply(503, payload, headers={"Retry-After": str(RETRY_AFTER_S)})

    def do_GET(self) -> None:
        service = self.server.service
        if self.path == "/healthz":
            self._reply(200, {**service.health(), **service.describe()})
        elif self.path == "/stats":
            self._reply(200, service.stats_snapshot())
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def _read_body(self) -> str | None:
        """The request body, or None after replying with an error.

        Every error reply that leaves body bytes unread closes the
        connection, so they are never parsed as the next request.
        """
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self._reply(400, {"error": "bad Content-Length"}, close=True)
            return None
        if length <= 0 or length > MAX_BODY_BYTES:
            self._reply(
                400, {"error": "missing or oversized request body"},
                close=True,
            )
            return None
        raw = self.rfile.read(length)
        if len(raw) < length:
            # The client went away mid-body: nothing left to answer.
            self.close_connection = True
            return None
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as error:
            self._reply(400, {"error": f"bad request: {error}"})
            return None

    def do_POST(self) -> None:
        route = _ROUTES.get(self.path)
        if route is None:
            self._reply(
                404, {"error": f"unknown path {self.path!r}"}, close=True
            )
            return
        body = self._read_body()
        if body is None:
            return
        try:
            call = route(self.server.service, body)
        except (ValueError, KeyError, TypeError) as error:
            self._reply(400, {"error": f"bad request: {error}"})
            return
        try:
            result = asyncio.run_coroutine_threadsafe(
                call, self.server.loop
            ).result(timeout=REQUEST_TIMEOUT_S)
        except ServiceOverloaded as error:
            self._reply_overloaded(error)
        except TrackError as error:
            self._reply(
                _TRACK_STATUS.get(error.kind, 400),
                {"error": str(error), "kind": error.kind, "retryable": False},
            )
        except RequestExecutionError as error:
            # A failure while executing on a shard: a server-side fault,
            # never the client's request.
            self._reply(500, {"error": str(error)})
        except (KeyError, ValueError) as error:
            # Submission-time validation: unknown substrate/model, input
            # width mismatch -- the request itself is at fault.
            message = error.args[0] if error.args else str(error)
            self._reply(400, {"error": str(message)})
        except Exception as error:
            self._reply(500, {"error": f"{type(error).__name__}: {error}"})
        else:
            self._reply(
                200, result if isinstance(result, dict) else result.to_dict()
            )


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
        str(strict_loads(body)["track_id"])
    ),
}


class ServiceHTTPServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer bound to a service and its event loop.

    One daemon thread serves each (persistent) connection; the server
    keeps them by socket so :meth:`close_connections` can end them all.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: InferenceService,
        loop: asyncio.AbstractEventLoop,
        verbose: bool = False,
    ):
        super().__init__(address, _Handler)
        self.service = service
        self.loop = loop
        self.verbose = verbose
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._connections_lock = threading.Lock()

    @property
    def port(self) -> int:
        return self.server_address[1]

    def process_request(self, request: Any, client_address: Any) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name="repro-serve-conn",
            daemon=self.daemon_threads,
        )
        with self._connections_lock:
            self._connections[request] = thread
        thread.start()

    def shutdown_request(self, request: Any) -> None:
        with self._connections_lock:
            self._connections.pop(request, None)
        super().shutdown_request(request)

    def close_connections(self, timeout: float) -> None:
        """End every open connection and join its handler thread.

        Shuts the read side only: a handler parked on an idle keep-alive
        socket sees EOF and exits at once, while one mid-request still
        writes its reply first.
        """
        with self._connections_lock:
            connections = list(self._connections.items())
        for sock, _ in connections:
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:  # already closed by its handler
                pass
        deadline = time.monotonic() + timeout
        for _, thread in connections:
            thread.join(max(0.0, deadline - time.monotonic()))


class ServingContext:
    """A running service + HTTP server pair with owned background threads.

    The service's asyncio loop runs on one daemon thread and the HTTP
    server on another, so tests (and the CLI, which then just blocks)
    can stand up a full serving stack in-process::

        with serve_http(service, port=0) as ctx:
            urllib.request.urlopen(f"http://127.0.0.1:{ctx.port}/healthz")
    """

    def __init__(self, service: InferenceService, host: str, port: int,
                 verbose: bool = False):
        self.service = service
        self.loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self.loop.run_forever, name="repro-serve-loop", daemon=True
        )
        self._loop_thread.start()
        asyncio.run_coroutine_threadsafe(
            service.start(), self.loop
        ).result()
        self.server = ServiceHTTPServer(
            (host, port), service, self.loop, verbose=verbose
        )
        self._http_thread = threading.Thread(
            target=self.server.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._http_thread.start()

    @property
    def port(self) -> int:
        return self.server.port

    def close(self) -> None:
        self.server.shutdown()
        self.server.close_connections(timeout=10)
        self.server.server_close()
        self._http_thread.join(timeout=10)
        asyncio.run_coroutine_threadsafe(
            self.service.stop(), self.loop
        ).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._loop_thread.join(timeout=10)
        self.loop.close()

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


__all__ = ["ServiceHTTPServer", "ServingContext", "serve_http"]
