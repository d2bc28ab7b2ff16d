"""The ``greenhpc serve`` HTTP daemon.

A threaded :mod:`socketserver` server with hand-parsed HTTP/1.1 (stdlib only)
exposing warm simulation sessions over a small JSON API:

====== =================================== ======================================
Method Path                                Meaning
====== =================================== ======================================
GET    ``/health``                         liveness + session/world counts
GET    ``/version``                        package version
POST   ``/sessions``                       create a session (scenario, policy, …)
GET    ``/sessions``                       list live sessions
GET    ``/sessions/{id}``                  one session's status
DELETE ``/sessions/{id}``                  drop a session
POST   ``/sessions/{id}/jobs``             submit jobs mid-run
POST   ``/sessions/{id}/advance``          advance to ``until_h`` (deadline-bounded)
POST   ``/sessions/{id}/checkpoint``       checkpoint now
POST   ``/sessions/{id}/finalize``         finalize; returns summary and digest
GET    ``/sessions/{id}/telemetry``        NDJSON tick stream (``since``, ``follow``)
POST   ``/route``                          what-if routing across live sessions
GET    ``/metrics``                        Prometheus text exposition (scrapeable)
====== =================================== ======================================

Error mapping: :class:`~repro.serve.session.UnknownSessionError` → 404, any
other :class:`~repro.errors.GreenHPCError` → 400, everything else → 500 with
the exception text in ``{"error": ...}`` and a ``request_id`` that keys the
traceback the daemon writes to stderr.  A request it cannot parse gets a
400, 414, 431, 501 or 505 error the same way, and its connection is closed.

Connections: HTTP/1.1 keep-alive.  A client sends request after request over
one connection; every request's ``Content-Length`` body is read before
routing, so each route leaves the connection at the next request (a body
over the limit, or framed with ``Transfer-Encoding``, gets a 400 and the
connection is closed).  A response is held until its request has been
traced and counted on ``serve_requests_total``, then leaves in one write,
so a client that has its reply is already counted.  A telemetry read is a
``Content-Length`` reply on the same connection; only ``follow=1`` streams
rows as they come, one write per batch, and closes its connection when it
is done.  A connection idle for ``request_timeout_s`` is closed.  Once the
graceful drain has started, every request — on an open connection or a new
one — gets a 503 and its connection is closed, so no session moves past its
drain checkpoint; :meth:`ServeDaemon.close` ends every connection still open.

Robustness: every session is checkpointed periodically during ``advance``
and on SIGTERM/SIGINT (graceful drain).  A checkpoint is the session's input
journal (its creation parameters, the client jobs it accepted and the
cursor each came in at, and how far it had advanced), a few hundred bytes
per client job, so saving it costs no simulator snapshot.  A restarting
daemon pointed at the same ``--checkpoint-dir`` restores every session
before accepting requests by replaying its newest usable journal, falling
back to an older checkpoint when the newest cannot be read or replayed;
``serve_restore_seconds`` on ``/metrics`` times each replay.  A restore
costs one uninterrupted run up to the session's cursor.
"""

from __future__ import annotations

import functools
import io
import json
import math
import re
import signal
import socket
import socketserver
import sys
import threading
import time
import traceback
import uuid
from email.utils import formatdate
from http import HTTPStatus
from typing import Any, Optional
from urllib.parse import parse_qs, urlsplit

from ..errors import GreenHPCError, ServeError
from ..obs.metrics import DEFAULT_BUCKETS, Counter, Histogram, MetricsRegistry
from ..obs.recorder import get_recorder
from .checkpoint import CheckpointStore
from .client import _MAX_HEADERS, _MAX_LINE
from .session import SessionManager, UnknownSessionError, number_field

__all__ = ["ServeDaemon", "run_serve"]

_MAX_BODY_BYTES = 8 * 1024 * 1024
#: The request headers the daemon reads; every other header is skipped.
_HEADERS_READ = frozenset({b"content-length", b"transfer-encoding", b"connection", b"expect"})
_HTTP_VERSION = re.compile(r"HTTP/([0-9]{1,9})\.([0-9]{1,9})")
_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n" for s in HTTPStatus}
#: ``serve_request_seconds`` bounds: a status request takes tens of µs.
_REQUEST_BUCKETS = (0.0001, 0.00025, 0.0005, *DEFAULT_BUCKETS)

#: Top-level routes with a fixed label on the request counter; anything else
#: (typos, scans) collapses to "other" so label cardinality stays bounded.
_KNOWN_ROUTES = ("health", "version", "sessions", "route", "metrics")


#: The per-session gauges a ``/metrics`` scrape reports: name -> (help,
#: session attribute).  A deleted session's series are dropped.
_SESSION_GAUGES = {
    "serve_session_uptime_seconds": (
        "Seconds since the session was created (monotonic)", "uptime_s"
    ),
    "serve_session_requests": ("API requests addressed to the session", "request_count"),
    "serve_session_now_h": ("Simulated hours the session has advanced to", "advanced_to_h"),
}


def _route_label(segments: list[str]) -> str:
    """A bounded-cardinality route label (session ids become ``{id}``)."""
    if not segments:
        return "/"
    if segments[0] not in _KNOWN_ROUTES:
        return "other"
    if segments[0] == "sessions" and len(segments) > 1:
        return "/".join(["sessions", "{id}", *segments[2:3]])
    return "/".join(segments[:2])


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The ``Date`` header value, formatted once a second."""
    return formatdate(second, usegmt=True)


class _Refused(ServeError):
    """A request answered with ``status`` and its connection closed.

    Raised for a request the daemon cannot parse or a body it will not read,
    and for any request once the graceful drain has started.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _ResponseWriter(io.BufferedIOBase):
    """A handler's ``wfile``: keeps what is written until :meth:`flush` sends it in one write."""

    def __init__(self, connection: socket.socket) -> None:
        self._connection = connection
        self._pending: list[bytes] = []

    def write(self, data: bytes) -> int:
        if data:
            self._pending.append(bytes(data))
        return len(data)

    def flush(self) -> None:
        if self._pending:
            data = b"".join(self._pending)
            self._pending.clear()
            self._connection.sendall(data)


class _Server(socketserver.ThreadingTCPServer):
    """A threading TCP server that knows its open connections.

    A keep-alive handler thread waits on its connection for the next
    request, so :meth:`server_close` shuts down the read side of every open
    connection and joins the handlers that were waiting: they see
    end-of-stream and return.  A handler answering a request (``busy``)
    still writes its response and then ends the same way, on its own.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple, handler: type, accepted: Any) -> None:
        super().__init__(address, handler)
        self._accepted = accepted  # the serve_connections_total counter
        self._lock = threading.Lock()
        self._handlers: dict[socket.socket, threading.Thread] = {}
        #: Connections whose handler is answering a request right now.
        self.busy: set[socket.socket] = set()

    def process_request(self, request: socket.socket, client_address: Any) -> None:
        self._accepted.inc()
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address), daemon=True
        )
        with self._lock:
            self._handlers[request] = thread
        thread.start()

    def shutdown_request(self, request: socket.socket) -> None:
        with self._lock:
            self._handlers.pop(request, None)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._lock:
            handlers = dict(self._handlers)
        for connection in handlers:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # its handler closed it meanwhile
        for connection, thread in handlers.items():
            if connection not in self.busy:
                thread.join()


class _JsonHandler(socketserver.StreamRequestHandler):
    """One connection's HTTP/1.1 request loop, routing onto the daemon's session manager."""

    # A response is one write, but a follow stream's batches are several;
    # with Nagle's algorithm on, a small batch would wait for the client's
    # delayed ACK.
    disable_nagle_algorithm = True
    daemon: "ServeDaemon"  # set on the handler class per server

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def setup(self) -> None:
        super().setup()
        self.wfile = _ResponseWriter(self.connection)
        # A stuck client must not pin a handler thread forever.
        self.connection.settimeout(self.daemon.request_timeout_s)
        self.close_connection = False

    def handle(self) -> None:
        """Answer requests until the client closes, idles out or is refused."""
        while not self.close_connection:
            try:
                line = self.rfile.readline(_MAX_LINE + 1)
                if line in (b"\r\n", b"\n"):  # RFC 9112 2.2: skip an empty line before a request
                    line = self.rfile.readline(_MAX_LINE + 1)
                if not line:
                    return
                start = time.perf_counter()
                method, target = self._read_head(line)
            except _Refused as exc:  # finish() sends the refusal
                self._send_json({"error": str(exc)}, status=exc.status, close=True)
                return
            except OSError:
                return  # idle past request_timeout_s, or reset by the client
            self._dispatch(method, target, start)

    def _read_head(self, line: bytes) -> tuple[str, str]:
        """Parse the request line and the headers the daemon reads; returns (method, target)."""
        self._request_line = text = line.decode("latin-1").rstrip("\r\n")
        if len(line) > _MAX_LINE:
            raise _Refused(414, f"request line longer than {_MAX_LINE} bytes")
        words = text.split()
        match = len(words) == 3 and _HTTP_VERSION.fullmatch(words[2])
        if not match:
            raise _Refused(400, f"bad request line {text[:80]!r}")
        version = (int(match[1]), int(match[2]))
        if version >= (2, 0):
            raise _Refused(505, f"HTTP version {words[2]} is not supported")
        http11 = version >= (1, 1)
        self._headers = headers = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                raise _Refused(431, f"header line longer than {_MAX_LINE} bytes")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name in _HEADERS_READ:
                headers.setdefault(name, value.strip().decode("latin-1"))
        else:
            raise _Refused(431, f"more than {_MAX_HEADERS} header lines")
        method, target = words[:2]
        if method not in ("GET", "POST", "DELETE"):
            raise _Refused(501, f"method {method[:20]!r} is not supported")
        tokens = headers.get(b"connection", "").lower()
        self.close_connection = "close" in tokens or (not http11 and "keep-alive" not in tokens)
        if not http11:
            headers.pop(b"expect", None)  # HTTP/1.0 clients get no 100 Continue
        return method, target

    def _read_body(self) -> bytes:
        """The whole declared body, read before routing to keep the stream framed."""
        if b"transfer-encoding" in self._headers:
            raise _Refused(400, "request bodies must be sent with Content-Length")
        declared = self._headers.get(b"content-length") or "0"
        length = int(declared) if declared.isdecimal() and len(declared) < 19 else -1
        if length < 0:
            raise _Refused(400, f"invalid Content-Length {declared!r}")
        if length > _MAX_BODY_BYTES:
            raise _Refused(400, f"request body exceeds {_MAX_BODY_BYTES} bytes")
        if self._headers.get(b"expect", "").lower() == "100-continue":
            # A client waits for this before it sends its body.
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            self.wfile.flush()
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raw = b""
        if len(raw) != length:
            raise _Refused(400, f"request body is shorter than its Content-Length {length}")
        return raw

    def _read_json(self) -> dict:
        raw = self._body
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise ServeError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(body, dict):
            raise ServeError("request body must be a JSON object")
        return body

    def send_response(self, status: int) -> None:
        """Start a response with its status line and ``Date`` header."""
        self._status = status
        date = _http_date(int(time.time()))
        self.wfile.write(f"{_STATUS_LINES[status]}Date: {date}\r\n".encode())
        if self.daemon.verbose:
            sys.stderr.write(f'{self.client_address[0]} "{self._request_line[:200]}" {status}\n')

    def send_header(self, name: str, value: str) -> None:
        if name.lower() == "connection" and value.lower() == "close":
            self.close_connection = True
        self.wfile.write(f"{name}: {value}\r\n".encode("latin-1"))

    def end_headers(self) -> None:
        self.wfile.write(b"\r\n")

    def _send(
        self, body: bytes, content_type: str, status: int = 200, *, close: bool = False
    ) -> None:
        """Queue one ``Content-Length`` response; ``_dispatch`` sends it."""
        self.send_response(status)
        self.close_connection |= close
        closing = "Connection: close\r\n" if self.close_connection else ""
        head = f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
        self.wfile.write(f"{head}Cache-Control: no-store\r\n{closing}\r\n".encode() + body)

    def _send_json(self, payload: Any, status: int = 200, *, close: bool = False) -> None:
        self._send(json.dumps(payload).encode() + b"\n", "application/json", status, close=close)

    def _dispatch(self, method: str, target: str, start: float) -> None:
        parts = urlsplit(target)
        segments = [segment for segment in parts.path.split("/") if segment]
        query = {key: values[-1] for key, values in parse_qs(parts.query).items()}
        route = _route_label(segments)
        self._status = 200  # updated by send_response
        self.server.busy.add(self.connection)
        try:
            with get_recorder().span("serve.request", method=method, route=route) as span:
                try:
                    self._body = self._read_body()
                    if self.daemon._shutdown_started.is_set():
                        raise _Refused(503, "daemon is shutting down")
                    handled = self.daemon.handle(self, method, segments, query)
                except _Refused as exc:
                    self._send_json({"error": str(exc)}, status=exc.status, close=True)
                except UnknownSessionError as exc:
                    self._send_json({"error": str(exc)}, status=404)
                except GreenHPCError as exc:
                    self._send_json({"error": str(exc)}, status=400)
                except (BrokenPipeError, ConnectionResetError):
                    self._status = 0  # the client went away; nothing to answer
                except Exception as exc:  # noqa: BLE001 - the daemon must not die on a request
                    request_id = uuid.uuid4().hex
                    sys.stderr.write(
                        f"greenhpc serve: request {request_id} ({method} {parts.path}) "
                        f"failed\n{traceback.format_exc()}"
                    )
                    span.set("request_id", request_id)
                    self._send_json(
                        {"error": f"{type(exc).__name__}: {exc}", "request_id": request_id},
                        status=500,
                    )
                else:
                    if not handled:
                        self._send_json(
                            {"error": f"no route for {method} {parts.path}"}, status=404
                        )
                span.set("status", self._status)
            requests, seconds = self.daemon._accounting(method, route, self._status)
            requests.inc()
            # Only now does the response leave: a client holding its reply
            # finds the request already traced and counted.
            try:
                self.wfile.flush()
            except OSError:
                self.close_connection = True  # the client went away
            seconds.observe(time.perf_counter() - start)
        finally:
            self.server.busy.discard(self.connection)


class ServeDaemon:
    """The long-running simulation service: session manager + HTTP front end.

    Parameters
    ----------
    host, port:
        Bind address; port 0 picks an ephemeral port (read :attr:`port`
        after construction — tests and the example use this).
    checkpoint_dir:
        Directory for periodic/drain checkpoints.  When it already holds
        checkpoints, every restorable session is brought back *before* the
        server accepts requests.  ``None`` disables checkpointing.
    checkpoint_every_h:
        Simulated hours between automatic checkpoints while an ``advance``
        request is in flight.
    request_timeout_s:
        Socket timeout per request, and the default wall-clock bound on one
        ``advance`` request (the response says how far it got).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every_h: float = 24.0,
        request_timeout_s: float = 30.0,
        verbose: bool = False,
    ) -> None:
        self.manager = SessionManager()
        #: Process-local service metrics, rendered by ``GET /metrics``.
        self.metrics = MetricsRegistry()
        self.store = (
            None
            if checkpoint_dir is None
            else CheckpointStore(checkpoint_dir, metrics=self.metrics)
        )
        self.checkpoint_every_h = float(checkpoint_every_h)
        self.request_timeout_s = float(request_timeout_s)
        self.verbose = bool(verbose)
        self.restored: list[str] = []
        if self.store is not None:
            self.restored = self.manager.restore_all(self.store, metrics=self.metrics)

        handler = type("BoundHandler", (_JsonHandler,), {"daemon": self})
        accepted = self.metrics.counter(
            "serve_connections_total", help="TCP connections accepted"
        )
        self._server = _Server((host, port), handler, accepted)
        self.host, self.port = self._server.server_address[:2]
        self._shutdown_started = threading.Event()
        self._request_metrics: dict[tuple[str, str, int], tuple[Counter, Histogram]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` (or a signal)."""
        self._server.serve_forever(poll_interval=0.2)

    def shutdown(self) -> None:
        """Graceful drain: checkpoint every live session, then stop the server.

        Idempotent and safe from signal context — the actual work runs on a
        fresh thread because ``server.shutdown()`` deadlocks when called from
        the ``serve_forever`` thread a signal handler interrupts.
        """
        if self._shutdown_started.is_set():
            return
        self._shutdown_started.set()

        def _drain() -> None:
            if self.store is not None:
                try:
                    self.manager.checkpoint_all(self.store)
                except GreenHPCError:
                    pass  # a broken session must not block the shutdown
            self._server.shutdown()

        threading.Thread(target=_drain, name="serve-drain", daemon=True).start()

    def close(self) -> None:
        """Release the listening socket and end every open connection.

        Call after ``serve_forever`` returns.  Handlers waiting on a
        kept-alive connection for its next request have ended when this
        returns; one still answering a request ends once it has answered.
        """
        self._server.server_close()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to the graceful drain (main thread only)."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda _signum, _frame: self.shutdown())

    def _accounting(self, method: str, route: str, status: int) -> tuple[Counter, Histogram]:
        """The request counter and latency histogram of one (method, route, status)."""
        key = (method, route, status)
        handles = self._request_metrics.get(key)
        if handles is None:
            handles = self._request_metrics[key] = (
                self.metrics.counter(
                    "serve_requests_total", help="API requests handled, by method/route/status",
                    method=method, route=route, status=str(status),
                ),
                self.metrics.histogram(
                    "serve_request_seconds", help="Seconds from request line to response write",
                    buckets=_REQUEST_BUCKETS, method=method, route=route,
                ),
            )
        return handles

    # ------------------------------------------------------------------
    # Routing table
    # ------------------------------------------------------------------
    def handle(
        self,
        request: _JsonHandler,
        method: str,
        segments: list[str],
        query: dict[str, str],
    ) -> bool:
        """Handle one request; returns whether a route matched."""
        if method == "GET" and segments == ["health"]:
            sessions = self.manager.sessions()
            request._send_json(
                {
                    "status": "ok",
                    "sessions": len(sessions),
                    "worlds": self.manager.n_worlds,
                    "restored": list(self.restored),
                    "checkpointing": self.store is not None,
                    "session_stats": {
                        s.session_id: {
                            "uptime_s": s.uptime_s,
                            "requests": s.request_count,
                        }
                        for s in sessions
                    },
                }
            )
            return True
        if method == "GET" and segments == ["metrics"]:
            self._publish_session_gauges()
            request._send(
                self.metrics.to_prometheus().encode(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return True
        if method == "GET" and segments == ["version"]:
            from .. import __version__

            request._send_json({"package": "repro", "version": __version__})
            return True
        if segments and segments[0] == "sessions":
            return self._handle_sessions(request, method, segments[1:], query)
        if method == "POST" and segments == ["route"]:
            body = request._read_json()
            session_ids = body.get("sessions")
            if session_ids is not None and not isinstance(session_ids, list):
                raise ServeError(
                    f"field 'sessions' must be a list of session ids, got {session_ids!r}"
                )
            result = self.manager.route(
                body.get("job", {}),
                body.get("router", "round-robin"),
                session_ids,
            )
            request._send_json(result)
            return True
        return False

    def _publish_session_gauges(self) -> None:
        """Refresh the per-session gauges a ``/metrics`` scrape reports."""
        sessions = self.manager.sessions()
        self.metrics.gauge("serve_sessions", help="Live simulation sessions").set(
            len(sessions)
        )
        self.metrics.gauge("serve_worlds", help="Cached substrate worlds").set(
            self.manager.n_worlds
        )
        live = {session.session_id for session in sessions}
        for name, (help, attribute) in _SESSION_GAUGES.items():
            self.metrics.retain(name, "session", live)
            for session in sessions:
                self.metrics.gauge(name, help=help, session=session.session_id).set(
                    getattr(session, attribute)
                )

    def _handle_sessions(
        self,
        request: _JsonHandler,
        method: str,
        rest: list[str],
        query: dict[str, str],
    ) -> bool:
        if not rest:
            if method == "POST":
                session = self.manager.create_session(request._read_json())
                request._send_json(session.status(), status=201)
                return True
            if method == "GET":
                request._send_json(
                    {"sessions": [s.status() for s in self.manager.sessions()]}
                )
                return True
            return False
        session = self.manager.get(rest[0])
        session.count_request()
        action = rest[1] if len(rest) > 1 else None
        if action is None:
            if method == "GET":
                request._send_json(session.status())
                return True
            if method == "DELETE":
                self.manager.remove(session.session_id)
                request._send_json({"deleted": session.session_id})
                return True
            return False
        if method == "POST" and action == "jobs":
            body = request._read_json()
            jobs = body.get("jobs")
            if not isinstance(jobs, list):
                raise ServeError("body must carry a 'jobs' list")
            accepted = session.submit_jobs(jobs)
            request._send_json({"accepted": accepted, **session.status()})
            return True
        if method == "POST" and action == "advance":
            body = request._read_json()
            until_h = number_field(body, "until_h", float)
            if until_h is None:
                raise ServeError("body must carry 'until_h'")
            status = session.advance_to(
                until_h,
                deadline_s=number_field(body, "deadline_s", float, self.request_timeout_s),
                checkpoint_every_h=self.checkpoint_every_h,
                store=self.store,
            )
            request._send_json(status)
            return True
        if method == "POST" and action == "checkpoint":
            if self.store is None:
                raise ServeError(
                    "checkpointing is disabled (start the daemon with --checkpoint-dir)"
                )
            path = session.checkpoint(self.store)
            request._send_json({"checkpoint": path, **session.status()})
            return True
        if method == "POST" and action == "finalize":
            request._send_json({**session.finalize(), **session.status()})
            return True
        if method == "GET" and action == "telemetry":
            self._stream_telemetry(request, session, query)
            return True
        return False

    # ------------------------------------------------------------------
    # NDJSON telemetry
    # ------------------------------------------------------------------
    def _stream_telemetry(
        self, request: _JsonHandler, session: Any, query: dict[str, str]
    ) -> None:
        """Send tick rows as NDJSON from ``since`` on; ``follow=1`` waits for more.

        Rows are copied out under the session lock and written outside it, so
        a slow reader never stalls the simulation.  Without ``follow`` the
        rows are one ``Content-Length`` reply on the kept-alive connection.
        A follow stream is sent batch by batch and closes its connection (no
        chunked framing needed on HTTP/1.1), so a client follows on a
        connection of its own.
        """
        # Validate the query BEFORE any response bytes go out: a bad value
        # must surface as a clean 400 (via the dispatch error mapping), not
        # a 500 after headers are already on the wire.
        raw_since = query.get("since", "0")
        try:
            cursor = int(raw_since)
        except ValueError:
            raise ServeError(
                f"query parameter 'since' must be an integer, got {raw_since!r}"
            ) from None
        if cursor < 0:
            raise ServeError(f"query parameter 'since' must be >= 0, got {cursor}")
        follow = query.get("follow", "0") not in ("0", "false", "")
        raw_wait = query.get("max_wait_s", "10")
        try:
            max_wait_s = float(raw_wait)
            if not math.isfinite(max_wait_s):
                raise ValueError
        except ValueError:
            raise ServeError(
                f"query parameter 'max_wait_s' must be a finite number, got {raw_wait!r}"
            ) from None
        max_wait_s = min(max_wait_s, self.request_timeout_s)
        if not follow:
            request._send(_ndjson(session.ticks_since(cursor)), "application/x-ndjson")
            return
        request.send_response(200)
        request.send_header("Content-Type", "application/x-ndjson")
        request.send_header("Cache-Control", "no-store")
        request.send_header("Connection", "close")  # also sets close_connection
        request.end_headers()
        try:
            while True:
                rows = session.ticks_since(cursor)
                request.wfile.write(_ndjson(rows))
                request.wfile.flush()
                cursor += len(rows)
                if session.finalized:
                    break
                if not session.wait_for_ticks(cursor, max_wait_s):
                    break  # idle long enough; let the client re-poll with ?since=
        except OSError:
            pass  # reader went away or stopped reading; resumable via ?since=


def _ndjson(rows: list[dict[str, Any]]) -> bytes:
    return b"".join(json.dumps(row).encode() + b"\n" for row in rows)


def run_serve(args: Any) -> int:
    """CLI entry point for ``greenhpc serve`` (blocks until SIGTERM/SIGINT)."""
    daemon = ServeDaemon(
        host=args.host,
        port=args.port,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every_h=args.checkpoint_every_h,
        request_timeout_s=args.request_timeout_s,
        verbose=bool(getattr(args, "verbose", False)),
    )
    daemon.install_signal_handlers()
    # One parseable line so scripts (and the example) can discover the port.
    print(f"greenhpc-serve listening on http://{daemon.host}:{daemon.port}", flush=True)
    if daemon.restored:
        print(f"restored sessions: {', '.join(daemon.restored)}", flush=True)
    try:
        daemon.serve_forever()
    finally:
        daemon.close()
    return 0
