"""The ``greenhpc serve`` HTTP daemon.

A :class:`~http.server.ThreadingHTTPServer` (stdlib only — the service adds
no dependencies) exposing warm simulation sessions over a small JSON API:

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
POST   ``/sessions/{id}/finalize``         finalize; returns the run summary
GET    ``/sessions/{id}/telemetry``        NDJSON tick stream (``since``, ``follow``)
POST   ``/route``                          what-if routing across live sessions
GET    ``/metrics``                        Prometheus text exposition (scrapeable)
====== =================================== ======================================

Error mapping: :class:`~repro.serve.session.UnknownSessionError` → 404, any
other :class:`~repro.errors.GreenHPCError` → 400, everything else → 500 with
the exception text in ``{"error": ...}`` and a ``request_id`` that keys the
traceback the daemon writes to stderr.

Connections: HTTP/1.1 keep-alive.  A client sends request after request over
one connection; every request's ``Content-Length`` body is read before
routing, so each route leaves the connection at the next request (a body
over the limit, or framed with ``Transfer-Encoding``, gets a 400 and the
connection is closed).  A telemetry stream ends its connection when it is
done.  A connection idle for ``request_timeout_s`` is closed.  Once the
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

import json
import math
import signal
import socket
import sys
import threading
import traceback
import uuid
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterator, Optional
from urllib.parse import parse_qs, urlsplit

from ..errors import GreenHPCError, ServeError
from ..obs.metrics import MetricsRegistry
from ..obs.recorder import get_recorder
from .checkpoint import CheckpointStore
from .session import SessionManager, UnknownSessionError, number_field

__all__ = ["ServeDaemon", "run_serve"]

_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Top-level routes with a fixed label on the request counter; anything else
#: (typos, scans) collapses to "other" so label cardinality stays bounded.
_KNOWN_ROUTES = ("health", "version", "sessions", "route", "metrics")


def _route_label(segments: list[str]) -> str:
    """A bounded-cardinality route label (session ids become ``{id}``)."""
    if not segments:
        return "/"
    if segments[0] not in _KNOWN_ROUTES:
        return "other"
    if segments[0] == "sessions" and len(segments) > 1:
        return "/".join(["sessions", "{id}", *segments[2:3]])
    return "/".join(segments[:2])


class _Refused(ServeError):
    """A request answered with ``status`` and its connection closed.

    Raised for a body the daemon will not read (the stream is no longer
    framed) and for any request once the graceful drain has started.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Server(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` that knows its open connections.

    A keep-alive handler thread waits on its connection for the next
    request, so :meth:`server_close` shuts down the read side of every open
    connection and joins the handlers that were waiting: they see
    end-of-stream and return.  A handler answering a request (``busy``)
    still writes its response and then ends the same way, on its own.
    """

    daemon_threads = True

    def __init__(self, address: tuple, handler: type, accepted: Any) -> None:
        super().__init__(address, handler)
        self._accepted = accepted  # the serve_connections_total counter
        self._lock = threading.Lock()
        self._handlers: dict[socket.socket, threading.Thread] = {}
        #: Connections whose handler is answering a request right now.
        self.busy: set[socket.socket] = set()

    @contextmanager
    def answering(self, connection: socket.socket) -> Iterator[None]:
        """Mark ``connection`` busy while its handler answers a request."""
        self.busy.add(connection)
        try:
            yield
        finally:
            self.busy.discard(connection)

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


class _JsonHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the daemon's session manager."""

    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle's algorithm on, the
    # body would wait for the client's delayed ACK on a kept-alive connection.
    disable_nagle_algorithm = True
    daemon: "ServeDaemon"  # set on the handler class per server

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        if self.daemon.verbose:
            super().log_message(format, *args)

    def setup(self) -> None:
        super().setup()
        # A stuck client must not pin a handler thread forever.
        self.connection.settimeout(self.daemon.request_timeout_s)

    def _read_body(self) -> bytes:
        """The whole declared body, read before routing to keep the stream framed."""
        if "Transfer-Encoding" in self.headers:
            raise _Refused(400, "request bodies must be sent with Content-Length")
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            raise _Refused(400, f"invalid Content-Length {declared!r}")
        if length > _MAX_BODY_BYTES:
            raise _Refused(400, f"request body exceeds {_MAX_BODY_BYTES} bytes")
        try:
            raw = self.rfile.read(length) if length else b""
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

    def _send_json(self, payload: Any, status: int = 200, *, close: bool = False) -> None:
        encoded = json.dumps(payload).encode() + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        if close:
            self.send_header("Connection", "close")  # also sets close_connection
        self.end_headers()
        self.wfile.write(encoded)
        self._status = status

    def _send_text(self, text: str, status: int = 200, content_type: str = "text/plain; version=0.0.4; charset=utf-8") -> None:
        encoded = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)
        self._status = status

    def _dispatch(self, method: str) -> None:
        parts = urlsplit(self.path)
        segments = [segment for segment in parts.path.split("/") if segment]
        query = {key: values[-1] for key, values in parse_qs(parts.query).items()}
        route = _route_label(segments)
        self._status = 200  # updated by the _send_* helpers
        with self.server.answering(self.connection), get_recorder().span(
            "serve.request", method=method, route=route
        ) as span:
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
                self._status = 0  # client went away mid-response; nothing to answer
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
        self.daemon.metrics.counter(
            "serve_requests_total",
            help="API requests handled, by method/route/status",
            method=method,
            route=route,
            status=str(self._status),
        ).inc()

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


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
            request._send_text(self.metrics.to_prometheus())
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
        for session in sessions:
            labels = {"session": session.session_id}
            self.metrics.gauge(
                "serve_session_uptime_seconds",
                help="Seconds since the session was created (monotonic)",
                **labels,
            ).set(session.uptime_s)
            self.metrics.gauge(
                "serve_session_requests",
                help="API requests addressed to the session",
                **labels,
            ).set(session.request_count)
            self.metrics.gauge(
                "serve_session_now_h",
                help="Simulated hours the session has advanced to",
                **labels,
            ).set(session.advanced_to_h)

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
            request._send_json({"summary": session.finalize(), **session.status()})
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
        """Stream tick rows as NDJSON from ``since`` on; ``follow=1`` waits for more.

        Rows are copied out under the session lock and written outside it, so
        a slow reader never stalls the simulation.  The response closes the
        connection (no chunked framing needed on HTTP/1.1), so a client
        streams on a connection of its own.
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
        request.send_response(200)
        request.send_header("Content-Type", "application/x-ndjson")
        request.send_header("Cache-Control", "no-store")
        request.send_header("Connection", "close")
        request.end_headers()
        try:
            while True:
                rows = session.ticks_since(cursor)
                if rows:
                    request.wfile.write(
                        b"".join(json.dumps(row).encode() + b"\n" for row in rows)
                    )
                cursor += len(rows)
                if not follow or session.finalized:
                    break
                if not session.wait_for_ticks(cursor, max_wait_s):
                    break  # idle long enough; let the client re-poll with ?since=
        except (BrokenPipeError, ConnectionResetError):
            pass  # reader went away; the stream is resumable via ?since=
        request.close_connection = True


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
