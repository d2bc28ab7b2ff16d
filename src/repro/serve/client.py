"""A pure-stdlib client for the ``greenhpc serve`` daemon.

:mod:`http.client` over persistent HTTP/1.1 connections — one method per
endpoint plus a generator over the NDJSON telemetry stream.  Each thread
that uses a client keeps one connection to the daemon and sends every
request over it; :meth:`ServeClient.close` (or leaving a ``with`` block)
closes them all.  A telemetry stream gets a connection of its own, closed
when the generator ends or is closed, so other calls can be interleaved
while iterating it.

A reused connection the daemon has meanwhile closed (it drops idle
connections after its ``request_timeout_s``, and a restarted daemon has
forgotten them) fails before any status line arrives; that request is sent
once more on a fresh connection.  Nothing is retried once a status line has
been read.

Error responses (``{"error": ...}``) surface as
:class:`~repro.errors.ServeError` (``"<status>: <message>"``), and so does a
daemon that cannot be reached, so client code handles daemon-side
validation failures the same way it handles local ones.

>>> with ServeClient("http://127.0.0.1:8714") as client:  # doctest: +SKIP
...     s = client.create_session(scenario="default", policy="backfill",
...                               preload_jobs=50)
...     client.advance(s["session_id"], until_h=24.0)
...     for row in client.stream_telemetry(s["session_id"]):
...         print(row["now_h"], row["facility_power_w"])
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Any, Iterator, Optional, Sequence
from urllib.parse import urlencode, urlsplit

from ..errors import ServeError

__all__ = ["ServeClient"]

_CONNECTION_TYPES = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}


class ServeClient:
    """Talks to one ``greenhpc serve`` daemon at ``base_url``.

    Safe to share between threads: every thread gets its own connection.
    """

    def __init__(self, base_url: str, *, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = float(timeout_s)
        parts = urlsplit(self.base_url)
        if parts.scheme not in _CONNECTION_TYPES or not parts.hostname:
            raise ServeError(f"not an http(s) daemon URL: {base_url!r}")
        self._connection_type = _CONNECTION_TYPES[parts.scheme]
        self._address = (parts.hostname, parts.port)
        self._prefix = parts.path
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open: list[http.client.HTTPConnection] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every pooled connection; later calls open new ones."""
        with self._lock:
            connections, self._open = self._open, []
            self._local = threading.local()
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connect(self, timeout_s: float) -> http.client.HTTPConnection:
        host, port = self._address
        return self._connection_type(host, port, timeout=timeout_s)

    def _pooled(self) -> http.client.HTTPConnection:
        """This thread's persistent connection (created on first use)."""
        with self._lock:
            local = self._local
            connection = getattr(local, "connection", None)
            if connection is None:
                connection = local.connection = self._connect(self.timeout_s)
                self._open.append(connection)
        return connection

    def _unreachable(self, exc: BaseException) -> ServeError:
        return ServeError(f"cannot reach daemon at {self.base_url}: {exc}")

    def _exchange(
        self,
        connection: http.client.HTTPConnection,
        method: str,
        path: str,
        data: Optional[bytes],
        timeout_s: float,
    ) -> Optional[tuple[http.client.HTTPResponse, bytes]]:
        """One request/response; ``None`` when a reused connection was already closed."""
        reused = connection.sock is not None
        connection.timeout = timeout_s  # applies to a (re)connect
        if reused:
            connection.sock.settimeout(timeout_s)
        headers = {"Content-Type": "application/json"} if data else {}
        try:
            connection.request(method, self._prefix + path, data, headers)
        except (ConnectionResetError, BrokenPipeError):
            if reused:
                return None
            raise
        try:
            response = connection.getresponse()
        except http.client.RemoteDisconnected:
            if reused:
                return None
            raise
        return response, response.read()

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        *,
        timeout_s: Optional[float] = None,
    ) -> Any:
        data = None if body is None else json.dumps(body).encode()
        timeout = timeout_s or self.timeout_s
        connection = self._pooled()
        try:
            exchange = self._exchange(connection, method, path, data, timeout)
            if exchange is None:  # closed by the daemon before any status line
                connection.close()
                exchange = self._exchange(connection, method, path, data, timeout)
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise self._unreachable(exc) from None
        response, payload = exchange
        if response.status >= 400:
            raise ServeError(self._error_message(response, payload))
        return json.loads(payload)

    @staticmethod
    def _error_message(response: http.client.HTTPResponse, payload: bytes) -> str:
        try:
            return f"{response.status}: {json.loads(payload)['error']}"
        except (ValueError, KeyError, TypeError):
            return f"{response.status}: {response.reason}"

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Daemon liveness, session/world counts, restored-session ids."""
        return self._request("GET", "/health")

    def version(self) -> dict:
        """The daemon's package version."""
        return self._request("GET", "/version")

    def create_session(self, **params: Any) -> dict:
        """Create a session; keyword args mirror the POST /sessions body."""
        return self._request("POST", "/sessions", params)

    def list_sessions(self) -> list[dict]:
        """Status dicts of every live session."""
        return self._request("GET", "/sessions")["sessions"]

    def session_status(self, session_id: str) -> dict:
        """One session's live status."""
        return self._request("GET", f"/sessions/{session_id}")

    def delete_session(self, session_id: str) -> dict:
        """Drop a session from the daemon (checkpoints stay on disk)."""
        return self._request("DELETE", f"/sessions/{session_id}")

    def submit_jobs(self, session_id: str, jobs: Sequence[dict]) -> dict:
        """Submit job dicts into a running session."""
        return self._request("POST", f"/sessions/{session_id}/jobs", {"jobs": list(jobs)})

    def advance(
        self, session_id: str, until_h: float, *, deadline_s: Optional[float] = None
    ) -> dict:
        """Advance the session to ``until_h``; the reply carries ``timed_out``."""
        body: dict[str, Any] = {"until_h": until_h}
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        timeout = None if deadline_s is None else deadline_s + self.timeout_s
        return self._request(
            "POST", f"/sessions/{session_id}/advance", body, timeout_s=timeout
        )

    def checkpoint(self, session_id: str) -> dict:
        """Checkpoint the session now; returns the file path written."""
        return self._request("POST", f"/sessions/{session_id}/checkpoint", {})

    def finalize(self, session_id: str) -> dict:
        """Finalize the session's run; returns the result summary."""
        return self._request("POST", f"/sessions/{session_id}/finalize", {})

    def route(
        self,
        job: dict,
        *,
        router: str = "round-robin",
        sessions: Optional[Sequence[str]] = None,
    ) -> dict:
        """What-if: which live session would ``router`` send this job to?"""
        body: dict[str, Any] = {"job": job, "router": router}
        if sessions is not None:
            body["sessions"] = list(sessions)
        return self._request("POST", "/route", body)

    def stream_telemetry(
        self,
        session_id: str,
        *,
        since: int = 0,
        follow: bool = False,
        max_wait_s: float = 10.0,
    ) -> Iterator[dict]:
        """Yield tick rows from the NDJSON stream, starting at row ``since``.

        With ``follow=True`` the daemon holds the connection open waiting for
        new rows (up to ``max_wait_s`` of idleness); resume an interrupted
        stream by passing the last row count as ``since``.  The stream runs
        on its own connection, closed when the generator ends or is closed.
        """
        query = urlencode(
            {"since": since, "follow": int(follow), "max_wait_s": max_wait_s}
        )
        path = f"{self._prefix}/sessions/{session_id}/telemetry?{query}"
        connection = self._connect(self.timeout_s + (max_wait_s if follow else 0.0))
        try:
            connection.request("GET", path)
            with connection.getresponse() as response:
                if response.status >= 400:
                    raise ServeError(self._error_message(response, response.read()))
                for line in response:
                    line = line.strip()
                    if line:
                        yield json.loads(line)
        except (OSError, http.client.HTTPException) as exc:
            raise self._unreachable(exc) from None
        finally:
            connection.close()
