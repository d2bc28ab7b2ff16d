"""A pure-stdlib client for the ``greenhpc serve`` daemon.

HTTP/1.1 over plain sockets (wrapped by :mod:`ssl` for ``https://`` URLs):
one method per endpoint plus a generator over the NDJSON telemetry stream.
Each thread that uses a client keeps one connection to the daemon and sends
every request over it, request line, headers and body in one write; the
reply is read through one buffered reader that lives as long as the
connection.  Replies must be framed by ``Content-Length`` or by the end of
the connection; a ``Transfer-Encoding`` reply is refused.
:meth:`ServeClient.close` (or leaving a ``with`` block) closes every
connection.  A telemetry read without ``follow`` is one request on the
thread's connection.  A ``follow=True`` stream gets a connection of its own,
closed when the generator ends or is closed, so other calls can be
interleaved while iterating it.

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

import json
import re
import socket
import threading
from typing import Any, Callable, Iterator, Optional, Sequence
from urllib.parse import urlencode, urlsplit

from ..errors import ServeError

__all__ = ["ServeClient"]

_DEFAULT_PORTS = {"http": 80, "https": 443}

#: Longest status or header line read, and most header lines per reply.
_MAX_LINE = 65536
_MAX_HEADERS = 100

#: Anything but visible ASCII would break (or smuggle into) the request line.
_UNSAFE_TARGET = re.compile(r"[^\x21-\x7e]")


class _Reply:
    """One reply: its status, reason, ``Content-Length``, whether the
    connection ends after it, and (once read) its body."""

    __slots__ = ("status", "reason", "length", "closes", "body")

    def __init__(self, status: int, reason: str, length: Optional[str], closes: bool) -> None:
        self.status = status
        self.reason = reason
        self.length = length
        self.closes = closes
        self.body = b""

    def error(self) -> ServeError:
        try:
            return ServeError(f"{self.status}: {json.loads(self.body)['error']}")
        except (ValueError, KeyError, TypeError):
            return ServeError(f"{self.status}: {self.reason}")


class _Connection:
    """One HTTP/1.1 connection, opened on first use and again after a close.

    ``reused`` says whether the open socket has carried a reply before, so
    that the daemon may have closed it meanwhile.
    """

    def __init__(self, open_socket: Callable[[float], socket.socket]) -> None:
        self._open_socket = open_socket
        self.sock: Optional[socket.socket] = None
        self.reader: Any = None
        self.reused = False

    def close(self) -> None:
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
        self.sock = self.reader = None
        self.reused = False

    def send(self, message: bytes, timeout_s: float) -> bool:
        """Send one request; ``False`` when a reused connection was already closed."""
        if self.sock is None:
            self.sock = self._open_socket(timeout_s)
            self.reader = self.sock.makefile("rb")
        else:
            self.sock.settimeout(timeout_s)
        try:
            self.sock.sendall(message)
        except (BrokenPipeError, ConnectionResetError):
            if self.reused:
                return False
            raise
        return True

    def read_head(self) -> Optional[_Reply]:
        """The status line and headers; ``None`` when a reused connection
        ended before any status line arrived."""
        try:
            line = self.reader.readline(_MAX_LINE + 1)
        except ConnectionResetError:
            if not self.reused:
                raise
            line = b""
        if not line:
            if self.reused:
                return None
            raise ConnectionError("the daemon closed the connection without replying")
        version, _, rest = _decode_line(line).partition(" ")
        code, _, reason = rest.partition(" ")
        if not version.startswith("HTTP/1.") or len(code) != 3 or not code.isdigit():
            raise ServeError(f"malformed status line from the daemon: {line[:80]!r}")
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            line = self.reader.readline(_MAX_LINE + 1)
            if line in (b"\r\n", b"\n"):
                break
            name, colon, value = _decode_line(line).partition(":")
            if not colon:
                raise ServeError(f"malformed reply header from the daemon: {line[:80]!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ServeError(f"reply has more than {_MAX_HEADERS} header lines")
        if "transfer-encoding" in headers:
            raise ServeError(
                f"reply framed with Transfer-Encoding: {headers['transfer-encoding']}; "
                "only Content-Length framing is supported"
            )
        self.reused = True
        tokens = headers.get("connection", "").lower()
        closes = "close" in tokens or (version == "HTTP/1.0" and "keep-alive" not in tokens)
        return _Reply(int(code), reason.strip(), headers.get("content-length"), closes)

    def read_body(self, reply: _Reply) -> None:
        """Read the body ``reply`` declares; the connection closes after it if it must."""
        declared = reply.length
        if declared is None:
            reply.body = self.reader.read()  # framed by the end of the connection
            self.close()
            return
        if not declared.isdigit():
            raise ServeError(f"invalid Content-Length {declared!r} in the daemon's reply")
        length = int(declared)
        reply.body = self.reader.read(length)
        if len(reply.body) != length:
            raise ConnectionError(f"reply is shorter than its Content-Length {length}")
        if reply.closes:
            self.close()


def _decode_line(line: bytes) -> str:
    if len(line) > _MAX_LINE:
        raise ServeError(f"reply line longer than {_MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise ConnectionError("the daemon closed the connection inside the reply headers")
    return line.decode("latin-1").rstrip("\r\n")


class ServeClient:
    """Talks to one ``greenhpc serve`` daemon at ``base_url``.

    Safe to share between threads: every thread gets its own connection.
    """

    def __init__(self, base_url: str, *, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = float(timeout_s)
        parts = urlsplit(self.base_url)
        if parts.scheme not in _DEFAULT_PORTS or not parts.hostname:
            raise ServeError(f"not an http(s) daemon URL: {base_url!r}")
        try:
            port = parts.port or _DEFAULT_PORTS[parts.scheme]
        except ValueError as exc:
            raise ServeError(f"not an http(s) daemon URL: {base_url!r} ({exc})") from None
        self._address = (parts.hostname, port)
        self._host_header = parts.netloc.rpartition("@")[2]
        self._prefix = parts.path
        self._tls: Any = None
        if parts.scheme == "https":
            import ssl

            self._tls = ssl.create_default_context()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open: list[_Connection] = []

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
    def _open_socket(self, timeout_s: float) -> socket.socket:
        sock = socket.create_connection(self._address, timeout=timeout_s)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        return sock

    def _pooled(self) -> _Connection:
        """This thread's persistent connection (created on first use)."""
        with self._lock:
            local = self._local
            connection = getattr(local, "connection", None)
            if connection is None:
                connection = local.connection = _Connection(self._open_socket)
                self._open.append(connection)
        return connection

    def _unreachable(self, exc: BaseException) -> ServeError:
        return ServeError(f"cannot reach daemon at {self.base_url}: {exc}")

    def _message(self, method: str, path: str, data: Optional[bytes]) -> bytes:
        """One request, request line to body, ready for a single write."""
        target = self._prefix + path
        if _UNSAFE_TARGET.search(target):
            raise ServeError(f"request path must be visible ASCII: {target!r}")
        head = f"{method} {target} HTTP/1.1\r\nHost: {self._host_header}\r\n"
        if data is None:
            return (head + "\r\n").encode()
        head += f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
        return head.encode() + data

    def _exchange(self, connection: _Connection, message: bytes, timeout_s: float) -> _Reply:
        """Send ``message`` and read the whole reply, retrying once on a stale connection."""
        try:
            reply = connection.read_head() if connection.send(message, timeout_s) else None
            if reply is None:  # closed by the daemon before any status line
                connection.close()
                connection.send(message, timeout_s)
                reply = connection.read_head()
            connection.read_body(reply)
        except OSError as exc:
            connection.close()
            raise self._unreachable(exc) from None
        except ServeError:
            connection.close()
            raise
        return reply

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        *,
        timeout_s: Optional[float] = None,
    ) -> Any:
        data = None if body is None else json.dumps(body).encode()
        message = self._message(method, path, data)
        reply = self._exchange(self._pooled(), message, timeout_s or self.timeout_s)
        if reply.status >= 400:
            raise reply.error()
        return json.loads(reply.body)

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
        """Finalize the session's run; returns its ``summary``, ``digest`` and status."""
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

        Without ``follow`` the rows recorded so far come back as one reply
        on this thread's connection.  With ``follow=True`` the daemon holds
        a connection of its own open waiting for new rows (up to
        ``max_wait_s`` of idleness), closed when the generator ends or is
        closed; resume an interrupted stream by passing the last row count
        as ``since``.
        """
        query = urlencode(
            {"since": since, "follow": int(follow), "max_wait_s": max_wait_s}
        )
        message = self._message("GET", f"/sessions/{session_id}/telemetry?{query}", None)
        if not follow:
            reply = self._exchange(self._pooled(), message, self.timeout_s)
            if reply.status >= 400:
                raise reply.error()
            yield from map(json.loads, reply.body.splitlines())
            return
        connection = _Connection(self._open_socket)
        try:
            connection.send(message, self.timeout_s + max_wait_s)
            reply = connection.read_head()
            if reply.status >= 400:
                connection.read_body(reply)
                raise reply.error()
            for line in connection.reader:
                line = line.strip()
                if line:
                    yield json.loads(line)
        except OSError as exc:
            raise self._unreachable(exc) from None
        finally:
            connection.close()
