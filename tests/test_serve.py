"""The simulation service: daemon API, streaming, routing, restart-restore.

Each test class shares one in-process :class:`~repro.serve.ServeDaemon` on an
ephemeral port, talked to through the pure-stdlib
:class:`~repro.serve.ServeClient`.  The restart test is the subsystem's
acceptance gate: checkpoint at hour H, drop the daemon, restore into a fresh
one, advance to the horizon — the run summary and the streamed telemetry
must equal the uninterrupted session's bit for bit.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.errors import ServeError
from repro.serve import ServeClient, ServeDaemon

HORIZON_H = 72.0


@pytest.fixture()
def daemon(tmp_path):
    daemon = ServeDaemon(
        port=0,
        checkpoint_dir=str(tmp_path / "ckpt"),
        checkpoint_every_h=1000.0,  # only explicit checkpoints in tests
        request_timeout_s=30.0,
    )
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    try:
        yield daemon
    finally:
        daemon._server.shutdown()
        daemon.close()
        thread.join(timeout=5)


@pytest.fixture()
def client(daemon):
    with ServeClient(f"http://127.0.0.1:{daemon.port}") as client:
        yield client


def _job_body(field, value):
    """A one-job submission body whose last field is ``field = value``."""
    job = {"job_id": "j", "user_id": "u", "n_gpus": 1, "duration_h": 1.0, "submit_time_h": 1.0}
    job.pop(field, None)
    return {"jobs": [{**job, field: value}]}


def _create(client, session_id="s1", **extra):
    params = dict(
        session_id=session_id,
        scenario="supercloud-small",
        policy="backfill",
        horizon_h=HORIZON_H,
        preload_jobs=60,
    )
    params.update(extra)
    return client.create_session(**params)


class TestSessionLifecycle:
    def test_health_and_version(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["checkpointing"] is True
        from repro import __version__

        assert client.version()["version"] == __version__

    def test_create_advance_finalize(self, client):
        status = _create(client)
        assert status["session_id"] == "s1"
        assert status["now_h"] == 0.0
        status = client.advance("s1", until_h=24.0)
        assert status["now_h"] == 24.0
        assert status["timed_out"] is False
        assert status["ticks_recorded"] == 24
        summary = client.finalize("s1")["summary"]
        assert summary["completed_jobs"] > 0
        assert client.session_status("s1")["finalized"] is True

    def test_mid_run_submission_runs(self, client):
        _create(client, preload_jobs=0)
        client.advance("s1", until_h=10.0)
        accepted = client.submit_jobs(
            "s1",
            [{"job_id": "mid", "user_id": "u", "n_gpus": 2, "duration_h": 2.0,
              "submit_time_h": 12.0}],
        )["accepted"]
        assert accepted == 1
        client.advance("s1", until_h=HORIZON_H)
        summary = client.finalize("s1")["summary"]
        assert summary["completed_jobs"] == 1.0

    def test_sessions_share_one_world(self, daemon, client):
        _create(client, session_id="a")
        _create(client, session_id="b", policy="carbon-aware")
        assert client.health()["worlds"] == 1
        assert {s["session_id"] for s in client.list_sessions()} == {"a", "b"}
        first = daemon.manager.get("a").simulator
        second = daemon.manager.get("b").simulator
        assert first.weather_hourly_c is second.weather_hourly_c
        _create(client, session_id="c", seed=99)
        assert client.health()["worlds"] == 2

    def test_delete_session(self, client):
        _create(client)
        client.delete_session("s1")
        with pytest.raises(ServeError, match="404"):
            client.session_status("s1")

    def test_unknown_session_is_404(self, client):
        with pytest.raises(ServeError, match="404"):
            client.advance("ghost", until_h=1.0)

    def test_bad_requests_are_400(self, client):
        with pytest.raises(ServeError, match="400"):
            client.create_session(scenario="no-such-scenario")
        _create(client)
        with pytest.raises(ServeError, match="400"):
            client.submit_jobs("s1", [{"job_id": "x"}])  # missing required fields
        for field, value in (("tags", "x"), ("deferrable", "no"), ("queue_name", ["q"])):
            with pytest.raises(ServeError, match=f"400: field '{field}'"):
                client.submit_jobs("s1", _job_body(field, value)["jobs"])  # wrong type
        with pytest.raises(ServeError, match="400"):
            client.create_session(session_id="s1")  # duplicate id
        client.finalize("s1")
        with pytest.raises(ServeError, match="400"):
            client.advance("s1", until_h=80.0)  # finalized

    @pytest.mark.parametrize("session_id", ["café", "s١", "²"])
    def test_ids_the_checkpoint_store_cannot_list_are_400(self, client, session_id):
        # str.isalnum() accepts these, but their checkpoint files would never
        # be listed again, so a restart would lose the session.
        with pytest.raises(ServeError, match="400"):
            _create(client, session_id=session_id, preload_jobs=0)
        assert client.list_sessions() == []

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/sessions", {"horizon_h": "abc"}),
            ("/sessions", {"horizon_h": float("nan")}),
            ("/sessions", {"tick_h": [1]}),
            ("/sessions", {"preload_jobs": "many"}),
            ("/sessions", {"facility_power_budget_w": "lots"}),
            ("/sessions", {"power_cap_fraction": "x"}),
            ("/sessions", {"seed": "s"}),
            ("/sessions", {"start_year": {}}),
            ("/sessions", {"n_months": "two"}),
            ("/sessions/s1/advance", {"until_h": "later"}),
            ("/sessions/s1/advance", {"until_h": 1.0, "deadline_s": "soon"}),
            ("/sessions", {"preload_jobs": 2.5}),
            ("/sessions", {"seed": True}),
            ("/sessions/s1/jobs", _job_body("n_gpus", 2.5)),
            ("/sessions/s1/jobs", _job_body("n_gpus", "2")),
            ("/sessions/s1/jobs", _job_body("n_gpus", True)),
            ("/sessions/s1/jobs", _job_body("utilization", None)),
            ("/sessions/s1/jobs", _job_body("submit_time_h", float("nan"))),
            ("/route", {"job": _job_body("priority", 0)["jobs"][0], "sessions": 5}),
        ],
    )
    def test_malformed_numbers_are_400(self, client, path, body):
        _create(client, preload_jobs=0)
        bad_field = list(body)[-1]
        if bad_field == "jobs":
            bad_field = list(body["jobs"][0])[-1]
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", path, {"scenario": "supercloud-small", **body})
        message = str(excinfo.value)
        assert message.startswith("400:"), message
        assert repr(bad_field) in message
        assert client.health()["status"] == "ok"

    def test_duplicate_and_past_submissions_rejected(self, client):
        _create(client, preload_jobs=0)
        job = {"job_id": "j", "user_id": "u", "n_gpus": 1, "duration_h": 1.0,
               "submit_time_h": 5.0}
        client.submit_jobs("s1", [job])
        with pytest.raises(ServeError, match="duplicate"):
            client.submit_jobs("s1", [job])
        client.advance("s1", until_h=24.0)
        with pytest.raises(ServeError, match="past"):
            client.submit_jobs("s1", [dict(job, job_id="j2", submit_time_h=3.0)])


class TestTelemetry:
    def test_stream_and_resume_by_cursor(self, client):
        _create(client)
        client.advance("s1", until_h=24.0)
        rows = list(client.stream_telemetry("s1"))
        assert len(rows) == 24
        assert rows[0]["now_h"] == 0.0
        assert rows[-1]["now_h"] == 23.0
        assert all(row["facility_power_w"] >= row["it_power_w"] for row in rows)
        assert all(row["carbon_intensity_g_per_kwh"] > 0 for row in rows)
        client.advance("s1", until_h=30.0)
        tail = list(client.stream_telemetry("s1", since=len(rows)))
        assert [row["now_h"] for row in tail] == [24.0, 25.0, 26.0, 27.0, 28.0, 29.0]

    def test_since_beyond_end_of_stream_is_an_empty_200(self, client):
        _create(client)
        client.advance("s1", until_h=6.0)
        assert list(client.stream_telemetry("s1", since=6)) == []
        assert list(client.stream_telemetry("s1", since=10_000)) == []
        # The session is untouched and still streams from the top.
        assert len(list(client.stream_telemetry("s1"))) == 6

    def test_dropped_follow_reader_resumes_by_cursor(self, client):
        """A follow=1 reader that dies mid-stream reconnects with since=N."""
        _create(client)
        client.advance("s1", until_h=8.0)
        seen = []
        stream = client.stream_telemetry("s1", follow=True, max_wait_s=5.0)
        for row in stream:
            seen.append(row)
            if len(seen) == 3:
                break
        stream.close()  # drop the connection mid-stream
        client.advance("s1", until_h=12.0)
        resumed = list(client.stream_telemetry("s1", since=len(seen)))
        assert [row["now_h"] for row in seen + resumed] == [float(h) for h in range(12)]

    def test_non_integer_since_is_a_clean_400(self, client):
        from urllib import error as urlerror
        from urllib import request as urlrequest

        _create(client)
        client.advance("s1", until_h=2.0)
        for query in ("since=abc", "since=1.5", "max_wait_s=soon"):
            url = f"{client.base_url}/sessions/s1/telemetry?{query}"
            with pytest.raises(urlerror.HTTPError) as excinfo:
                urlrequest.urlopen(url, timeout=10)
            assert excinfo.value.code == 400
            excinfo.value.close()

    def test_non_finite_max_wait_is_a_clean_400(self, client):
        """A NaN wait would slip past the request-timeout cap and hold the stream open."""
        from urllib import error as urlerror
        from urllib import request as urlrequest

        _create(client)
        client.advance("s1", until_h=2.0)
        for value in ("nan", "inf"):
            url = f"{client.base_url}/sessions/s1/telemetry?follow=1&max_wait_s={value}"
            with pytest.raises(urlerror.HTTPError) as excinfo:
                urlrequest.urlopen(url, timeout=10)
            assert excinfo.value.code == 400
            assert b"max_wait_s" in excinfo.value.read()
            excinfo.value.close()

    def test_follow_sees_rows_from_concurrent_advance(self, client):
        _create(client)
        collected = []

        def reader():
            for row in client.stream_telemetry("s1", follow=True, max_wait_s=10.0):
                collected.append(row)
                if len(collected) >= 12:
                    break

        thread = threading.Thread(target=reader)
        thread.start()
        client.advance("s1", until_h=12.0)
        thread.join(timeout=20)
        assert not thread.is_alive()
        assert len(collected) >= 12


class TestObservability:
    def test_session_uptime_and_request_counts(self, client):
        _create(client)
        status = client.session_status("s1")
        assert status["uptime_s"] >= 0.0
        assert status["requests"] >= 1  # the status read itself counts
        client.advance("s1", until_h=4.0)
        later = client.session_status("s1")
        assert later["uptime_s"] >= status["uptime_s"]
        assert later["requests"] > status["requests"]
        health = client.health()
        stats = health["session_stats"]["s1"]
        assert stats["uptime_s"] >= 0.0 and stats["requests"] >= 2
        listed = {s["session_id"]: s for s in client.list_sessions()}
        assert "uptime_s" in listed["s1"] and "requests" in listed["s1"]

    def test_metrics_endpoint_is_prometheus_text(self, daemon, client):
        from urllib import request as urlrequest

        _create(client)
        daemon.checkpoint_every_h = 1.0  # this advance writes two checkpoints
        client.advance("s1", until_h=2.0)
        url = f"http://127.0.0.1:{daemon.port}/metrics"
        with urlrequest.urlopen(url, timeout=10) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode()
        assert "# TYPE serve_requests_total counter" in text
        assert 'route="sessions/{id}/advance"' in text  # bounded-cardinality label
        assert "serve_sessions 1.0" in text
        assert 'serve_session_now_h{session="s1"} 2.0' in text
        assert 'serve_session_requests{session="s1"}' in text
        values = dict(
            line.rsplit(" ", 1) for line in text.splitlines() if not line.startswith("#")
        )
        assert "# TYPE serve_checkpoints_total counter" in text
        assert values["serve_checkpoints_total"] == "2.0"
        written = sum(path.stat().st_size for path in daemon.store.checkpoints("s1"))
        assert float(values["serve_checkpoint_bytes_total"]) == written
        assert "# TYPE serve_checkpoint_seconds histogram" in text
        assert values["serve_checkpoint_seconds_count"] == "2"
        assert values['serve_checkpoint_seconds_bucket{le="+Inf"}'] == "2"
        assert float(values["serve_checkpoint_seconds_sum"]) > 0.0
        # Scraping twice refreshes the gauges without duplicating families.
        with urlrequest.urlopen(url, timeout=10) as resp:
            again = resp.read().decode()
        assert again.count("# TYPE serve_sessions gauge") == 1

    def test_unknown_routes_share_one_metric_label(self, daemon, client):
        from urllib import error as urlerror
        from urllib import request as urlrequest

        for path in ("/nope", "/definitely/not/a/route"):
            with pytest.raises(urlerror.HTTPError):
                urlrequest.urlopen(
                    f"http://127.0.0.1:{daemon.port}{path}", timeout=10
                )
        text = (
            urlrequest.urlopen(f"http://127.0.0.1:{daemon.port}/metrics", timeout=10)
            .read()
            .decode()
        )
        assert text.count('route="other"') == 1  # one series, status=404

    def test_requests_are_traced_when_ambient_recorder_enabled(self, client):
        from repro.obs import NULL_RECORDER, TraceRecorder, recording, set_recorder

        try:
            rec = TraceRecorder()
            with recording(rec):
                client.health()
                # The handler thread closes the span just after the body is
                # flushed to the client; give it a beat to land.
                deadline = time.monotonic() + 5.0
                while not rec.spans and time.monotonic() < deadline:
                    time.sleep(0.01)
            spans = [s for s in rec.spans if s.name == "serve.request"]
            assert len(spans) == 1
            assert spans[0].attributes["route"] == "health"
            assert spans[0].attributes["status"] == 200
        finally:
            set_recorder(NULL_RECORDER)


def _raw(daemon) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=10)


def _exchange(connection, method, path, body=None):
    """One request on a raw keep-alive connection; returns (status, headers, body)."""
    headers = {"Content-Type": "application/json"} if body is not None else {}
    connection.request(method, path, body, headers)
    response = connection.getresponse()
    return response.status, response.headers, response.read()


def _connections(daemon) -> float:
    return daemon.metrics.counter("serve_connections_total").value


class TestTransport:
    """Persistent HTTP/1.1 connections between ServeClient and the daemon."""

    def test_every_route_leaves_the_connection_at_the_next_request(self, daemon, client):
        _create(client)
        connection = _raw(daemon)
        try:
            # finalize never reads its body; the daemon still must.
            assert _exchange(connection, "POST", "/sessions/s1/finalize", b"{}")[0] == 200
            assert _exchange(connection, "GET", "/health")[0] == 200
            # An error raised before any route reads the body, too.
            assert _exchange(connection, "POST", "/sessions/ghost/advance", b'{"until_h": 1}')[0] == 404
            assert _exchange(connection, "POST", "/nope", b'{"x": 1}')[0] == 404
            assert _exchange(connection, "GET", "/version")[0] == 200
        finally:
            connection.close()
        assert _connections(daemon) == 2.0  # the client's and the raw one

    def test_keep_alive_requests_do_not_stall(self, daemon):
        connection = _raw(daemon)
        try:
            assert _exchange(connection, "GET", "/health")[0] == 200
            start = time.perf_counter()
            for _ in range(20):
                assert _exchange(connection, "GET", "/health")[0] == 200
            elapsed = time.perf_counter() - start
        finally:
            connection.close()
        # A Nagle/delayed-ACK stall costs ~40 ms a request (~0.9 s for 20).
        assert elapsed < 0.4

    def test_client_calls_share_one_connection(self, daemon, client):
        _create(client)
        before = _connections(daemon)
        with ServeClient(client.base_url) as fresh:
            for hour in range(1, 51):
                fresh.advance("s1", until_h=float(hour))
                fresh.session_status("s1")
        assert _connections(daemon) - before == 1.0

    def test_threads_never_share_a_connection(self, daemon, client):
        _create(client)
        before = _connections(daemon)
        errors = []

        def worker():
            try:
                for _ in range(20):
                    assert client.session_status("s1")["session_id"] == "s1"
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert _connections(daemon) - before == 4.0

    def test_requests_interleave_with_a_telemetry_stream(self, daemon, client):
        _create(client)
        client.advance("s1", until_h=2.0)
        seen = []
        stream = client.stream_telemetry("s1", follow=True, max_wait_s=1.0)
        for row in stream:
            seen.append(row["now_h"])
            if len(seen) == 8:
                break
            client.advance("s1", until_h=len(seen) + 2.0)
            assert client.session_status("s1")["now_h"] == len(seen) + 2.0
        stream.close()
        assert seen == [float(hour) for hour in range(8)]
        assert client.health()["status"] == "ok"

    def test_idle_connection_closed_by_daemon_is_retried_once(self, tmp_path):
        daemon = ServeDaemon(port=0, request_timeout_s=0.2)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        try:
            with ServeClient(f"http://127.0.0.1:{daemon.port}") as client:
                assert client.health()["status"] == "ok"
                time.sleep(0.6)  # the daemon drops the idle connection
                assert client.health()["status"] == "ok"
            assert _connections(daemon) == 2.0
        finally:
            daemon._server.shutdown()
            daemon.close()
            thread.join(timeout=5)

    def test_unreachable_daemon_is_a_serve_error(self):
        daemon = ServeDaemon(port=0)
        url = f"http://127.0.0.1:{daemon.port}"
        daemon.close()  # nothing listens there any more
        with pytest.raises(ServeError, match="cannot reach daemon at"):
            ServeClient(url).health()

    def test_unframed_bodies_are_refused_and_close_the_connection(self, daemon):
        connection = _raw(daemon)
        try:
            connection.putrequest("POST", "/sessions")
            connection.putheader("Transfer-Encoding", "chunked")
            connection.endheaders(b"2\r\n{}\r\n0\r\n\r\n")
            response = connection.getresponse()
            assert response.status == 400
            assert response.headers["Connection"] == "close"
            assert "Content-Length" in json.loads(response.read())["error"]
        finally:
            connection.close()

    def test_drain_refuses_requests_on_open_connections(self, tmp_path):
        existing = set(threading.enumerate())
        daemon = ServeDaemon(port=0, checkpoint_dir=str(tmp_path / "ckpt"))
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        client = ServeClient(f"http://127.0.0.1:{daemon.port}")
        _create(client, session_id="drained")
        client.advance("drained", until_h=6.0)
        connection = _raw(daemon)
        assert _exchange(connection, "GET", "/health")[0] == 200
        handlers = [
            t for t in threading.enumerate()
            if t not in existing and "process_request_thread" in t.name
        ]
        assert len(handlers) == 2  # the client's connection and the raw one
        daemon.shutdown()
        status, headers, body = _exchange(
            connection, "POST", "/sessions/drained/advance", b'{"until_h": 12}'
        )
        assert status == 503
        assert headers["Connection"] == "close"
        thread.join(timeout=10)
        assert not thread.is_alive()
        start = time.perf_counter()
        daemon.close()  # the client's kept-alive connection is still open here
        assert time.perf_counter() - start < 5.0  # not the 30 s idle timeout
        assert not any(handler.is_alive() for handler in handlers)
        assert daemon.manager.get("drained").advanced_to_h == 6.0
        assert daemon.store.latest("drained")["advanced_to_h"] == 6.0
        connection.close()
        client.close()


class TestDiagnostics:
    def test_internal_error_is_keyed_by_a_request_id(self, daemon, client, capfd, monkeypatch):
        def broken():
            raise RuntimeError("injected fault")

        monkeypatch.setattr(daemon.manager, "sessions", broken)
        connection = _raw(daemon)
        try:
            status, _, body = _exchange(connection, "GET", "/health")
        finally:
            connection.close()
        assert status == 500
        payload = json.loads(body)
        assert payload["error"] == "RuntimeError: injected fault"
        request_id = payload["request_id"]
        err = capfd.readouterr().err
        assert f"request {request_id} (GET /health) failed" in err
        assert "Traceback (most recent call last)" in err
        assert "RuntimeError: injected fault" in err
        with pytest.raises(ServeError, match="500: RuntimeError: injected fault"):
            client.health()

    def test_metrics_count_connections(self, daemon, client):
        _create(client)
        for hour in range(1, 11):
            client.advance("s1", until_h=float(hour))
        connection = _raw(daemon)
        try:
            text = _exchange(connection, "GET", "/metrics")[2].decode()
        finally:
            connection.close()
        assert "# TYPE serve_connections_total counter" in text
        # The client's connection plus the scrape's.
        assert "serve_connections_total 2.0" in text
        assert 'serve_requests_total{method="POST",route="sessions/{id}/advance",status="200"} 10.0' in text


class TestRouting:
    def test_route_prefers_empty_queue(self, client):
        _create(client, session_id="busy", preload_jobs=0)
        _create(client, session_id="idle", preload_jobs=0)
        # Saturate "busy": 30 x 4 GPUs on a 64-GPU facility leaves a queue.
        client.submit_jobs(
            "busy",
            [{"job_id": f"fill-{i}", "user_id": "u", "n_gpus": 4,
              "duration_h": 10.0, "submit_time_h": 0.5} for i in range(30)],
        )
        client.advance("busy", until_h=1.0)
        client.advance("idle", until_h=1.0)
        answer = client.route(
            {"job_id": "probe", "user_id": "u", "n_gpus": 2, "duration_h": 1.0,
             "submit_time_h": 1.0},
            router="least-queued",
        )
        assert answer["session_id"] == "idle"
        assert len(answer["candidates"]) == 2

    def test_route_respects_session_filter_and_composed_spec(self, client):
        _create(client, session_id="a")
        _create(client, session_id="b")
        answer = client.route(
            {"job_id": "probe", "user_id": "u", "n_gpus": 1, "duration_h": 1.0,
             "submit_time_h": 0.0},
            router="carbon-min+queue-cap(max=500)",
            sessions=["b"],
        )
        assert answer["session_id"] == "b"

    def test_route_without_sessions_is_400(self, client):
        with pytest.raises(ServeError, match="400"):
            client.route({"job_id": "p", "user_id": "u", "n_gpus": 1,
                          "duration_h": 1.0, "submit_time_h": 0.0})


def _rows_as_json(rows) -> str:
    """Telemetry rows as JSON text, less the session id that names the stream."""
    return json.dumps([{k: v for k, v in row.items() if k != "session_id"} for row in rows])


class TestCheckpointRestore:
    @pytest.mark.parametrize(
        "policy",
        # The adaptive cap's controller state is rebuilt by the replay, and
        # its budget binds on this trace.
        ["backfill", "backfill+adaptive(budget_w=6000)"],
    )
    def test_restart_resumes_bit_identically(self, tmp_path, policy):
        """The acceptance gate: kill at hour 36, restore, finish — same summary and stream."""
        ckpt = str(tmp_path / "ckpt")
        # A client job that is not in the preload trace: restore cannot
        # regenerate it, so the checkpoint's journal must carry it.
        late = {
            "job_id": "client-late",
            "user_id": "u",
            "n_gpus": 2,
            "duration_h": 5.0,
            "submit_time_h": 30.0,
        }

        def run_daemon():
            daemon = ServeDaemon(port=0, checkpoint_dir=ckpt, request_timeout_s=30.0)
            thread = threading.Thread(target=daemon.serve_forever, daemon=True)
            thread.start()
            return daemon, ServeClient(f"http://127.0.0.1:{daemon.port}")

        # Uninterrupted reference session.
        daemon, client = run_daemon()
        _create(client, session_id="ref", policy=policy)
        client.submit_jobs("ref", [late])
        client.advance("ref", until_h=HORIZON_H)
        reference = client.finalize("ref")["summary"]
        reference_rows = list(client.stream_telemetry("ref"))

        # Interrupted twin: advance halfway, checkpoint, drop the daemon cold.
        _create(client, session_id="twin", policy=policy)
        client.submit_jobs("twin", [late])
        client.advance("twin", until_h=36.0)
        client.checkpoint("twin")
        daemon._server.shutdown()
        daemon.close()
        client.close()

        daemon, client = run_daemon()
        try:
            assert "twin" in client.health()["restored"]
            status = client.session_status("twin")
            assert status["now_h"] == 36.0
            assert status["ticks_recorded"] == 36
            client.advance("twin", until_h=HORIZON_H)
            resumed = client.finalize("twin")["summary"]
            assert resumed == reference
            rows = list(client.stream_telemetry("twin"))
            assert len(rows) == len(reference_rows) == HORIZON_H + 1
            assert {row["session_id"] for row in rows} == {"twin"}
            assert _rows_as_json(rows) == _rows_as_json(reference_rows)
        finally:
            client.close()
            daemon._server.shutdown()
            daemon.close()

    def test_graceful_shutdown_checkpoints_sessions(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        daemon = ServeDaemon(port=0, checkpoint_dir=ckpt, request_timeout_s=30.0)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        client = ServeClient(f"http://127.0.0.1:{daemon.port}")
        _create(client, session_id="drained")
        client.advance("drained", until_h=12.0)
        daemon.shutdown()  # the SIGTERM path: drain-checkpoint then stop
        thread.join(timeout=10)
        assert not thread.is_alive()
        daemon.close()
        client.close()
        assert "drained" in daemon.store.session_ids()
        payload = daemon.store.latest("drained")
        assert payload["advanced_to_h"] == 12.0
        # And a fresh daemon restores it.
        daemon2 = ServeDaemon(port=0, checkpoint_dir=ckpt)
        assert daemon2.restored == ["drained"]
        daemon2.close()

    def test_restore_time_is_on_metrics(self, tmp_path):
        """A restarted daemon observes one replay time per restored session."""
        from urllib import request as urlrequest

        ckpt = str(tmp_path / "ckpt")
        daemon = ServeDaemon(port=0, checkpoint_dir=ckpt)
        manager = daemon.manager
        for session_id in ("r1", "r2"):
            session = manager.create_session(
                {"session_id": session_id, "scenario": "supercloud-small", "preload_jobs": 30}
            )
            session.advance_to(24.0)
            session.checkpoint(daemon.store)
        daemon.close()

        daemon = ServeDaemon(port=0, checkpoint_dir=ckpt)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        try:
            assert daemon.restored == ["r1", "r2"]
            url = f"http://127.0.0.1:{daemon.port}/metrics"
            with urlrequest.urlopen(url, timeout=10) as resp:
                text = resp.read().decode()
        finally:
            daemon._server.shutdown()
            daemon.close()
            thread.join(timeout=5)
        values = dict(
            line.rsplit(" ", 1) for line in text.splitlines() if not line.startswith("#")
        )
        assert "# TYPE serve_restore_seconds histogram" in text
        assert values["serve_restore_seconds_count"] == "2"
        assert values['serve_restore_seconds_bucket{le="+Inf"}'] == "2"
        assert float(values["serve_restore_seconds_sum"]) > 0.0

    def test_checkpoint_disabled_without_dir(self):
        daemon = ServeDaemon(port=0, checkpoint_dir=None)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        client = ServeClient(f"http://127.0.0.1:{daemon.port}")
        try:
            assert client.health()["checkpointing"] is False
            _create(client)
            with pytest.raises(ServeError, match="disabled"):
                client.checkpoint("s1")
        finally:
            client.close()
            daemon._server.shutdown()
            daemon.close()
            thread.join(timeout=5)


class TestCli:
    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_serve_subcommand_registered(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--checkpoint-dir", "/tmp/x"]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.checkpoint_every_h == 24.0
