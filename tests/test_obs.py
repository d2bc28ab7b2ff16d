"""The observability subsystem (repro.obs): recorder, metrics, exporters, wiring.

Covers the observability issue's acceptance bar end to end:

* span recording (nesting, threading, attributes, worker-batch merging) and
  the zero-overhead :data:`~repro.obs.NULL_RECORDER` contract;
* the metrics registry and its Prometheus text exposition;
* exporter round-trips (Chrome ``trace_event`` JSON and NDJSON) plus the
  ``greenhpc obs`` digest;
* a traced **two-site parallel fleet run** whose exported Chrome trace shows
  per-site ``fleet.site_advance`` spans on per-worker timelines;
* a warm cached campaign whose trace shows cache-hit point events and **no**
  ``campaign.simulate`` span;
* parity: tracing must not change simulation results, and checkpoints taken
  with tracing on must restore with tracing off (and vice versa);
* layering: no module under ``repro/obs`` imports ``repro.cluster``.
"""

from __future__ import annotations

import ast
import json
import math
import os
import threading
from pathlib import Path

import pytest

from repro.artifacts import ArtifactStore
from repro.config import FacilityConfig
from repro.core.levers import make_scheduler
from repro.cluster.resources import Cluster
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.errors import ConfigurationError, DataError
from repro.experiments import CampaignSpec, ExperimentSession, run_campaign
from repro.fleet import FleetSimulator, get_fleet
from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NULL_RECORDER,
    RunProfile,
    TraceRecorder,
    chrome_trace,
    get_recorder,
    load_trace,
    recording,
    set_recorder,
    summarize_trace,
    write_trace,
)
from repro.parallel import ParallelConfig
from repro.scheduler.job import Job
from repro.serve.checkpoint import CheckpointStore
from repro.serve.session import SessionManager


@pytest.fixture(autouse=True)
def _ambient_off():
    """Every test starts and ends with tracing disabled."""
    set_recorder(NULL_RECORDER)
    yield
    set_recorder(NULL_RECORDER)


# ---------------------------------------------------------------------------
# Layering
# ---------------------------------------------------------------------------


def _imported_modules(path: Path, package: str) -> set[str]:
    """Absolute names of the modules ``path`` (a module of ``package``) imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = ".".join(parts[: len(parts) - node.level + 1]) if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_obs_does_not_import_the_cluster_package():
    """``repro.obs`` sits below the simulator: none of its modules imports ``repro.cluster``."""
    import repro.obs

    offenders = {}
    for path in sorted(Path(repro.obs.__file__).parent.rglob("*.py")):
        hits = [
            name
            for name in _imported_modules(path, "repro.obs")
            if name == "repro.cluster" or name.startswith("repro.cluster.")
        ]
        if hits:
            offenders[path.name] = sorted(hits)
    assert offenders == {}


# ---------------------------------------------------------------------------
# Recorder
# ---------------------------------------------------------------------------


class TestRecorder:
    def test_nesting_links_parent_and_depth(self):
        rec = TraceRecorder()
        with rec.span("outer", kind="root"):
            with rec.span("inner"):
                pass
        inner, outer = rec.spans  # completion order: inner finishes first
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.parent_id == outer.span_id
        assert (outer.depth, inner.depth) == (0, 1)
        assert outer.parent_id is None
        assert outer.attributes == {"kind": "root"}
        assert inner.wall_s >= 0.0 and outer.wall_s >= inner.wall_s

    def test_set_chains_mid_span_attributes(self):
        rec = TraceRecorder()
        with rec.span("s") as span:
            span.set("a", 1).set("b", "two")
        assert rec.spans[0].attributes == {"a": 1, "b": "two"}

    def test_event_is_a_zero_ish_duration_span(self):
        rec = TraceRecorder()
        record = rec.event("tick", index=3)
        assert record.name == "tick"
        assert record.attributes == {"index": 3}
        assert record.wall_s < 0.1

    def test_mark_and_spans_since(self):
        rec = TraceRecorder()
        rec.event("before")
        mark = rec.mark()
        rec.event("after")
        assert [s.name for s in rec.spans_since(mark)] == ["after"]
        assert len(rec) == 2

    def test_cpu_time_opt_in(self):
        assert TraceRecorder().event("e").cpu_s is None
        assert TraceRecorder(cpu_time=True).event("e").cpu_s is not None

    def test_threads_keep_independent_stacks(self):
        rec = TraceRecorder()
        done = threading.Event()

        def worker():
            with rec.span("thread-span"):
                done.wait(timeout=5)

        thread = threading.Thread(target=worker)
        with rec.span("main-span"):
            thread.start()
            done.set()
            thread.join(timeout=5)
        by_name = {s.name: s for s in rec.spans}
        # The thread's span must NOT have picked up the main thread's open span.
        assert by_name["thread-span"].parent_id is None
        assert by_name["thread-span"].tid != by_name["main-span"].tid

    def test_extend_remaps_ids_and_preserves_in_batch_parents(self):
        source, target = TraceRecorder(), TraceRecorder()
        with source.span("parent"):
            with source.span("child"):
                pass
        target.event("existing")
        merged = target.extend(source.spans)
        child = next(s for s in merged if s.name == "child")
        parent = next(s for s in merged if s.name == "parent")
        assert child.parent_id == parent.span_id
        ids = [s.span_id for s in target.spans]
        assert len(ids) == len(set(ids)) == 3

    def test_null_recorder_records_nothing(self):
        span = NULL_RECORDER.span("anything", x=1)
        with span as inner:
            assert inner.set("k", "v") is inner
        assert inner.record is None
        assert NULL_RECORDER.span("again") is span  # one shared instance
        assert NULL_RECORDER.enabled is False
        assert len(NULL_RECORDER) == 0 and NULL_RECORDER.spans == []
        assert NULL_RECORDER.extend([]) == []

    def test_ambient_default_and_recording_context(self):
        assert get_recorder() is NULL_RECORDER
        rec = TraceRecorder()
        with recording(rec) as active:
            assert active is rec and get_recorder() is rec
        assert get_recorder() is NULL_RECORDER


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", help="jobs")
        counter.inc()
        counter.inc(2.0)
        assert counter.value == 3.0
        gauge = registry.gauge("depth")
        gauge.set(5.0)
        gauge.inc(-2.0)
        assert gauge.value == 3.0
        hist = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            hist.observe(v)
        assert hist.count == 3 and hist.total == pytest.approx(5.55)
        assert hist.mean == pytest.approx(5.55 / 3)
        assert (hist.min, hist.max) == (0.05, 5.0)

    def test_get_or_create_and_label_series(self):
        registry = MetricsRegistry()
        a = registry.counter("reqs", route="health")
        b = registry.counter("reqs", route="health")
        c = registry.counter("reqs", route="metrics")
        assert a is b and a is not c
        a.inc()
        snapshot = registry.snapshot()
        series = snapshot["reqs"]["series"]
        assert {tuple(sorted(s["labels"].items())) for s in series} == {
            (("route", "health"),),
            (("route", "metrics"),),
        }

    def test_kind_conflict_and_negative_inc_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")
        with pytest.raises(ConfigurationError):
            registry.counter("x").inc(-1.0)

    def test_prometheus_text_exposition(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", help="requests", route="a b").inc(2)
        registry.gauge("queue_depth").set(7)
        registry.histogram("wait_seconds", buckets=(1.0, 10.0)).observe(3.0)
        text = registry.to_prometheus()
        assert "# HELP reqs_total requests" in text
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{route="a b"} 2.0' in text
        assert "queue_depth 7.0" in text
        # Cumulative buckets: the +Inf bucket equals the count.
        assert 'wait_seconds_bucket{le="1.0"} 0' in text
        assert 'wait_seconds_bucket{le="10.0"} 1' in text
        assert 'wait_seconds_bucket{le="+Inf"} 1' in text
        assert "wait_seconds_count 1" in text
        assert text.endswith("\n")

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


# ---------------------------------------------------------------------------
# Exporters and the obs digest
# ---------------------------------------------------------------------------


def _sample_recorder() -> TraceRecorder:
    rec = TraceRecorder()
    with rec.span("run", mode="test"):
        with rec.span("step", index=0):
            pass
        with rec.span("step", index=1):
            pass
    rec.metrics.counter("things_total", help="things").inc(4)
    return rec


class TestExporters:
    def test_chrome_trace_structure(self):
        rec = _sample_recorder()
        document = chrome_trace(rec)
        events = document["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 3 and len(meta) == 1  # one (pid, tid) track
        assert min(e["ts"] for e in complete) == 0.0  # normalized to t0
        run = next(e for e in complete if e["name"] == "run")
        assert run["args"] == {"mode": "test"}
        assert document["otherData"]["metrics"]["things_total"]["kind"] == "counter"
        json.dumps(document)  # strict-JSON serializable

    def test_round_trip_both_formats(self, tmp_path):
        rec = _sample_recorder()
        for name, fmt in (("t.json", "chrome"), ("t.ndjson", "ndjson")):
            path = str(tmp_path / name)
            assert write_trace(rec, path) == fmt
            loaded = load_trace(path)
            assert loaded["format"] == fmt
            # Exporters write spans in start order, so the root comes first.
            assert [s["name"] for s in loaded["spans"]] == ["run", "step", "step"]
            assert loaded["metrics"]["things_total"]["series"][0]["value"] == 4.0

    def test_load_trace_rejects_empty_and_garbage(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_trace(str(empty))
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not a trace at {{{\n")
        with pytest.raises(DataError):
            load_trace(str(garbage))

    def test_load_trace_missing_file_is_a_data_error(self, tmp_path):
        # The CLI maps GreenHPCError to `greenhpc: error: ...` + exit 1; a
        # raw FileNotFoundError would escape as a traceback instead.
        with pytest.raises(DataError, match="cannot read"):
            load_trace(str(tmp_path / "nope.json"))

    def test_summarize_trace_digest(self, tmp_path):
        path = str(tmp_path / "t.json")
        write_trace(_sample_recorder(), path)
        summary = summarize_trace(load_trace(path), top=2)
        assert summary["n_spans"] == 3 and summary["n_tracks"] == 1
        phases = {p["name"]: p for p in summary["phases"]}
        assert phases["step"]["count"] == 2
        assert phases["run"]["share"] == pytest.approx(1.0)  # largest aggregate
        assert len(summary["top_spans"]) == 2
        with pytest.raises(ConfigurationError):
            summarize_trace(load_trace(path), top=0)


class TestRunProfile:
    def test_from_spans_and_lookup(self):
        rec = _sample_recorder()
        profile = RunProfile.from_spans(rec.spans, metrics=rec.metrics.snapshot())
        assert profile.n_spans == 3
        assert profile.phase("step")["count"] == 2
        assert profile.phase("missing") is None
        # Default total: the parent-less root span(s).
        run_span = next(s for s in rec.spans if s.name == "run")
        assert profile.total_s == pytest.approx(run_span.wall_s)
        payload = profile.to_dict()
        assert payload["n_spans"] == 3 and "phases" in payload
        json.dumps(payload)


# ---------------------------------------------------------------------------
# Instrumentation wiring: simulator, fleet, campaign, CLI
# ---------------------------------------------------------------------------

FACILITY = FacilityConfig(n_nodes=2, gpus_per_node=4)


def _jobs(n=6):
    return [
        Job(job_id=f"j{i}", user_id="u", n_gpus=1, duration_h=2.0, submit_time_h=float(i))
        for i in range(n)
    ]


def _simulator(**kwargs) -> ClusterSimulator:
    return ClusterSimulator(
        Cluster(FACILITY), make_scheduler("backfill"), SimulationConfig(horizon_h=24.0), **kwargs
    )


class TestSimulatorInstrumentation:
    def test_traced_run_records_spans_and_metrics(self):
        rec = TraceRecorder()
        with recording(rec):
            simulator = _simulator()
            simulator.begin(_jobs())
            simulator.advance(12.0)
            result = simulator.finalize()
        names = {s.name for s in rec.spans}
        assert {"sim.begin", "sim.advance", "sim.finalize"} <= names
        snapshot = rec.metrics.snapshot()
        assert snapshot["sim_jobs_finished_total"]["series"][0]["value"] == 6.0
        assert snapshot["sim_ticks_total"]["series"][0]["value"] > 0
        assert result.completed_jobs == 6

    def test_metrics_are_current_after_every_step(self):
        # Job i (1 GPU, 2 h) arrives at t=i and starts at once, so by t the
        # run has started the jobs with i < t and finished those with i+2 < t.
        rec = TraceRecorder()
        with recording(rec):
            simulator = _simulator()
            simulator.begin(_jobs())
            for until_h, started, finished in ((0.5, 1, 0), (3.0, 3, 1), (7.5, 6, 6)):
                simulator.advance(until_h)
                values = {
                    name: family["series"][0]
                    for name, family in rec.metrics.snapshot().items()
                }
                assert values["sim_jobs_started_total"]["value"] == started
                assert values["sim_jobs_finished_total"]["value"] == finished
                assert values["sim_scheduling_rounds_total"]["value"] == started
                rounds = values["sim_round_decisions"]
                assert (rounds["count"], rounds["sum"]) == (started, started)
                assert (rounds["min"], rounds["max"]) == (1.0, 1.0)
                assert values["sim_queue_depth"]["value"] == 0.0
                # Hourly ticks at t = 0, 1, ... strictly before the bound.
                assert values["sim_ticks_total"]["value"] == math.ceil(until_h)

    def test_traced_results_match_untraced(self):
        untraced = _simulator().run(_jobs())
        with recording(TraceRecorder()):
            traced = _simulator().run(_jobs())
        assert traced.job_records == untraced.job_records
        assert traced.it_energy_kwh == untraced.it_energy_kwh

    def test_snapshot_portable_across_tracing_modes(self, tmp_path):
        def session(manager):
            return manager.create_session(
                {"session_id": "a", "scenario": "supercloud-small", "horizon_h": 24,
                 "preload_jobs": 30}
            )

        def checkpointed(directory):
            store = CheckpointStore(directory)
            live = session(SessionManager())
            live.advance_to(6.0)
            live.checkpoint(store)
            return store

        def restored(store):
            manager = SessionManager()
            assert manager.restore_all(store) == ["a"]
            return manager.get("a")

        reference = session(SessionManager())
        reference.finalize()
        # Checkpoint with tracing ON (a transient MetricsObserver attached)...
        with recording(TraceRecorder()):
            traced_store = checkpointed(tmp_path / "traced")
        # ...must restore with tracing OFF (no MetricsObserver), and vice versa.
        plain = restored(traced_store)
        plain.finalize()
        assert plain.result.job_records == reference.result.job_records
        plain_store = checkpointed(tmp_path / "plain")
        with recording(TraceRecorder()):
            traced = restored(plain_store)
            traced.finalize()
        assert traced.result.job_records == reference.result.job_records


class TestFleetInstrumentation:
    HORIZON_H = 48.0

    def _duo(self):
        fleet = get_fleet("duo-climate-small").with_member_overrides(n_months=2, seed=7)
        session = ExperimentSession(fleet.members[0])
        trace = session.job_trace(
            n_jobs=40, horizon_h=self.HORIZON_H, spec=fleet.members[0]
        )
        for member in fleet.members:
            session.scenario(member)
        return fleet, session, trace

    def _run(self, fleet, session, trace, *, workers=None):
        parallel = None if workers is None else ParallelConfig(n_workers=workers)
        return FleetSimulator(
            fleet,
            policy="backfill",
            horizon_h=self.HORIZON_H,
            parallel=parallel,
            session=session,
        ).run(trace)

    def test_traced_parallel_duo_exports_per_site_chrome_spans(self, tmp_path):
        """Acceptance gate: 2-site parallel run -> per-site spans on worker tracks."""
        fleet, session, trace = self._duo()
        rec = TraceRecorder()
        with recording(rec):
            result = self._run(fleet, session, trace, workers=2)
        assert result.step_timings.mode == "parallel"
        path = str(tmp_path / "fleet-trace.json")
        write_trace(rec, path)
        loaded = load_trace(path)
        assert loaded["format"] == "chrome"
        site_spans = [s for s in loaded["spans"] if s["name"] == "fleet.site_advance"]
        assert {s["attributes"]["site"] for s in site_spans} == {
            member.name for member in fleet.members
        }
        # Worker spans live on non-coordinator timelines in the merged trace.
        assert os.getpid() not in {s["pid"] for s in site_spans}
        assert {s["name"] for s in loaded["spans"]} >= {
            "fleet.run",
            "fleet.route",
            "fleet.advance",
            "fleet.site_advance",
        }

    @pytest.mark.parametrize("workers", [None, 2])
    def test_untraced_run_carries_timings_without_spans(self, workers):
        fleet, session, trace = self._duo()
        result = self._run(fleet, session, trace, workers=workers)
        timings = result.step_timings
        assert timings.mode == ("serial" if workers is None else "parallel")
        assert timings.total_s > 0.0
        assert timings.route_s > 0.0 and timings.advance_s > 0.0
        assert len(timings.site_advance_s) == 2
        assert all(site_s > 0.0 for site_s in timings.site_advance_s)
        # Untraced runs build no spans, so (as for experiments and
        # campaigns) they carry no profile.
        assert result.profile is None and "profile" not in result.to_dict()
        assert get_recorder() is NULL_RECORDER

    def test_traced_serial_run_profiles_every_fleet_phase(self):
        fleet, session, trace = self._duo()
        rec = TraceRecorder()
        with recording(rec):
            result = self._run(fleet, session, trace)
        assert result.profile is not None
        n_windows = result.step_timings.n_windows
        assert result.profile.phase("fleet.run")["count"] == 1
        assert result.profile.phase("fleet.advance")["count"] == n_windows
        assert result.profile.phase("fleet.site_advance")["count"] == 2 * n_windows
        assert result.profile.phase("fleet.route")["count"] > 0

    def test_traced_serial_matches_untraced_bit_for_bit(self):
        fleet, session, trace = self._duo()
        untraced = self._run(fleet, session, trace)
        with recording(TraceRecorder()):
            traced = self._run(fleet, session, trace)
        assert traced.assignments == untraced.assignments
        for mine, theirs in zip(traced.site_results, untraced.site_results):
            assert mine.job_records == theirs.job_records


class TestCampaignInstrumentation:
    CAMPAIGN = dict(
        experiments=("table1",), scenario_grid={"seed": [0, 1], "n_months": [3]}
    )

    def test_warm_store_trace_shows_hits_and_no_simulate_span(self, tmp_path):
        """Acceptance gate: cached points leave hit markers, never a simulate span."""
        campaign = CampaignSpec(**self.CAMPAIGN)
        store = ArtifactStore(tmp_path / "cache")
        cold = run_campaign(campaign, store=store)
        assert cold.cache_misses == 2
        rec = TraceRecorder()
        with recording(rec):
            warm = run_campaign(campaign, store=store)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        names = [s.name for s in rec.spans]
        assert "campaign.simulate" not in names
        points = [s for s in rec.spans if s.name == "campaign.point"]
        assert len(points) == 2
        assert all(s.attributes["cache"] == "hit" for s in points)
        run_span = next(s for s in rec.spans if s.name == "campaign.run")
        assert run_span.attributes["cache_hits"] == 2
        assert warm.profile is not None and "profile" in warm.to_dict()

    def test_cold_traced_run_spans_and_cache_neutrality(self, tmp_path):
        campaign = CampaignSpec(**self.CAMPAIGN)
        store = ArtifactStore(tmp_path / "cache")
        rec = TraceRecorder()
        with recording(rec):
            cold = run_campaign(campaign, store=store)
        names = [s.name for s in rec.spans]
        assert "campaign.simulate" in names
        misses = [
            s
            for s in rec.spans
            if s.name == "campaign.point" and s.attributes["cache"] == "miss"
        ]
        assert len(misses) == 2
        # (table1 is analytic — no simulator spans; sim.* coverage lives in
        # TestSimulatorInstrumentation.)
        assert {"campaign.evaluate", "experiment.run"} <= set(names)
        # Cached artifacts must be identical to untraced ones: a traced cold
        # store warms an untraced rerun completely.
        follow_up = run_campaign(campaign, store=store)
        assert follow_up.cache_hits == 2
        assert follow_up.rows == cold.rows
        assert follow_up.profile is None and "profile" not in follow_up.to_dict()

    def test_uncached_traced_run_simulates_without_point_markers(self):
        campaign = CampaignSpec(**self.CAMPAIGN)
        rec = TraceRecorder()
        with recording(rec):
            result = run_campaign(campaign)
        names = [s.name for s in rec.spans]
        assert "campaign.simulate" in names
        assert "campaign.point" not in names
        run_span = next(s for s in rec.spans if s.name == "campaign.run")
        assert run_span.attributes["cached"] is False
        assert "cache_hits" not in run_span.attributes
        assert result.cache_hits is None and result.cache_misses is None
        assert result.profile is not None


class TestCliTracing:
    def test_trace_out_and_obs_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = str(tmp_path / "run.json")
        assert main(["table1", "--months", "3", "--trace-out", trace_path]) == 0
        err = capsys.readouterr().err
        assert "wrote chrome trace" in err and trace_path in err
        assert get_recorder() is NULL_RECORDER  # recorder uninstalled on exit
        assert main(["obs", trace_path]) == 0
        out = capsys.readouterr().out
        assert "experiment.run" in out and "Per-phase totals" in out
        assert main(["obs", trace_path, "--json", "--top", "3"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["format"] == "chrome"
        assert len(summary["top_spans"]) <= 3
        assert summary["phases"]

    def test_obs_on_missing_and_bad_files_is_a_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert main(["obs", str(empty)]) == 1
        assert "greenhpc: error:" in capsys.readouterr().err

    def test_ndjson_suffix_selects_ndjson(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = str(tmp_path / "run.ndjson")
        assert main(["table1", "--months", "3", "--trace-out", trace_path]) == 0
        capsys.readouterr()
        rows = [json.loads(line) for line in open(trace_path)]
        assert rows[0]["type"] == "meta"
        assert any(row["type"] == "span" for row in rows)
