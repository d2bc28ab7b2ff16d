"""Tests for :mod:`repro.artifacts` and the campaign DAG layer."""

import json

import pytest

from repro.artifacts import (
    ArtifactStore,
    code_version,
    derived_key,
    run_key,
    stable_hash,
)
from repro.artifacts.keys import CODE_VERSION_ENV
from repro.errors import ArtifactError, CheckpointError
from repro.experiments import CampaignSpec, ScenarioSpec
from repro.experiments.dag import CampaignDAG, compare_payload, summarize_payload
from repro.experiments.report import render_html, render_markdown, svg_bar_chart
from repro.serve.checkpoint import CheckpointStore

#: A cheap campaign: short horizon, cheap experiments, 2 worlds x 2 experiments.
CHEAP = dict(
    experiments=("table1", "powercap"),
    base=ScenarioSpec(name="dag-unit", n_months=3),
    scenario_grid={"seed": [0, 1]},
)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------


class TestKeys:
    def test_stable_hash_deterministic_and_order_insensitive(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})
        assert stable_hash([1, 2]) != stable_hash([2, 1])

    def test_stable_hash_normalizes_like_the_stored_json(self):
        import numpy as np

        assert stable_hash({"x": np.float64(1.5)}) == stable_hash({"x": 1.5})
        assert stable_hash({"x": float("nan")}) == stable_hash({"x": None})

    def test_code_version_single_sourced_with_package_version(self):
        import repro

        assert code_version() == repro.__version__

    def test_code_version_env_override(self, monkeypatch):
        monkeypatch.setenv(CODE_VERSION_ENV, "9.9.9-test")
        assert code_version() == "9.9.9-test"

    def test_run_key_covers_every_identity_component(self, monkeypatch):
        points = CampaignSpec(**CHEAP).expand()
        monkeypatch.setenv(CODE_VERSION_ENV, "v1")
        baseline = run_key(points[0])
        assert run_key(points[0]) == baseline      # stable
        assert run_key(points[1]) != baseline      # other spec
        assert run_key(points[2]) != baseline      # other experiment
        monkeypatch.setenv(CODE_VERSION_ENV, "v2")
        assert run_key(points[0]) != baseline      # other code version

    def test_run_key_identical_across_equal_campaigns(self):
        a = CampaignSpec(**CHEAP).expand()
        b = CampaignSpec(**CHEAP).expand()
        assert [run_key(p) for p in a] == [run_key(p) for p in b]

    def test_derived_key_cascades_from_upstream(self, monkeypatch):
        monkeypatch.setenv(CODE_VERSION_ENV, "v")
        assert derived_key("summarize", ["k1", "k2"]) != derived_key("summarize", ["k1", "k3"])
        assert derived_key("summarize", ["k1"]) != derived_key("compare", ["k1"])


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


class TestArtifactStore:
    KEY = "ab" * 16

    def test_get_put_round_trip(self, store):
        assert store.get(self.KEY) is None
        store.put(self.KEY, {"rows": [1, 2]})
        assert store.get(self.KEY) == {"rows": [1, 2]}
        assert self.KEY in store
        assert list(store.keys()) == [self.KEY]

    def test_put_overwrites(self, store):
        store.put(self.KEY, {"v": 1})
        store.put(self.KEY, {"v": 2})
        assert store.get(self.KEY) == {"v": 2}
        assert store.stats().n_artifacts == 1

    def test_malformed_key_raises(self, store):
        with pytest.raises(ArtifactError, match="malformed"):
            store.put("../escape", {})
        with pytest.raises(ArtifactError):
            store.get("ZZ" * 16)

    def test_unserializable_payload_raises(self, store):
        with pytest.raises(ArtifactError, match="JSON-serializable"):
            store.put(self.KEY, {"bad": object()})

    def test_corrupt_file_reads_as_miss(self, store):
        store.put(self.KEY, {"v": 1})
        store.path_for(self.KEY).write_text("{truncated")
        assert store.get(self.KEY) is None
        assert store.corrupt_reads == 1

    def test_key_mismatched_envelope_reads_as_miss(self, store):
        other = "cd" * 16
        store.put(other, {"v": 1})
        # A file copied to the wrong address must not serve a foreign payload.
        store.path_for(self.KEY).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(self.KEY).write_text(store.path_for(other).read_text())
        assert store.get(self.KEY) is None

    def test_gc_keeps_only_live_keys(self, store):
        live, stale = "ab" * 16, "cd" * 16
        store.put(live, {"v": 1})
        store.put(stale, {"v": 2})
        assert store.gc([live]) == 1
        assert store.get(live) == {"v": 1}
        assert stale not in store

    def test_stats_counts_population_and_traffic(self, store):
        store.put(self.KEY, {"v": 1})
        store.get(self.KEY)
        store.get("ef" * 16)
        stats = store.stats()
        assert stats.n_artifacts == 1
        assert stats.total_bytes > 0
        assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)
        assert json.dumps(stats.to_dict())  # strict-JSON-able


class TestAtomicWrites:
    """Both stores write through the shared helper: typed error, no temp file."""

    @pytest.fixture
    def failing_replace(self, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.artifacts.store.os.replace", refuse)

    def test_artifact_put_failure_is_typed_and_leaves_nothing(self, store, failing_replace):
        key = "ab" * 16
        with pytest.raises(ArtifactError, match="disk full"):
            store.put(key, {"v": 1})
        assert key not in store
        assert list(store.root.rglob("*.tmp")) == []

    def test_checkpoint_save_failure_is_typed_and_leaves_nothing(self, tmp_path, failing_replace):
        checkpoints = CheckpointStore(tmp_path / "ckpt")
        with pytest.raises(CheckpointError, match="disk full"):
            checkpoints.save("s1", {"format": 1})
        assert list(checkpoints.root.iterdir()) == []


# ---------------------------------------------------------------------------
# Campaign DAG
# ---------------------------------------------------------------------------


class TestCampaignDAG:
    def test_nodes_in_dependency_order(self, store):
        dag = CampaignDAG(CampaignSpec(**CHEAP), store)
        stages = [node.stage for node in dag.nodes()]
        assert stages == ["run"] * 4 + ["summarize", "compare", "report"]
        assert dag.nodes()[4].upstream == dag.run_keys
        assert dag.nodes()[5].upstream == (dag.summarize_key,)
        assert dag.nodes()[6].upstream == (dag.compare_key,)

    def test_materialize_then_rematerialize_all_cached(self, store):
        dag = CampaignDAG(CampaignSpec(**CHEAP), store)
        first = dag.materialize()
        assert first.stage_status["run"] == "0 cached, 4 simulated"
        assert first.stage_status["summarize"] == "computed"
        second = dag.materialize()
        assert second.stage_status["run"] == "4 cached, 0 simulated"
        assert second.stage_status["summarize"] == "cached"
        assert second.stage_status["compare"] == "cached"
        assert second.stage_status["report"] == "cached"
        assert second.report_markdown == first.report_markdown
        assert second.report_html == first.report_html

    def test_simulate_false_on_cold_store_raises(self, store):
        dag = CampaignDAG(CampaignSpec(**CHEAP), store)
        with pytest.raises(ArtifactError, match="missing from"):
            dag.materialize(simulate=False)

    def test_simulate_false_on_warm_store_renders(self, store):
        dag = CampaignDAG(CampaignSpec(**CHEAP), store)
        dag.materialize()
        outcome = dag.materialize(simulate=False)
        assert outcome.result.cache_misses == 0
        assert "# Campaign report" in outcome.report_markdown
        assert "<svg" in outcome.report_html

    def test_simulate_false_reads_each_artifact_once(self, store, monkeypatch):
        dag = CampaignDAG(CampaignSpec(**CHEAP), store)
        dag.materialize()
        reads = []
        get = ArtifactStore.get

        def counted(self, key):
            reads.append(key)
            return get(self, key)

        monkeypatch.setattr(ArtifactStore, "get", counted)
        dag.materialize(simulate=False)
        keys = [*dag.run_keys, dag.summarize_key, dag.compare_key, dag.report_key]
        assert sorted(reads) == sorted(keys)
        assert len(reads) == 7

    def test_simulate_false_refuses_an_unreadable_run_artifact(self, store):
        dag = CampaignDAG(CampaignSpec(**CHEAP), store)
        dag.materialize()
        store.path_for(dag.run_keys[2]).write_text("{truncated")
        with pytest.raises(ArtifactError, match=r"1 of 4 .* indices \[2\]"):
            dag.materialize(simulate=False)
        assert store.get(dag.run_keys[2]) is None  # nothing was re-simulated

    def test_editing_one_grid_value_invalidates_only_that_subgraph(self, store):
        dag = CampaignDAG(CampaignSpec(**CHEAP), store)
        dag.materialize()
        edited = CampaignDAG(
            CampaignSpec(**{**CHEAP, "scenario_grid": {"seed": [0, 7]}}), store
        )
        # Shared seed-0 run keys survive; seed-1 keys and all derived keys change.
        assert edited.run_keys[0] == dag.run_keys[0]
        assert edited.run_keys[1] != dag.run_keys[1]
        assert edited.summarize_key != dag.summarize_key
        assert edited.compare_key != dag.compare_key
        assert edited.report_key != dag.report_key
        outcome = edited.materialize()
        assert outcome.stage_status["run"] == "2 cached, 2 simulated"
        assert outcome.stage_status["summarize"] == "computed"

    def test_code_version_invalidates_everything(self, store, monkeypatch):
        spec = CampaignSpec(**CHEAP)
        monkeypatch.setenv(CODE_VERSION_ENV, "v1")
        CampaignDAG(spec, store).materialize()
        monkeypatch.setenv(CODE_VERSION_ENV, "v2")
        outcome = CampaignDAG(spec, store).materialize()
        assert outcome.stage_status["run"] == "0 cached, 4 simulated"

    def test_gc_drops_superseded_artifacts(self, store, monkeypatch):
        spec = CampaignSpec(**CHEAP)
        monkeypatch.setenv(CODE_VERSION_ENV, "v1")
        CampaignDAG(spec, store).materialize()
        monkeypatch.setenv(CODE_VERSION_ENV, "v2")
        dag = CampaignDAG(spec, store)
        dag.materialize()
        assert store.stats().n_artifacts == 14  # both generations
        assert dag.gc() == 7
        assert sorted(store.keys()) == sorted(dag.keys())

    def test_status_by_stage(self, store):
        dag = CampaignDAG(CampaignSpec(**CHEAP), store)
        assert dag.status()["run"] == {"cached": 0, "total": 4}
        dag.materialize()
        assert dag.status() == {
            "run": {"cached": 4, "total": 4},
            "summarize": {"cached": 1, "total": 1},
            "compare": {"cached": 1, "total": 1},
            "report": {"cached": 1, "total": 1},
        }

    def test_force_recomputes_every_stage(self, store):
        dag = CampaignDAG(CampaignSpec(**CHEAP), store)
        dag.materialize()
        outcome = dag.materialize(force=True)
        assert outcome.stage_status["run"] == "0 cached, 4 simulated"
        assert outcome.stage_status["report"] == "computed"

    def test_payloads_are_strict_json_and_chained(self, store):
        dag = CampaignDAG(CampaignSpec(**CHEAP), store)
        outcome = dag.materialize()
        summary = summarize_payload(outcome.result)
        assert json.dumps(summary, allow_nan=False)
        comparison = compare_payload(summary)
        assert json.dumps(comparison, allow_nan=False)
        assert comparison["dimensions"] == ["experiment", "seed"]
        assert comparison["metrics"]  # at least one aggregated metric
        for metric, table in comparison["tables"]["seed"].items():
            assert metric in comparison["metrics"]
            for entry in table:
                assert set(entry) == {"experiment", "label", "mean", "min", "max", "n_points"}


# ---------------------------------------------------------------------------
# Reporting battery
# ---------------------------------------------------------------------------


class TestReportRendering:
    COMPARISON = {
        "experiments": ["fleet"],
        "dimensions": ["experiment", "router"],
        "metrics": ["carbon_kg"],
        "n_points": 2,
        "tables": {
            "experiment": {
                "carbon_kg": [
                    {"experiment": "fleet", "label": "fleet", "mean": 3.0,
                     "min": 1.0, "max": 5.0, "n_points": 2}
                ]
            },
            "router": {
                "carbon_kg": [
                    {"experiment": "fleet", "label": "carbon-min", "mean": 1.0,
                     "min": 1.0, "max": 1.0, "n_points": 1},
                    {"experiment": "fleet", "label": "round|robin\nx", "mean": -5.0,
                     "min": -5.0, "max": -5.0, "n_points": 1},
                ]
            },
        },
    }

    def test_markdown_has_metric_sections_and_escapes_cells(self):
        text = render_markdown(self.COMPARISON, title="demo")
        assert "# Campaign report — demo" in text
        assert "## carbon_kg" in text
        assert "### by router" in text
        # Pipes/newlines inside a label must not break the table row.
        assert "round\\|robin x" in text
        assert len([l for l in text.splitlines() if l.startswith("|")]) >= 5

    def test_html_is_self_contained_with_svg_charts(self):
        html_text = render_html(self.COMPARISON, title="demo")
        assert html_text.startswith("<!doctype html>")
        assert html_text.count("<svg") == 2  # one chart per (metric, dimension)
        assert "<script" not in html_text
        assert "carbon-min" in html_text

    def test_svg_bar_chart_handles_negatives_and_gaps(self):
        svg = svg_bar_chart("m", ["a", "b", "c"], {"x": [1.0, None, -2.0]})
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<rect") == 3  # legend swatch + two bars (gap skipped)

    def test_svg_escapes_labels(self):
        svg = svg_bar_chart("a<b", ["<cat>"], {"<s>": [1.0]})
        assert "<cat>" not in svg.replace("&lt;cat&gt;", "")
        assert "a&lt;b" in svg


# ---------------------------------------------------------------------------
# CLI: cached sweeps and greenhpc report
# ---------------------------------------------------------------------------


SWEEP = ["--experiments", "table1", "--months", "3", "--grid", "seed=0,1"]


class TestCachedCLI:
    def test_sweep_cache_dir_then_rerun_simulates_nothing(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        assert main(["sweep", *SWEEP, "--cache-dir", cache, "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert (cold["cache_hits"], cold["cache_misses"]) == (0, 2)
        assert main(["sweep", *SWEEP, "--cache-dir", cache, "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert (warm["cache_hits"], warm["cache_misses"]) == (2, 0)
        assert warm["rows"] == cold["rows"]

    def test_sweep_cache_dir_env_fallback_and_no_cache(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("GREENHPC_CACHE_DIR", str(tmp_path / "envcache"))
        assert main(["sweep", *SWEEP, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["cache_misses"] == 2
        assert main(["sweep", *SWEEP, "--no-cache", "--json"]) == 0
        assert "cache_misses" not in json.loads(capsys.readouterr().out)

    def test_no_cache_conflicts_with_cache_dir(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["sweep", *SWEEP, "--cache-dir", str(tmp_path), "--no-cache"]) == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_report_requires_store(self, capsys):
        from repro.cli import main

        assert main(["report", *SWEEP]) == 1
        assert "--cache-dir" in capsys.readouterr().err

    def test_report_on_cold_store_refuses_to_simulate(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", *SWEEP, "--cache-dir", str(tmp_path / "cache")]) == 1
        assert "missing from" in capsys.readouterr().err

    def test_report_renders_from_warm_store_and_writes_files(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        out = tmp_path / "report"
        assert main(["sweep", *SWEEP, "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["report", *SWEEP, "--cache-dir", cache, "--out", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache_misses"] == 0
        assert payload["stage_status"]["run"] == "2 cached, 0 simulated"
        assert (out / "report.md").read_text().startswith("# Campaign report")
        assert "<svg" in (out / "report.html").read_text()

    def test_report_simulate_flag_fills_the_store(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        assert main(["report", *SWEEP, "--cache-dir", cache, "--simulate"]) == 0
        assert "# Campaign report" in capsys.readouterr().out
        # The simulated points are now cached for the next sweep/report.
        assert main(["sweep", *SWEEP, "--cache-dir", cache, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["cache_misses"] == 0
