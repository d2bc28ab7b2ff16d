"""Tests for :mod:`repro.artifacts`, cached campaigns and campaign reports."""

import json

import pytest

from repro.artifacts import (
    ArtifactStore,
    code_version,
    run_key,
    stable_hash,
)
from repro.artifacts.keys import CODE_VERSION_ENV
from repro.errors import ArtifactError, CheckpointError
from repro.experiments import CampaignSpec, ScenarioSpec, campaign_report, run_campaign
from repro.experiments.campaign import CampaignResult, result_from_payload, result_to_payload
from repro.experiments.report import compare_payload, render_html, render_markdown, svg_bar_chart
from repro.experiments.result import ExperimentResult
from repro.parallel.pool import ParallelConfig
from repro.serve.checkpoint import CheckpointStore

#: A cheap campaign: short horizon, cheap experiments, 2 worlds x 2 experiments.
CHEAP = dict(
    experiments=("table1", "powercap"),
    base=ScenarioSpec(name="report-unit", n_months=3),
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

    def test_run_keys_are_pinned(self, monkeypatch):
        # A change to what a spec serializes re-keys every stored artifact;
        # the pins make such a change a deliberate, visible edit.
        monkeypatch.setenv(CODE_VERSION_ENV, "pinned")
        assert [run_key(p) for p in CampaignSpec(**CHEAP).expand()] == [
            "a6d3aab6192ec8880ef394722f8421b9",
            "85554d4b3f1e000e860940341d54518f",
            "47d46793f635d79e274c9fae24fa4aa7",
            "1de5d00de3a720d12e7a8a28316ebf01",
        ]


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
# Cached campaigns: flag errors and non-finite values
# ---------------------------------------------------------------------------


class TestRunCampaignFlags:
    def test_simulate_false_needs_a_store(self):
        with pytest.raises(ArtifactError, match="needs an artifact store"):
            run_campaign(CampaignSpec(**CHEAP), simulate=False)

    def test_simulate_false_refuses_force_on_a_warm_store(self, store):
        campaign = CampaignSpec(**{**CHEAP, "experiments": ("table1",)})
        run_campaign(campaign, store=store)
        with pytest.raises(ArtifactError, match="cannot force-recompute"):
            run_campaign(campaign, store=store, force=True, simulate=False)


class TestSummarizeNonFinite:
    @pytest.mark.parametrize(
        "scalars",
        [(float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0), (1.0, float("-inf"))],
        ids=["nan-first", "nan-last", "inf-first", "neg-inf-last"],
    )
    def test_uncached_and_stored_summaries_agree(self, scalars):
        campaign = CampaignSpec(**{**CHEAP, "experiments": ("table1",)})
        points = campaign.expand()
        results = [
            ExperimentResult(name="table1", spec=point.spec, scalars={"x": value})
            for point, value in zip(points, scalars)
        ]
        stored = [
            result_from_payload(point, result_to_payload(result))
            for point, result in zip(points, results)
        ]
        uncached = CampaignResult(campaign, tuple(points), tuple(results)).summarize("experiment")
        cached = CampaignResult(campaign, tuple(points), tuple(stored)).summarize("experiment")
        assert uncached == cached
        assert (cached[0]["x_mean"], cached[0]["x_min"], cached[0]["x_max"]) == (1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Campaign reports
# ---------------------------------------------------------------------------


def _run_keys(campaign: CampaignSpec) -> list[str]:
    return [run_key(point) for point in campaign.expand()]


def _files(store: ArtifactStore) -> set:
    return {path for path in store.root.rglob("*") if path.is_file()}


class TestCampaignReport:
    def test_simulate_false_on_cold_store_raises(self, store):
        with pytest.raises(ArtifactError, match="missing from"):
            campaign_report(CampaignSpec(**CHEAP), store, simulate=False)

    def test_cold_report_stores_only_run_artifacts(self, store):
        campaign = CampaignSpec(**CHEAP)
        report = campaign_report(campaign, store)
        assert (report.result.cache_hits, report.result.cache_misses) == (0, 4)
        assert sorted(store.keys()) == sorted(_run_keys(campaign))
        assert "# Campaign report" in report.markdown
        assert "<svg" in report.html

    def test_warm_report_reads_each_run_artifact_once_and_writes_nothing(
        self, store, monkeypatch
    ):
        campaign = CampaignSpec(**CHEAP)
        cold = campaign_report(campaign, store)
        files = _files(store)
        reads, writes = [], []
        get = ArtifactStore.get

        def counted(self, key):
            reads.append(key)
            return get(self, key)

        monkeypatch.setattr(ArtifactStore, "get", counted)
        monkeypatch.setattr(ArtifactStore, "put", lambda self, key, payload: writes.append(key))
        warm = campaign_report(campaign, store, simulate=False)
        assert sorted(reads) == sorted(_run_keys(campaign))
        assert writes == []
        assert _files(store) == files
        assert (warm.result.cache_hits, warm.result.cache_misses) == (4, 0)
        assert warm.markdown == cold.markdown
        assert warm.html == cold.html

    def test_simulate_false_refuses_an_unreadable_run_artifact(self, store):
        campaign = CampaignSpec(**CHEAP)
        campaign_report(campaign, store)
        keys = _run_keys(campaign)
        store.path_for(keys[2]).write_text("{truncated")
        with pytest.raises(ArtifactError, match=r"1 of 4 .* indices \[2\]"):
            campaign_report(campaign, store, simulate=False)
        assert store.get(keys[2]) is None  # nothing was re-simulated

    def test_editing_one_grid_value_simulates_only_the_new_points(self, store):
        campaign = CampaignSpec(**CHEAP)
        campaign_report(campaign, store)
        edited = CampaignSpec(**{**CHEAP, "scenario_grid": {"seed": [0, 7]}})
        # Shared seed-0 run keys survive; seed-1 keys change.
        assert _run_keys(edited)[0] == _run_keys(campaign)[0]
        assert _run_keys(edited)[1] != _run_keys(campaign)[1]
        report = campaign_report(edited, store)
        assert (report.result.cache_hits, report.result.cache_misses) == (2, 2)

    def test_code_version_rekeys_every_point(self, store, monkeypatch):
        campaign = CampaignSpec(**CHEAP)
        monkeypatch.setenv(CODE_VERSION_ENV, "v1")
        campaign_report(campaign, store)
        monkeypatch.setenv(CODE_VERSION_ENV, "v2")
        report = campaign_report(campaign, store)
        assert (report.result.cache_hits, report.result.cache_misses) == (0, 4)

    def test_force_recomputes_every_point(self, store):
        campaign = CampaignSpec(**CHEAP)
        campaign_report(campaign, store)
        report = campaign_report(campaign, store, force=True)
        assert (report.result.cache_hits, report.result.cache_misses) == (0, 4)

    def test_parallel_report_renders_the_serial_bytes(self, store, tmp_path):
        campaign = CampaignSpec(**CHEAP)
        serial = campaign_report(campaign, store)
        parallel = campaign_report(
            campaign,
            ArtifactStore(tmp_path / "parallel-cache"),
            parallel=ParallelConfig(n_workers=2),
        )
        assert (parallel.result.cache_hits, parallel.result.cache_misses) == (0, 4)
        assert parallel.markdown == serial.markdown
        assert parallel.html == serial.html

    def test_package_exports_the_report_function_only(self):
        import repro
        import repro.artifacts
        import repro.experiments

        assert repro.campaign_report is repro.experiments.campaign_report is campaign_report
        for module in (repro, repro.experiments, repro.artifacts):
            for name in ("CampaignDAG", "DagNode", "DagOutcome", "derived_key"):
                assert not hasattr(module, name), (module.__name__, name)
        assert not hasattr(ArtifactStore, "gc")

    def test_comparison_is_strict_json(self, store):
        report = campaign_report(CampaignSpec(**CHEAP), store)
        comparison = compare_payload(report.result)
        assert comparison == report.comparison
        assert json.dumps(comparison, allow_nan=False)
        assert json.dumps(report.to_dict(), allow_nan=False)
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

    def test_every_non_empty_grid_is_rendered_experiment_grid_first(self):
        comparison = {
            **self.COMPARISON,
            "dimensions": ["experiment", "router", "site"],
            "tables": {**self.COMPARISON["tables"], "site": {"carbon_kg": []}},
        }
        text = render_markdown(comparison, title="demo")
        headings = [l for l in text.splitlines() if l.startswith("### by ")]
        assert headings == ["### by experiment", "### by router"]  # empty site grid skipped

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
        assert payload["cache_hits"] == 2
        assert (out / "report.md").read_text().startswith("# Campaign report")
        assert "<svg" in (out / "report.html").read_text()

    def test_report_rerun_writes_nothing_and_renders_the_same_bytes(self, tmp_path, capsys):
        from repro.cli import main

        cache = tmp_path / "cache"
        assert main(["sweep", *SWEEP, "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        files = {path for path in cache.rglob("*") if path.is_file()}
        texts = []
        for run in ("a", "b"):
            out = tmp_path / run
            argv = ["report", *SWEEP, "--cache-dir", str(cache), "--out", str(out), "--json"]
            assert main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            assert set(payload) == {
                "n_points", "cache_hits", "cache_misses", "metrics", "dimensions", "written"
            }
            assert payload["cache_misses"] == 0
            texts.append([(out / name).read_bytes() for name in ("report.md", "report.html")])
        assert {path for path in cache.rglob("*") if path.is_file()} == files
        assert texts[0] == texts[1]

    def test_report_simulate_flag_fills_the_store(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        assert main(["report", *SWEEP, "--cache-dir", cache, "--simulate"]) == 0
        assert "# Campaign report" in capsys.readouterr().out
        # The simulated points are now cached for the next sweep/report.
        assert main(["sweep", *SWEEP, "--cache-dir", cache, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["cache_misses"] == 0
