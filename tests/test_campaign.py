"""Tests for the campaign API (:mod:`repro.experiments.campaign`)."""

import csv
import io
import json

import pytest

from repro.artifacts import ArtifactStore, run_key
from repro.artifacts.keys import CODE_VERSION_ENV
from repro.errors import ConfigurationError, DataError
from repro.experiments import (
    CampaignResult,
    CampaignSpec,
    ExperimentResult,
    ScenarioSpec,
    get_site,
    run_campaign,
)
from repro.experiments.campaign import clear_worker_sessions
from repro.parallel import ParallelConfig

#: A cheap campaign: neither experiment builds simulation substrates.
CHEAP = dict(experiments=("table1", "powercap"), scenario_grid={"seed": [0, 1], "n_months": [3, 4]})

#: Forces the real process pool even for small campaigns.
TWO_WORKERS = ParallelConfig(n_workers=2, min_tasks_for_processes=2)


class TestCampaignSpec:
    def test_base_accepts_registered_scenario_name(self):
        campaign = CampaignSpec(experiments=("table1",), base="single-year")
        assert campaign.base.n_months == 12

    def test_requires_experiments(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(experiments=())

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(experiments=("nope",))

    def test_unknown_scenario_field_rejected(self):
        with pytest.raises(ConfigurationError, match="scenario field"):
            CampaignSpec(experiments=("table1",), scenario_grid={"horizon": [1]})

    def test_param_undeclared_by_all_experiments_rejected(self):
        with pytest.raises(ConfigurationError, match="declared by none"):
            CampaignSpec(experiments=("table1",), param_grid={"deferrable": [0.1]})

    def test_overlapping_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="both"):
            CampaignSpec(
                experiments=("shifting",),
                scenario_grid={"seed": [0]},
                param_grid={"seed": [1]},
            )

    def test_empty_grid_values_rejected(self):
        with pytest.raises(ConfigurationError, match="no values"):
            CampaignSpec(experiments=("table1",), scenario_grid={"seed": []})

    def test_to_dict_is_strict_json(self):
        campaign = CampaignSpec(
            experiments=("shifting",),
            scenario_grid={"site": ["holyoke-ma", "phoenix-az"]},
            param_grid={"deferrable": [0.2, 0.4]},
        )
        payload = json.loads(json.dumps(campaign.to_dict(), allow_nan=False))
        assert payload["experiments"] == ["shifting"]
        assert payload["scenario_grid"]["site"] == ["holyoke-ma", "phoenix-az"]
        assert payload["param_grid"]["deferrable"] == [0.2, 0.4]


class TestExpansion:
    def test_product_order_and_count(self):
        points = CampaignSpec(**CHEAP).expand()
        assert len(points) == 8
        assert [p.index for p in points] == list(range(8))
        assert [p.experiment for p in points] == ["table1"] * 4 + ["powercap"] * 4
        assert points[0].spec.seed == 0 and points[0].spec.n_months == 3
        assert points[3].spec.seed == 1 and points[3].spec.n_months == 4

    def test_derived_seeds_stable_and_distinct(self):
        first = CampaignSpec(**CHEAP).expand()
        second = CampaignSpec(**CHEAP).expand()
        assert [p.seed for p in first] == [p.seed for p in second]
        assert len({p.seed for p in first}) == len(first)

    def test_site_names_resolved_and_labelled(self):
        points = CampaignSpec(
            experiments=("table1",), scenario_grid={"site": ["holyoke-ma", "phoenix-az"]}
        ).expand()
        assert points[1].spec.site == get_site("phoenix-az")
        assert points[1].varied["site"] == "phoenix-az"

    def test_undeclared_params_deduplicated(self):
        # table1 declares no params: the deferrable sweep collapses to one
        # point for it, while shifting keeps both values.
        points = CampaignSpec(
            experiments=("table1", "shifting"), param_grid={"deferrable": [0.2, 0.4]}
        ).expand()
        by_experiment: dict[str, list] = {}
        for point in points:
            by_experiment.setdefault(point.experiment, []).append(point)
        assert len(by_experiment["table1"]) == 1
        assert "deferrable" not in by_experiment["table1"][0].varied
        assert [p.params["deferrable"] for p in by_experiment["shifting"]] == [0.2, 0.4]

    def test_no_grids_runs_each_experiment_once(self):
        points = CampaignSpec(experiments=("table1", "powercap")).expand()
        assert [p.experiment for p in points] == ["table1", "powercap"]
        assert points[0].seed != points[1].seed

    def test_master_seed_changes_point_seeds_only(self):
        a = CampaignSpec(**CHEAP, seed=1).expand()
        b = CampaignSpec(**CHEAP, seed=2).expand()
        assert [p.spec for p in a] == [p.spec for p in b]
        assert all(pa.seed != pb.seed for pa, pb in zip(a, b))

    def test_point_seeds_stable_across_runs_and_processes(self):
        # Derived seeds are BLAKE2b-based, so they must match these pinned
        # values in any process, interpreter session or Python version —
        # a campaign re-run months later reproduces the same points.
        gridded = CampaignSpec(
            experiments=("table1",), scenario_grid={"seed": [1, 2], "n_months": [3, 4]}, seed=42
        ).expand()
        assert [p.seed for p in gridded] == [
            5669766499693524767,
            5764421787966673793,
            8553186198149603170,
            1724737155601483402,
        ]
        # No grid: every experiment runs at the one empty combination, index 0.
        ungridded = CampaignSpec(experiments=("table1", "powercap"), seed=42).expand()
        assert [p.seed for p in ungridded] == [5669766499693524767, 5039191506603648861]


class TestRunCampaign:
    def test_serial_and_parallel_rows_identical(self):
        campaign = CampaignSpec(**CHEAP)
        serial = run_campaign(campaign)
        parallel = run_campaign(campaign, TWO_WORKERS)
        assert len(serial) == 8
        assert serial.rows == parallel.rows
        assert [p.seed for p in serial.points] == [p.seed for p in parallel.points]

    def test_rows_carry_identity_and_scalars(self):
        result = run_campaign(CampaignSpec(**CHEAP))
        row = result.rows[0]
        assert row["experiment"] == "table1"
        assert row["seed"] == 0 and row["n_months"] == 3
        assert row["point_seed"] == result.points[0].seed
        assert row["n_conferences"] == 42

    def test_worker_session_cache_is_bounded(self):
        from repro.experiments.campaign import _MAX_WORKER_SESSIONS, _WORKER_SESSIONS

        clear_worker_sessions()
        campaign = CampaignSpec(
            experiments=("table1",), scenario_grid={"seed": list(range(12))}
        )
        assert len(run_campaign(campaign)) == 12  # serial: sessions cached here
        assert len(_WORKER_SESSIONS) == _MAX_WORKER_SESSIONS
        clear_worker_sessions()

    def test_worker_sessions_reused_per_spec(self):
        from repro.experiments.campaign import _WORKER_SESSIONS

        clear_worker_sessions()
        campaign = CampaignSpec(
            experiments=("table1", "powercap"), scenario_grid={"seed": [0, 1]}
        )
        run_campaign(campaign)  # serial: sessions live in this process
        # Two distinct specs -> two sessions, shared across both experiments.
        assert len(_WORKER_SESSIONS) == 2
        run_campaign(campaign)
        assert len(_WORKER_SESSIONS) == 2
        clear_worker_sessions()

    def test_each_world_built_once_across_experiments(self, monkeypatch):
        # More worlds than the session cache holds: dispatching the points
        # experiment by experiment would evict every world before the second
        # experiment reached it and build each one twice.
        from repro.analysis.figures import SuperCloudScenario

        builds: list[int] = []
        real = SuperCloudScenario.build

        def counting(cls, *args, **kwargs):
            builds.append(kwargs["seed"])
            return real(*args, **kwargs)

        monkeypatch.setattr(SuperCloudScenario, "build", classmethod(counting))
        clear_worker_sessions()
        campaign = CampaignSpec(
            experiments=("figures", "shifting"),
            base=ScenarioSpec(n_months=3),
            scenario_grid={"seed": list(range(9))},
        )
        result = run_campaign(campaign)
        clear_worker_sessions()
        assert sorted(builds) == list(range(9))
        assert [p.index for p in result.points] == list(range(18))
        assert result.column("experiment") == ["figures"] * 9 + ["shifting"] * 9

    def test_param_grid_reaches_experiment(self):
        campaign = CampaignSpec(
            experiments=("shifting",),
            base=ScenarioSpec(n_months=3),
            param_grid={"deferrable": [0.2, 0.4]},
        )
        result = run_campaign(campaign)
        assert [r.params["deferrable"] for r in result.results] == [0.2, 0.4]
        savings = result.column("emissions_savings_pct")
        assert savings[0] < savings[1]  # more deferrable load, more savings


class TestCampaignResult:
    @pytest.fixture(scope="class")
    def result(self) -> CampaignResult:
        return run_campaign(CampaignSpec(**CHEAP))

    def test_length_mismatch_rejected(self, result):
        with pytest.raises(ConfigurationError):
            CampaignResult(campaign=result.campaign, points=result.points, results=())

    def test_column_and_result_for(self, result):
        assert result.column("experiment") == ["table1"] * 4 + ["powercap"] * 4
        assert result.result_for(5).name == "powercap"
        with pytest.raises(DataError):
            result.result_for(99)

    def test_group_by(self, result):
        groups = result.group_by("experiment", "seed")
        assert set(groups) == {(e, s) for e in ("table1", "powercap") for s in (0, 1)}
        assert all(len(rows) == 2 for rows in groups.values())
        with pytest.raises(ConfigurationError):
            result.group_by()

    def test_summarize_excludes_grid_columns(self, result):
        summary = result.summarize("experiment")
        assert [record["experiment"] for record in summary] == ["table1", "powercap"]
        assert all(record["n_points"] == 4 for record in summary)
        powercap = summary[1]
        assert powercap["max_energy_savings_pct_mean"] == pytest.approx(
            powercap["max_energy_savings_pct_min"]
        )
        # The swept spec fields are identity, not metrics.
        assert "seed_mean" not in powercap and "n_months_mean" not in powercap

    def test_summarize_without_keys_aggregates_everything(self, result):
        (overall,) = result.summarize()
        assert overall["n_points"] == 8

    def test_to_json_strict_and_optionally_nested(self, result):
        payload = json.loads(result.to_json())
        assert payload["n_points"] == 8
        assert len(payload["rows"]) == 8
        assert "results" not in payload
        nested = json.loads(result.to_json(include_results=True))
        assert nested["results"][0]["experiment"] == "table1"

    def test_to_csv_round_trips(self, result):
        parsed = list(csv.DictReader(io.StringIO(result.to_csv())))
        assert len(parsed) == 8
        assert parsed[0]["experiment"] == "table1"
        assert parsed[0]["n_conferences"] == "42"
        assert parsed[-1]["experiment"] == "powercap"
        # Ragged columns (table1 scalars) are blank on powercap rows.
        assert parsed[-1]["n_conferences"] == ""

    def test_to_csv_quotes_commas_quotes_and_newlines(self):
        # Regression: policy/router pipeline specs put commas in cells, and
        # a naive join would shear the columns; quotes and newlines must
        # survive a round trip too, and None/NaN must render as empty cells.
        campaign = CampaignSpec(experiments=("table1",))
        point = campaign.expand()[0]
        nasty = ExperimentResult(
            name="table1",
            spec=point.spec,
            rows=(),
            scalars={
                "policy": "backfill+carbon(cap=0.7),budget",
                "note": 'say "hi"\nbye',
                "gap": None,
                "bad_float": float("nan"),
            },
        )
        result = CampaignResult(campaign=campaign, points=(point,), results=(nasty,))
        text = result.to_csv()
        assert "\r" not in text
        (parsed,) = csv.DictReader(io.StringIO(text))
        assert parsed["policy"] == "backfill+carbon(cap=0.7),budget"
        assert parsed["note"] == 'say "hi"\nbye'
        assert parsed["gap"] == ""
        assert parsed["bad_float"] == ""  # NaN normalizes to a blank cell


class TestCampaignCaching:
    """run_campaign against an ArtifactStore: incremental re-execution."""

    @pytest.fixture
    def store(self, tmp_path) -> ArtifactStore:
        return ArtifactStore(tmp_path / "cache")

    @pytest.fixture
    def simulated(self, monkeypatch) -> list:
        """Counting hook: the indices of every point actually simulated."""
        from repro.experiments import campaign as campaign_module

        indices: list[int] = []
        real = campaign_module._evaluate_campaign_point

        def counting(point, parallel=None):
            indices.append(point.index)
            return real(point, parallel)

        monkeypatch.setattr(campaign_module, "_evaluate_campaign_point", counting)
        return indices

    def test_unchanged_rerun_hits_everything_byte_identically(self, store, simulated):
        campaign = CampaignSpec(**CHEAP)
        cold = run_campaign(campaign, store=store)
        assert (cold.cache_hits, cold.cache_misses) == (0, 8)
        assert sorted(simulated) == list(range(8))
        simulated.clear()
        warm = run_campaign(campaign, store=store)
        assert (warm.cache_hits, warm.cache_misses) == (8, 0)
        assert simulated == []  # zero simulator executions
        assert warm.to_csv() == cold.to_csv()
        assert json.dumps(warm.to_dict()["rows"]) == json.dumps(cold.to_dict()["rows"])

    def test_store_normalization_matches_a_plain_run(self, store):
        campaign = CampaignSpec(**CHEAP)
        assert run_campaign(campaign, store=store).rows == run_campaign(campaign).rows

    def test_uncached_runs_report_no_cache_stats(self):
        result = run_campaign(CampaignSpec(**CHEAP))
        assert result.cache_hits is None and result.cache_misses is None
        assert "cache_hits" not in result.to_dict()

    def test_one_changed_grid_value_reruns_only_that_subgraph(self, store, simulated):
        run_campaign(CampaignSpec(**CHEAP), store=store)
        simulated.clear()
        edited = dict(CHEAP, scenario_grid={"seed": [0, 2], "n_months": [3, 4]})
        result = run_campaign(CampaignSpec(**edited), store=store)
        assert (result.cache_hits, result.cache_misses) == (4, 4)
        assert all(result.points[i].spec.seed == 2 for i in simulated)

    def test_one_changed_param_value_reruns_only_that_subgraph(self, store, simulated):
        base = dict(
            experiments=("shifting",),
            base=ScenarioSpec(n_months=3),
            param_grid={"deferrable": [0.2, 0.4]},
        )
        run_campaign(CampaignSpec(**base), store=store)
        simulated.clear()
        edited = dict(base, param_grid={"deferrable": [0.2, 0.5]})
        result = run_campaign(CampaignSpec(**edited), store=store)
        assert (result.cache_hits, result.cache_misses) == (1, 1)
        assert [result.points[i].params["deferrable"] for i in simulated] == [0.5]

    def test_code_version_change_invalidates_everything(self, store, simulated, monkeypatch):
        campaign = CampaignSpec(**CHEAP)
        run_campaign(campaign, store=store)
        simulated.clear()
        monkeypatch.setenv(CODE_VERSION_ENV, "0.0-rekeyed")
        result = run_campaign(campaign, store=store)
        assert (result.cache_hits, result.cache_misses) == (0, 8)
        assert len(simulated) == 8

    def test_corrupt_artifact_is_a_miss_not_a_crash(self, store, simulated):
        campaign = CampaignSpec(**CHEAP)
        cold = run_campaign(campaign, store=store)
        store.path_for(run_key(campaign.expand()[0])).write_text("not json at all")
        simulated.clear()
        warm = run_campaign(campaign, store=store)
        assert (warm.cache_hits, warm.cache_misses) == (7, 1)
        assert simulated == [0]  # only the clobbered point resimulated
        assert store.corrupt_reads == 1
        assert warm.to_csv() == cold.to_csv()

    def test_force_recomputes_every_point(self, store, simulated):
        campaign = CampaignSpec(**CHEAP)
        run_campaign(campaign, store=store)
        simulated.clear()
        result = run_campaign(campaign, store=store, force=True)
        assert (result.cache_hits, result.cache_misses) == (0, 8)
        assert sorted(simulated) == list(range(8))

    def test_cached_campaign_in_worker_processes(self, store):
        # The store path dispatches misses through the same parallel map.
        campaign = CampaignSpec(**CHEAP)
        cold = run_campaign(campaign, TWO_WORKERS, store=store)
        assert (cold.cache_hits, cold.cache_misses) == (0, 8)
        warm = run_campaign(campaign, TWO_WORKERS, store=store)
        assert (warm.cache_hits, warm.cache_misses) == (8, 0)
        assert warm.rows == cold.rows


class TestRewiredAnalyses:
    """The sweep-shaped analyses give identical results serially and in processes."""

    def test_powercap_tradeoff_parallel_matches_serial(self):
        from repro.scheduler.powercap import powercap_energy_tradeoff

        caps = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5)
        serial = powercap_energy_tradeoff("V100", caps)
        parallel = powercap_energy_tradeoff("V100", caps, parallel=TWO_WORKERS)
        assert serial == parallel
        assert [p.cap_fraction for p in serial] == list(caps)

    def test_powercap_tradeoff_empty_caps_returns_empty(self):
        from repro.scheduler.powercap import powercap_energy_tradeoff

        assert powercap_energy_tradeoff("V100", ()) == []

    def test_stress_battery_parallel_matches_serial(self):
        from repro.core.stress import StressTestHarness

        harness = StressTestHarness(n_months=2, seed=3)
        serial = harness.run_battery()
        parallel = harness.run_battery(parallel=TWO_WORKERS)
        assert serial == parallel
        assert list(serial) == list(parallel)  # same scenario order

    def test_optimizer_parallel_matches_serial(self):
        from repro.experiments import ExperimentSession

        session = ExperimentSession(ScenarioSpec(n_months=2))
        jobs = session.job_trace(n_jobs=20, horizon_h=24.0)
        serial = session.optimize_operations(jobs, horizon_h=24.0)
        parallel = session.optimize_operations(jobs, horizon_h=24.0, parallel=TWO_WORKERS)
        assert [e.point for e in serial.evaluated] == [e.point for e in parallel.evaluated]
        assert [e.evaluation.objective_value for e in serial.evaluated] == [
            e.evaluation.objective_value for e in parallel.evaluated
        ]
        assert serial.best.point == parallel.best.point

    def test_optimize_experiment_validates_policies_against_registry(self):
        from repro.experiments import ExperimentSession

        session = ExperimentSession(ScenarioSpec(n_months=2))
        with pytest.raises(ConfigurationError, match="registered"):
            session.run("optimize", jobs=5, horizon_days=1.0, policies="warp-speed")

    def test_optimize_experiment_accepts_registry_policy_subset(self):
        from repro.experiments import ExperimentSession

        session = ExperimentSession(ScenarioSpec(n_months=2))
        result = session.run("optimize", jobs=10, horizon_days=1.0, policies="fifo,backfill")
        labels = result.column("operating_point")
        assert labels and all(l.split("/")[0] in ("fifo", "backfill") for l in labels)
