"""Tests for the unified experiment API (:mod:`repro.experiments`)."""

import json

import numpy as np
import pytest

from repro.analysis.figures import SuperCloudScenario, fig2_power_vs_green_share
from repro.config import FacilityConfig
from repro.errors import ConfigurationError, DataError
from repro.experiments import (
    ExperimentResult,
    ExperimentSession,
    ScenarioSpec,
    WorkloadSpec,
    experiment_names,
    get_experiment,
    get_scenario,
    get_site,
    list_experiments,
    register_scenario,
    scenario_names,
    site_names,
)

ALL_EXPERIMENTS = (
    "figures",
    "table1",
    "powercap",
    "shifting",
    "deadlines",
    "stress",
    "schedule",
    "fleet",
    "optimize",
)


class TestScenarioSpec:
    def test_default_spec_is_hashable_and_comparable(self):
        assert ScenarioSpec() == ScenarioSpec()
        assert hash(ScenarioSpec()) == hash(ScenarioSpec())
        assert ScenarioSpec(seed=1) != ScenarioSpec(seed=2)

    def test_replace_returns_modified_copy(self):
        spec = ScenarioSpec().replace(seed=7, n_months=6)
        assert (spec.seed, spec.n_months) == (7, 6)
        assert ScenarioSpec().seed == 0  # original untouched

    def test_replace_unknown_field_raises(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec().replace(horizon=12)

    def test_invalid_horizon_raises(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(n_months=0)

    def test_to_dict_is_strict_json(self):
        payload = json.dumps(ScenarioSpec().to_dict(), allow_nan=False)
        round_tripped = json.loads(payload)
        assert round_tripped["seed"] == 0
        assert round_tripped["facility"]["n_nodes"] == 448
        assert round_tripped["site"]["name"] == "holyoke-ma"

    def test_trace_config_threads_facility_and_workload(self):
        spec = ScenarioSpec(workload=WorkloadSpec(gpu_model="A100", packing_factor=0.5))
        trace_config = spec.trace_config()
        assert trace_config.gpu_model == "A100"
        assert trace_config.packing_factor == 0.5
        assert trace_config.facility == spec.facility


class TestScenarioRegistry:
    def test_builtin_scenarios_registered(self):
        for name in ("default", "paper", "single-year", "hot-climate", "a100-refresh"):
            assert name in scenario_names()
            assert get_scenario(name).name == name

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigurationError):
            get_scenario("nope")

    def test_register_and_duplicate(self):
        spec = ScenarioSpec(name="test-custom-scenario", seed=99, n_months=3)
        register_scenario(spec)
        assert get_scenario("test-custom-scenario") is spec
        with pytest.raises(ConfigurationError):
            register_scenario(spec)
        register_scenario(spec.replace(seed=100), overwrite=True)
        assert get_scenario("test-custom-scenario").seed == 100

    def test_site_registry(self):
        assert "holyoke-ma" in site_names()
        assert get_site("phoenix-az").mean_annual_temperature_c > get_site("holyoke-ma").mean_annual_temperature_c
        with pytest.raises(ConfigurationError):
            get_site("atlantis")


class TestSessionCache:
    def test_same_spec_same_object(self):
        session = ExperimentSession("single-year")
        assert session.scenario() is session.scenario()
        assert session.scenario_builds == 1

    def test_substrates_built_once_across_experiments(self):
        session = ExperimentSession(ScenarioSpec(n_months=6))
        session.run("figures")
        session.run("shifting")
        session.run("deadlines")
        session.run("stress")
        assert session.scenario_builds == 1

    def test_distinct_specs_build_distinct_scenarios(self):
        session = ExperimentSession(ScenarioSpec(n_months=3))
        first = session.scenario()
        other = session.scenario(ScenarioSpec(n_months=3, seed=5))
        assert first is not other
        assert session.scenario_builds == 2

    def test_overrides_apply_to_named_scenario(self):
        session = ExperimentSession("single-year", seed=9)
        assert session.spec.seed == 9
        assert session.spec.n_months == 12

    def test_job_trace_cached_per_parameters(self):
        session = ExperimentSession(ScenarioSpec(n_months=2))
        trace = session.job_trace(n_jobs=20, horizon_h=24.0)
        assert session.job_trace(n_jobs=20, horizon_h=24.0) is trace
        assert len(session.job_trace(n_jobs=10, horizon_h=24.0)) == 10


class TestExperimentResult:
    def test_to_json_round_trip(self):
        session = ExperimentSession(ScenarioSpec(n_months=6))
        result = session.run("figures")
        assert json.loads(result.to_json()) == result.to_dict()
        assert json.loads(result.to_json(indent=2)) == result.to_dict()

    def test_non_finite_values_serialize_to_null(self):
        result = ExperimentResult(
            name="synthetic",
            spec=ScenarioSpec(),
            rows=({"value": float("nan")},),
            scalars={"ratio": float("inf")},
        )
        payload = json.loads(result.to_json())
        assert payload["rows"][0]["value"] is None
        assert payload["scalars"]["ratio"] is None

    def test_scalar_and_column_accessors(self):
        result = ExperimentResult(
            name="synthetic",
            spec=ScenarioSpec(),
            rows=({"a": 1}, {"a": 2, "b": 3}),
            scalars={"total": 3},
        )
        assert result.scalar("total") == 3
        assert result.column("a") == [1, 2]
        assert result.column("b") == [None, 3]
        with pytest.raises(DataError):
            result.scalar("missing")


class TestRegistry:
    def test_all_builtin_experiments_registered(self):
        assert experiment_names() == ALL_EXPERIMENTS
        for definition in list_experiments():
            assert definition.runner is not None

    def test_unknown_experiment_raises(self):
        with pytest.raises(ConfigurationError):
            get_experiment("nope")

    def test_unknown_parameter_rejected(self):
        session = ExperimentSession(ScenarioSpec(n_months=2))
        with pytest.raises(ConfigurationError):
            session.run("shifting", bogus=1)

    def test_choices_validated(self):
        session = ExperimentSession(ScenarioSpec(n_months=2))
        with pytest.raises(ConfigurationError):
            session.run("shifting", signal="vibes")

    def test_every_experiment_returns_uniform_result(self):
        session = ExperimentSession(ScenarioSpec(n_months=6))
        params = {
            "optimize": {"jobs": 25, "horizon_days": 2.0},
            "schedule": {"jobs": 25, "horizon_days": 2.0},
            "fleet": {"jobs": 25, "horizon_days": 2.0},
        }
        results = session.run_many(ALL_EXPERIMENTS, params_by_name=params)
        for name, result in results.items():
            assert isinstance(result, ExperimentResult)
            assert result.name == name
            assert result.spec == session.spec
            assert result.rows  # every analysis produces tabular output
        # The base world builds once; the fleet experiment adds one build per
        # member site of its (tri-site) fleet, cached on the same session.
        assert session.scenario_builds == 1 + 3


class TestSessionSubstrates:
    def test_session_scenario_matches_direct_build(self):
        scenario = ExperimentSession(seed=11, n_months=12).scenario()
        direct = SuperCloudScenario.build(seed=11, start_year=2020, n_months=12)
        np.testing.assert_allclose(
            scenario.load_trace.monthly_power_kw, direct.load_trace.monthly_power_kw
        )
        np.testing.assert_allclose(scenario.weather_hourly_c, direct.weather_hourly_c)
        assert (
            fig2_power_vs_green_share(scenario).correlation
            == fig2_power_vs_green_share(direct).correlation
        )

    def test_deadlines_honor_facility(self):
        def actual_energy_mwh(session):
            rows = {row["option"]: row for row in session.run("deadlines").rows}
            return rows["actual"]["energy_mwh"]

        small = ExperimentSession(seed=0, n_months=4, facility=FacilityConfig(n_nodes=64))
        default = ExperimentSession(seed=0, n_months=4)
        # A 64-node facility must not report 448-node energy totals.
        assert actual_energy_mwh(small) < actual_energy_mwh(default) / 2

    def test_session_honors_site(self):
        hot = ExperimentSession(site=get_site("phoenix-az")).scenario()
        cold = ExperimentSession(site=get_site("reykjavik-is")).scenario()
        assert float(np.mean(hot.weather_hourly_c)) > float(np.mean(cold.weather_hourly_c))
