"""Tests for the SuperCloud trace generator, conference calendar and demand model."""

import numpy as np
import pytest

from repro.climate.weather import WeatherModel
from repro.errors import ConfigurationError, DataError
from repro.scheduler.job import JobState
from repro.workloads.conferences import CONFERENCE_CATALOG, Conference, ConferenceCalendar
from repro.workloads.demand import DeadlineDemandConfig, DeadlineDemandModel
from repro.workloads.supercloud import SuperCloudTraceConfig, SuperCloudTraceGenerator
from repro.workloads.trends import ComputeTrendModel


class TestConferenceCalendar:
    def test_catalogue_matches_table1_areas(self):
        calendar = ConferenceCalendar()
        areas = {conference.area for conference in calendar.conferences}
        assert areas == {"NLP/Speech", "Computer Vision", "Robotics", "General ML", "Data Mining"}

    def test_table1_venues_present(self):
        names = {c.name for c in CONFERENCE_CATALOG}
        for expected in ("NeurIPS", "ICLR", "AAAI", "KDD", "ICCV", "ICRA", "EMNLP", "InterSpeech"):
            assert expected in names

    def test_unique_names(self):
        names = [c.name for c in CONFERENCE_CATALOG]
        assert len(names) == len(set(names))

    def test_deadlines_per_month_counts_every_active_venue(self, two_year_calendar):
        calendar = ConferenceCalendar()
        counts = calendar.deadlines_per_month(two_year_calendar)
        assert counts.shape == (24,)
        active_total = sum(
            1
            for month in two_year_calendar.months
            for c in calendar.conferences
            if c.has_deadline_in(month.year) and c.deadline_month_for(month.year) == month.month
        )
        assert counts.sum() == active_total

    def test_2021_spring_cluster_larger_than_2020(self, two_year_calendar):
        """The biennial venues (ICCV etc.) make the Feb-May 2021 deadline count
        exceed Feb-May 2020 — the asymmetry behind Fig. 5's 2021 ramp."""
        counts = ConferenceCalendar().deadlines_per_month(two_year_calendar)
        spring_2020 = counts[1:5].sum()
        spring_2021 = counts[13:17].sum()
        assert spring_2021 >= spring_2020

    def test_deadline_hours_within_horizon(self, year_calendar):
        calendar = ConferenceCalendar()
        for _name, hour in calendar.deadline_hours(year_calendar):
            assert 0 <= hour < year_calendar.total_hours

    def test_spring_summer_concentration(self):
        by_month = ConferenceCalendar().monthly_count_by_month_of_year()
        assert by_month.sum() == len(CONFERENCE_CATALOG)
        spring_summer = by_month[2:8].sum()
        winter = by_month[[10, 11, 0, 1]].sum()
        assert spring_summer > winter

    def test_restructured_uniform_spreads(self):
        uniform = ConferenceCalendar().restructured("uniform")
        by_month = uniform.monthly_count_by_month_of_year()
        assert by_month.max() - by_month.min() <= 1

    def test_restructured_winter_concentrates(self):
        winter = ConferenceCalendar().restructured("winter")
        by_month = winter.monthly_count_by_month_of_year()
        assert by_month[[10, 11, 0, 1, 2]].sum() == len(CONFERENCE_CATALOG)

    def test_restructured_rolling_has_no_deadlines(self, year_calendar):
        rolling = ConferenceCalendar().restructured("rolling")
        assert rolling.deadlines_per_month(year_calendar).sum() == 0
        assert rolling.deadline_hours(year_calendar) == []

    def test_unknown_option(self):
        with pytest.raises(DataError):
            ConferenceCalendar().restructured("quarterly")

    def test_invalid_conference(self):
        with pytest.raises(DataError):
            Conference("X", "ML", 13)

    def test_by_area_markdownable(self):
        table = ConferenceCalendar().by_area()
        assert all(isinstance(v, list) and v for v in table.values())


class TestDeadlineDemandModel:
    def test_occupancy_bounded(self, two_year_calendar):
        model = DeadlineDemandModel(seed=0)
        occupancy = model.hourly_occupancy(two_year_calendar)
        assert occupancy.shape == (two_year_calendar.total_hours,)
        assert occupancy.min() >= 0.0
        assert occupancy.max() <= model.config.max_occupancy + 1e-12

    def test_deadline_component_nonnegative(self, year_calendar):
        model = DeadlineDemandModel(seed=0)
        assert model.deadline_component(year_calendar).min() >= 0.0

    def test_holiday_dip_visible(self, year_calendar):
        config = DeadlineDemandConfig(noise_sigma=0.0, deadline_boost_per_conference=0.0)
        model = DeadlineDemandModel(config, seed=0)
        occupancy = model.hourly_occupancy(year_calendar)
        christmas = occupancy[int(358 * 24) : int(360 * 24)].mean()
        october = occupancy[int(280 * 24) : int(282 * 24)].mean()
        assert christmas < october

    def test_deadline_anticipation_raises_demand_before_deadlines(self, year_calendar):
        config = DeadlineDemandConfig(noise_sigma=0.0)
        with_deadlines = DeadlineDemandModel(config, seed=0)
        rolling = with_deadlines.with_calendar(ConferenceCalendar().restructured("rolling"))
        diff = with_deadlines.hourly_occupancy(year_calendar) - rolling.hourly_occupancy(year_calendar)
        assert diff.min() >= -1e-9
        assert diff.max() > 0.01

    def test_annual_growth(self, two_year_calendar):
        config = DeadlineDemandConfig(noise_sigma=0.0, deadline_boost_per_conference=0.0, annual_growth=0.2)
        model = DeadlineDemandModel(config, seed=0)
        monthly = model.monthly_occupancy(two_year_calendar)
        assert monthly[12:].mean() > monthly[:12].mean()

    def test_monthly_shapes(self, year_calendar):
        model = DeadlineDemandModel(seed=0)
        assert model.monthly_occupancy(year_calendar).shape == (12,)
        assert model.monthly_deadline_counts(year_calendar).shape == (12,)

    def test_reproducible(self, year_calendar):
        a = DeadlineDemandModel(seed=4).hourly_occupancy(year_calendar)
        b = DeadlineDemandModel(seed=4).hourly_occupancy(year_calendar)
        np.testing.assert_allclose(a, b)

    def test_with_calendar_keeps_noise_seed(self, year_calendar):
        model = DeadlineDemandModel(DeadlineDemandConfig(deadline_boost_per_conference=0.0), seed=9)
        clone = model.with_calendar(ConferenceCalendar().restructured("rolling"))
        np.testing.assert_allclose(
            model.hourly_occupancy(year_calendar), clone.hourly_occupancy(year_calendar)
        )

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            DeadlineDemandConfig(baseline_occupancy=1.5)
        with pytest.raises(ConfigurationError):
            DeadlineDemandConfig(anticipation_time_constant_days=0.0)


class TestSuperCloudTraces:
    def test_load_trace_power_in_paper_band(self, two_year_calendar):
        generator = SuperCloudTraceGenerator(seed=0)
        weather = WeatherModel(seed=0).hourly_temperature_c(two_year_calendar)
        trace = generator.generate_load_trace(two_year_calendar, weather)
        # Fig. 2/4/5 show monthly averages roughly between 200 and 450 kW.
        assert trace.monthly_power_kw.min() > 150.0
        assert trace.monthly_power_kw.max() < 550.0
        assert trace.monthly_power_kw.shape == (24,)

    def test_it_power_monotone_in_occupancy(self):
        generator = SuperCloudTraceGenerator(seed=0)
        occupancy = np.linspace(0, 1, 11)
        power = generator.it_power_from_occupancy(occupancy)
        assert np.all(np.diff(power) > 0)

    def test_facility_power_at_least_it_power(self, year_calendar):
        generator = SuperCloudTraceGenerator(seed=0)
        weather = WeatherModel(seed=0).hourly_temperature_c(year_calendar)
        trace = generator.generate_load_trace(year_calendar, weather)
        assert np.all(trace.facility_power_w >= trace.it_power_w - 1e-9)

    def test_weather_length_mismatch_rejected(self, year_calendar):
        generator = SuperCloudTraceGenerator(seed=0)
        with pytest.raises(DataError):
            generator.generate_load_trace(year_calendar, np.zeros(10))

    def test_job_generation_basic(self, small_facility):
        generator = SuperCloudTraceGenerator(SuperCloudTraceConfig(facility=small_facility), seed=1)
        jobs = generator.generate_jobs(n_jobs=50, horizon_h=24.0)
        assert len(jobs) == 50
        assert all(job.state is JobState.PENDING for job in jobs)
        assert all(0 <= job.submit_time_h <= 24.0 for job in jobs)
        assert all(job.n_gpus in (1, 2, 4, 8, 16, 32) for job in jobs)
        submit_times = [job.submit_time_h for job in jobs]
        assert submit_times == sorted(submit_times)

    def test_job_generation_fraction_controls(self):
        generator = SuperCloudTraceGenerator(seed=2)
        jobs = generator.generate_jobs(
            n_jobs=200, horizon_h=100.0, deferrable_fraction=1.0, deadline_fraction=0.0
        )
        assert all(job.deferrable for job in jobs)
        assert all(job.deadline_h is None for job in jobs)

    def test_job_generation_arrival_weights(self):
        generator = SuperCloudTraceGenerator(seed=3)
        # All arrival weight in the first fifth of the window.
        weights = [1.0, 0.0001, 0.0001, 0.0001, 0.0001]
        jobs = generator.generate_jobs(n_jobs=200, horizon_h=100.0, arrival_weights=weights)
        early = sum(1 for job in jobs if job.submit_time_h < 20.0)
        assert early > 150

    def test_job_generation_validation(self):
        generator = SuperCloudTraceGenerator(seed=0)
        with pytest.raises(ConfigurationError):
            generator.generate_jobs(n_jobs=0, horizon_h=10.0)


class TestComputeTrends:
    def test_doubling_times_match_figure1(self):
        model = ComputeTrendModel()
        fits = model.fit_all()
        # Pre-2012: roughly Moore's-law doubling (around two years).
        assert 14.0 < fits["pre-2012"].doubling_time_months < 32.0
        # Modern era: months-scale doubling (the paper quotes ~3.4 months).
        assert 2.0 < fits["modern"].doubling_time_months < 8.0

    def test_growth_acceleration(self):
        assert ComputeTrendModel().growth_acceleration() > 3.0

    def test_fits_explain_variance(self):
        fits = ComputeTrendModel().fit_all()
        assert fits["pre-2012"].r_squared > 0.7
        assert fits["modern"].r_squared > 0.5

    def test_scatter_series(self):
        series = ComputeTrendModel().scatter_series()
        assert series["year"].shape == series["compute_pfs_days"].shape
        assert series["is_modern"].dtype == bool

    def test_era_validation(self):
        with pytest.raises(DataError):
            ComputeTrendModel().era_systems("mesozoic")
