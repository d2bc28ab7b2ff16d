"""Tests for the analysis layer: correlations, figures, Table I."""

import numpy as np
import pytest

from repro.analysis.correlation import (
    best_lag,
    lagged_cross_correlation,
    pearson_correlation,
    spearman_correlation,
)
from repro.analysis.figures import (
    SuperCloudScenario,
    fig1_compute_trends,
    fig2_power_vs_green_share,
    fig3_price_vs_green_share,
    fig4_power_vs_temperature,
    fig5_energy_vs_deadlines,
)
from repro.analysis.tables import table1_conferences
from repro.errors import DataError


@pytest.fixture(scope="module")
def scenario():
    return SuperCloudScenario.build(seed=0)


class TestCorrelation:
    def test_pearson_perfect(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, 2 * x + 1) == pytest.approx(1.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_spearman_monotone_nonlinear(self):
        x = np.arange(1.0, 11.0)
        assert spearman_correlation(x, x**3) == pytest.approx(1.0)

    def test_spearman_ties_take_average_ranks(self):
        # x ranks [1, 2.5, 2.5, 5, 5, 5], y ranks [1.5, 1.5, 3.5, 3.5, 5.5, 5.5]:
        # centred products sum to 13, squares to 15 and 16.
        x = np.array([1.0, 2.0, 2.0, 3.0, 3.0, 3.0])
        y = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        assert spearman_correlation(x, y) == pytest.approx(13.0 / np.sqrt(15.0 * 16.0), rel=1e-12)
        # Unsorted input with a tie: ranks [4, 1, 2.5, 2.5] vs [1, 2.5, 2.5, 4].
        assert spearman_correlation([3.0, 1.0, 2.0, 2.0], [1.0, 2.0, 2.0, 3.0]) == pytest.approx(
            -0.5, rel=1e-12
        )
        assert np.isnan(spearman_correlation(np.ones(4), np.arange(4.0)))

    def test_constant_series_rejected(self):
        with pytest.raises(DataError):
            pearson_correlation(np.ones(5), np.arange(5.0))

    def test_short_series_rejected(self):
        with pytest.raises(DataError):
            pearson_correlation(np.arange(2.0), np.arange(2.0))

    def test_lagged_cross_correlation_finds_shift(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=60)
        x = base[:-3]
        y = base[3:]  # y[t] = x[t+3] shifted back: x leads y by ... x[t] == y[t-3]
        correlations = lagged_cross_correlation(x, y, max_lag=5)
        lag, value = best_lag(x, y, max_lag=5)
        assert lag == -3
        assert value == pytest.approx(1.0)
        assert correlations[-3] == pytest.approx(1.0)


class TestFig1:
    def test_doubling_times(self):
        result = fig1_compute_trends()
        assert result.modern_fit.doubling_time_months < 12.0
        assert result.pre2012_fit.doubling_time_months > 12.0
        assert result.growth_acceleration > 1.0

    def test_scatter_aligned(self):
        result = fig1_compute_trends()
        assert result.years.shape == result.compute_pfs_days.shape == result.is_modern.shape


class TestFig2(object):
    def test_anticorrelation_and_band(self, scenario):
        result = fig2_power_vs_green_share(scenario)
        assert result.correlation < 0
        assert 150.0 < result.monthly_power_kw.min() < result.monthly_power_kw.max() < 550.0
        assert 2.0 < result.monthly_renewable_share_pct.min()
        assert result.monthly_renewable_share_pct.max() < 12.0

    def test_peaks_in_expected_seasons(self, scenario):
        result = fig2_power_vs_green_share(scenario)
        assert result.power_peak_month.split()[0] in {"Jun", "Jul", "Aug"}
        assert result.renewable_peak_month.split()[0] in {"Feb", "Mar", "Apr", "May"}

    def test_mismatch_opportunity_positive(self, scenario):
        assert fig2_power_vs_green_share(scenario).mismatch_opportunity() > 0


class TestFig3:
    def test_price_anticorrelated_with_green_share(self, scenario):
        result = fig3_price_vs_green_share(scenario)
        assert result.correlation < 0

    def test_price_band_matches_paper(self, scenario):
        low, high = fig3_price_vs_green_share(scenario).price_range
        assert 15.0 < low < 35.0
        assert 35.0 < high < 60.0

    def test_green_months_cheaper(self, scenario):
        assert fig3_price_vs_green_share(scenario).spring_discount() < 0

    def test_cheapest_month_in_spring_window(self, scenario):
        cheapest = fig3_price_vs_green_share(scenario).cheapest_month.split()[0]
        assert cheapest in {"Feb", "Mar", "Apr", "May"}


class TestFig4:
    def test_near_one_to_one(self, scenario):
        result = fig4_power_vs_temperature(scenario)
        assert result.spearman > 0.8
        assert result.pearson > 0.8
        assert result.is_near_one_to_one()

    def test_temperature_in_fahrenheit_band(self, scenario):
        result = fig4_power_vs_temperature(scenario)
        assert result.monthly_temperature_f.min() > 0.0
        assert result.monthly_temperature_f.max() < 100.0


class TestFig5:
    def test_deadline_uplift_positive_and_tracks_upcoming_deadlines(self, scenario):
        result = fig5_energy_vs_deadlines(scenario)
        assert float(np.mean(result.deadline_uplift_mwh)) > 0
        assert result.uplift_vs_upcoming_deadlines_correlation > 0.5
        assert result.anticipation_detected()

    def test_early_2021_pickup_exceeds_2020(self, scenario):
        result = fig5_energy_vs_deadlines(scenario)
        assert result.early_2021_vs_2020_ratio > 1.0

    def test_series_shapes(self, scenario):
        result = fig5_energy_vs_deadlines(scenario)
        assert result.monthly_energy_mwh.shape == (24,)
        assert result.deadlines_per_month.shape == (24,)
        assert result.counterfactual_energy_mwh.shape == (24,)

    def test_requires_two_year_horizon(self):
        short = SuperCloudScenario.build(seed=0, n_months=6)
        with pytest.raises(DataError):
            fig5_energy_vs_deadlines(short)


class TestTable1:
    def test_rows_and_counts(self):
        result = table1_conferences()
        assert result.n_conferences == sum(len(v) for v in result.rows.values())
        assert set(result.rows) == {"NLP/Speech", "Computer Vision", "Robotics", "General ML", "Data Mining"}

    def test_seasonality_stats(self):
        result = table1_conferences()
        assert result.spring_summer_fraction > result.winter_fraction
        assert 1 <= result.busiest_deadline_month() <= 12

    def test_markdown_render(self):
        markdown = table1_conferences().as_markdown()
        assert markdown.startswith("| Area/Discipline | Conferences |")
        assert "NeurIPS" in markdown
