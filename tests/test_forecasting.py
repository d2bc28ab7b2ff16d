"""Tests for the forecasting stack (features, models, wind study, evaluation)."""

import numpy as np
import pytest

from repro.errors import ForecastError
from repro.forecasting.evaluation import evaluate_forecast
from repro.forecasting.features import make_lag_matrix
from repro.forecasting.linear import PersistenceForecaster, RidgeRegressor
from repro.forecasting.wind import WindFarmConfig, WindFarmSimulator, WindForecastStudy


class TestFeatures:
    def test_lag_matrix_values(self):
        series = np.arange(10.0)
        X, y = make_lag_matrix(series, lags=[1, 2], horizon=1)
        # First usable row: t=2 -> features [series[1], series[0]], target series[2].
        np.testing.assert_allclose(X[0], [1.0, 0.0])
        assert y[0] == pytest.approx(2.0)
        assert X.shape[0] == y.shape[0]

    def test_lag_matrix_horizon(self):
        series = np.arange(10.0)
        _, y1 = make_lag_matrix(series, lags=[1], horizon=1)
        _, y3 = make_lag_matrix(series, lags=[1], horizon=3)
        assert y3[0] == y1[0] + 2.0

    def test_lag_matrix_with_exogenous(self):
        series = np.arange(10.0)
        exo = series * 10
        X, y = make_lag_matrix(series, lags=[1], horizon=2, exogenous=exo)
        # Exogenous column holds the value at the target time.
        np.testing.assert_allclose(X[:, -1], y * 10)

    def test_lag_matrix_validation(self):
        with pytest.raises(ForecastError):
            make_lag_matrix(np.arange(3.0), lags=[5])
        with pytest.raises(ForecastError):
            make_lag_matrix(np.arange(10.0), lags=[])
        with pytest.raises(ForecastError):
            make_lag_matrix(np.arange(10.0), lags=[1], horizon=0)


class TestRidge:
    def test_recovers_linear_relationship(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        y = 2.0 * X[:, 0] - 1.0 * X[:, 1] + 0.5 + rng.normal(scale=0.01, size=200)
        model = RidgeRegressor(alpha=1e-6).fit(X, y)
        np.testing.assert_allclose(model.predict(X), y, atol=0.05)

    def test_regularisation_shrinks_coefficients(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 2))
        y = 3.0 * X[:, 0] + rng.normal(scale=0.1, size=100)
        loose = RidgeRegressor(alpha=1e-6).fit(X, y)
        tight = RidgeRegressor(alpha=1e4).fit(X, y)
        assert abs(tight.coef_[0]) < abs(loose.coef_[0])

    def test_predict_before_fit(self):
        with pytest.raises(ForecastError):
            RidgeRegressor().predict(np.ones((2, 2)))

    def test_shape_validation(self):
        with pytest.raises(ForecastError):
            RidgeRegressor().fit(np.ones(5), np.ones(5))
        model = RidgeRegressor().fit(np.ones((5, 2)), np.arange(5.0))
        with pytest.raises(ForecastError):
            model.predict(np.ones((2, 3)))


class TestBaselines:
    def _seasonal_series(self, n=600):
        t = np.arange(n, dtype=float)
        rng = np.random.default_rng(2)
        return 10.0 + 3.0 * np.sin(2 * np.pi * t / 24.0) + rng.normal(scale=0.3, size=n)

    def test_persistence_backtest_shapes(self):
        series = self._seasonal_series()
        pred, truth = PersistenceForecaster(horizon=1).backtest(series)
        assert pred.shape == truth.shape


class TestEvaluation:
    def test_perfect_forecast(self):
        truth = np.array([1.0, 2.0, 3.0])
        metrics = evaluate_forecast(truth, truth)
        assert metrics.mae == 0.0
        assert metrics.rmse == 0.0
        assert metrics.bias == 0.0

    def test_bias_sign(self):
        truth = np.ones(5)
        metrics = evaluate_forecast(truth + 2.0, truth)
        assert metrics.bias == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ForecastError):
            evaluate_forecast(np.ones(3), np.ones(4))
        with pytest.raises(ForecastError):
            evaluate_forecast(np.array([np.nan, 1.0]), np.array([1.0, 1.0]))


class TestWind:
    def test_power_curve_breakpoints(self):
        farm = WindFarmSimulator(WindFarmConfig(capacity_mw=50.0), seed=0)
        speeds = np.array([0.0, 2.0, 12.0, 20.0, 26.0])
        power = farm.power_curve(speeds)
        assert power[0] == 0.0 and power[1] == 0.0
        assert power[2] == pytest.approx(50.0)
        assert power[3] == pytest.approx(50.0)
        assert power[4] == 0.0  # beyond cut-out

    def test_power_curve_monotone_below_rated(self):
        farm = WindFarmSimulator(seed=0)
        speeds = np.linspace(3.0, 12.0, 20)
        power = farm.power_curve(speeds)
        assert np.all(np.diff(power) >= 0)

    def test_wind_series_nonnegative(self):
        farm = WindFarmSimulator(seed=0)
        speed, power = farm.generate(2000)
        assert speed.min() >= 0
        assert power.min() >= 0
        assert power.max() <= farm.config.capacity_mw

    def test_study_beats_persistence_at_36h(self):
        """The learned 36 h forecast must beat persistence clearly (the [30] claim)."""
        study = WindForecastStudy.run(n_hours=4000, horizon_h=36, seed=0)
        assert study.skill_vs_persistence > 0.15
        assert study.model_metrics.mae < study.persistence_metrics.mae

    def test_config_validation(self):
        with pytest.raises(Exception):
            WindFarmConfig(cut_in_ms=15.0, rated_ms=12.0)
