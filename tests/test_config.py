"""Tests for repro.config (validation helpers and shared configs)."""

import pytest

from repro.config import (
    FacilityConfig,
    SiteConfig,
    config_replace,
    require_fraction,
    require_in_range,
    require_non_negative,
    require_positive,
)
from repro.errors import ConfigurationError


class TestValidators:
    def test_require_positive_accepts(self):
        assert require_positive(0.5, "x") == 0.5

    def test_require_positive_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            require_positive(0.0, "x")

    def test_require_non_negative(self):
        assert require_non_negative(0.0, "x") == 0.0
        with pytest.raises(ConfigurationError):
            require_non_negative(-0.1, "x")

    def test_require_fraction(self):
        assert require_fraction(1.0, "x") == 1.0
        assert require_fraction(0.0, "x") == 0.0
        with pytest.raises(ConfigurationError):
            require_fraction(1.2, "x")

    def test_require_in_range(self):
        assert require_in_range(5.0, 0.0, 10.0, "x") == 5.0
        with pytest.raises(ConfigurationError):
            require_in_range(11.0, 0.0, 10.0, "x")


class TestSiteConfig:
    def test_defaults_valid(self):
        site = SiteConfig()
        assert site.grid_region == "ISO-NE"

    def test_rejects_empty_name(self):
        with pytest.raises(ConfigurationError):
            SiteConfig(name="")

    def test_rejects_bad_latitude(self):
        with pytest.raises(ConfigurationError):
            SiteConfig(latitude_deg=120.0)

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ConfigurationError):
            SiteConfig(seasonal_temperature_amplitude_c=-1.0)


class TestFacilityConfig:
    def test_total_gpus(self):
        facility = FacilityConfig(n_nodes=10, gpus_per_node=4)
        assert facility.total_gpus == 40

    def test_default_is_supercloud_scale(self):
        facility = FacilityConfig()
        assert facility.total_gpus >= 500

    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigurationError):
            FacilityConfig(n_nodes=0)

    def test_rejects_pue_below_one(self):
        with pytest.raises(ConfigurationError):
            FacilityConfig(baseline_pue=0.9)

    def test_rejects_negative_idle_power(self):
        with pytest.raises(ConfigurationError):
            FacilityConfig(node_idle_power_w=-5.0)


class TestConfigHelpers:

    def test_config_replace(self):
        original = FacilityConfig(n_nodes=3, gpus_per_node=2)
        updated = config_replace(original, n_nodes=5)
        assert updated.n_nodes == 5
        assert original.n_nodes == 3

    def test_config_replace_unknown_field(self):
        with pytest.raises(ConfigurationError, match="unknown config field"):
            config_replace(FacilityConfig(), not_a_field=1)
