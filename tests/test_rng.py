"""Tests for repro.rng (seed derivation and named streams)."""

import numpy as np

from repro.rng import DEFAULT_SEED, derive_seed, make_rng


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "weather") == derive_seed(42, "weather")

    def test_distinct_names_give_distinct_seeds(self):
        assert derive_seed(42, "weather") != derive_seed(42, "workload")

    def test_distinct_base_seeds_give_distinct_seeds(self):
        assert derive_seed(1, "weather") != derive_seed(2, "weather")

    def test_multiple_name_components(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "ab")
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_non_negative_and_bounded(self):
        for seed in (0, 1, 123456789, -5):
            value = derive_seed(seed, "x")
            assert 0 <= value < 2**63


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(7, "grid").uniform(size=5)
        b = make_rng(7, "grid").uniform(size=5)
        np.testing.assert_allclose(a, b)

    def test_different_names_differ(self):
        a = make_rng(7, "grid").uniform(size=5)
        b = make_rng(7, "weather").uniform(size=5)
        assert not np.allclose(a, b)

    def test_none_uses_default_seed(self):
        a = make_rng(None).uniform(size=3)
        b = make_rng(DEFAULT_SEED).uniform(size=3)
        np.testing.assert_allclose(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_generator_with_names_derives_child(self):
        gen = np.random.default_rng(0)
        child = make_rng(gen, "x")
        assert child is not gen
