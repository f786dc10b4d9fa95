"""Variation models and the reparameterisation sampler."""

import numpy as np
import pytest

from repro.circuits import (
    GMMVariation,
    NoVariation,
    UniformVariation,
    VariationSampler,
    ideal_sampler,
)


class TestUniformVariation:
    def test_within_band(self, rng):
        eps = UniformVariation(0.1).sample((10000,), rng)
        assert eps.min() >= 0.9 and eps.max() <= 1.1

    def test_mean_near_one(self, rng):
        eps = UniformVariation(0.1).sample((20000,), rng)
        assert abs(eps.mean() - 1.0) < 0.01

    def test_spread(self):
        assert UniformVariation(0.1).spread() == 0.1

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
    def test_rejects_bad_delta(self, bad):
        with pytest.raises(ValueError):
            UniformVariation(bad)


class TestGMMVariation:
    def test_shape_and_positivity(self, rng):
        eps = GMMVariation().sample((100, 3), rng)
        assert eps.shape == (100, 3)
        assert np.all(eps > 0)

    def test_bimodal_mean(self, rng):
        gmm = GMMVariation(weights=(0.5, 0.5), means=(0.9, 1.1), sigmas=(0.01, 0.01))
        eps = gmm.sample((20000,), rng)
        assert abs(eps.mean() - 1.0) < 0.01

    def test_spread_formula(self):
        gmm = GMMVariation(weights=(1.0,), means=(1.0,), sigmas=(0.05,))
        assert np.isclose(gmm.spread(), 0.05)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"weights": (0.5, 0.6)},  # sum != 1
            {"weights": (1.0,), "means": (1.0, 1.1)},  # length mismatch
            {"weights": (1.5, -0.5)},  # negative weight
        ],
    )
    def test_rejects_bad_mixture(self, kwargs):
        base = dict(weights=(0.7, 0.3), means=(0.98, 1.05), sigmas=(0.04, 0.08))
        with pytest.raises(ValueError):
            GMMVariation(**{**base, **kwargs})


class TestNoVariation:
    def test_identity(self, rng):
        assert np.all(NoVariation().sample((5, 5), rng) == 1.0)
        assert NoVariation().spread() == 0.0


class TestVariationSampler:
    def test_mu_in_band(self):
        s = VariationSampler(mu_low=1.0, mu_high=1.3, rng=np.random.default_rng(0))
        mu = s.mu((1000,))
        assert mu.min() >= 1.0 and mu.max() <= 1.3

    def test_v0_in_band(self):
        s = VariationSampler(v0_max=0.1, rng=np.random.default_rng(0))
        v0 = s.initial_voltage((1000,))
        assert v0.min() >= 0.0 and v0.max() <= 0.1

    def test_v0_zero_when_disabled(self):
        s = VariationSampler(v0_max=0.0)
        assert np.all(s.initial_voltage((10,)) == 0.0)

    def test_reseed_reproduces(self):
        s = VariationSampler(rng=np.random.default_rng(0))
        s.reseed(42)
        a = s.epsilon((5,))
        s.reseed(42)
        b = s.epsilon((5,))
        assert np.array_equal(a, b)

    def test_ideal_sampler_is_deterministic(self):
        s = ideal_sampler()
        assert np.all(s.epsilon((4,)) == 1.0)
        assert np.all(s.mu((4,)) == 1.0)
        assert np.all(s.initial_voltage((4,)) == 0.0)

    @pytest.mark.parametrize("kwargs", [{"mu_low": 0.0}, {"mu_low": 1.4, "mu_high": 1.2}, {"v0_max": -0.1}])
    def test_rejects_bad_bounds(self, kwargs):
        with pytest.raises(ValueError):
            VariationSampler(**kwargs)


def _sampler(seed: int = 0) -> VariationSampler:
    return VariationSampler(model=UniformVariation(0.1), rng=np.random.default_rng(seed))


class TestBatchedDraws:
    """The batched-draws context (vectorized Monte-Carlo engine)."""

    def test_draws_property_tracks_context(self):
        s = _sampler()
        assert s.draws is None
        with s.batched(4):
            assert s.draws == 4
        assert s.draws is None

    def test_context_cleared_on_error(self):
        s = _sampler()
        with pytest.raises(RuntimeError, match="boom"):
            with s.batched(3):
                raise RuntimeError("boom")
        assert s.draws is None

    def test_nesting_rejected(self):
        s = _sampler()
        with s.batched(2):
            with pytest.raises(RuntimeError):
                with s.batched(2):
                    pass

    def test_rejects_nonpositive_draws(self):
        with pytest.raises(ValueError):
            _sampler().spawn_streams(0)

    @pytest.mark.parametrize("method,shape", [
        ("epsilon", (3, 2)), ("mu", (5,)), ("initial_voltage", (4, 3)),
    ])
    def test_leading_draws_axis(self, method, shape):
        s = _sampler()
        with s.batched(6):
            out = getattr(s, method)(shape)
        assert out.shape == (6,) + shape

    def test_v0_zero_stays_zero_batched(self):
        s = VariationSampler(v0_max=0.0, rng=np.random.default_rng(0))
        with s.batched(3):
            v0 = s.initial_voltage((4,))
        assert v0.shape == (3, 4) and np.all(v0 == 0.0)

    def test_batched_draws_equal_per_stream_sequential_draws(self):
        """Row d of the batched stack is exactly what draw d's own
        child stream yields sequentially — the bit-equivalence the MC
        backends rely on."""
        shapes = [(3, 2), (4,), (2, 2)]
        with _sampler(seed=5).batched(4) as s:
            batched = [s.epsilon(shape) for shape in shapes]
            mu = s.mu((3,))
            v0 = s.initial_voltage((2,))

        oracle = _sampler(seed=5)  # identically seeded → same children
        for d, stream in enumerate(oracle.spawn_streams(4)):
            oracle.rng = stream
            for got, shape in zip(batched, shapes):
                np.testing.assert_array_equal(got[d], oracle.epsilon(shape))
            np.testing.assert_array_equal(mu[d], oracle.mu((3,)))
            np.testing.assert_array_equal(v0[d], oracle.initial_voltage((2,)))

    def test_same_seed_same_batched_draws(self):
        with _sampler(seed=3).batched(3) as s:
            a = s.epsilon((4, 4))
        with _sampler(seed=3).batched(3) as s:
            b = s.epsilon((4, 4))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_distinct_draws(self):
        with _sampler(seed=0).batched(3) as s:
            a = s.epsilon((8, 8))
        with _sampler(seed=1).batched(3) as s:
            b = s.epsilon((8, 8))
        assert not np.array_equal(a, b)
        # Draws within one context are mutually independent too.
        assert not np.array_equal(a[0], a[1])
