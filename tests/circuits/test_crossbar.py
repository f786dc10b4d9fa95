"""Printed crossbar layer: Eq. (1) semantics, variation, accounting."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.circuits import (
    BASELINE_PDK,
    DEFAULT_PDK,
    THETA_MIN,
    PrintedCrossbar,
    UniformVariation,
    VariationSampler,
    ideal_sampler,
)


@pytest.fixture
def xb(rng):
    return PrintedCrossbar(4, 3, rng=rng)


class TestForward:
    def test_output_shape(self, xb, rng):
        assert xb(Tensor(rng.uniform(-1, 1, (6, 4)))).shape == (6, 3)

    def test_rejects_wrong_width(self, xb):
        with pytest.raises(ValueError):
            xb(Tensor(np.ones((2, 5))))

    def test_rejects_1d(self, xb):
        with pytest.raises(ValueError):
            xb(Tensor(np.ones(4)))

    def test_ideal_forward_deterministic(self, xb, rng):
        x = Tensor(rng.uniform(-1, 1, (3, 4)))
        assert np.array_equal(xb(x).data, xb(x).data)

    def test_matches_manual_weighted_sum(self, rng):
        xb = PrintedCrossbar(3, 1, rng=rng)
        x = rng.uniform(-1, 1, (5, 3))
        out = xb(Tensor(x)).data
        w = xb.weight_matrix()
        g_b = np.abs(xb.theta_b.data).clip(0, 1.0)
        g = np.abs(xb.theta.data) * (np.abs(xb.theta.data) >= THETA_MIN)
        g_d = np.abs(xb.theta_d.data).clip(THETA_MIN, 1.0)
        denom = g.sum(axis=1) + g_b + g_d
        bias = np.sign(xb.theta_b.data) * g_b / denom
        assert np.allclose(out, x @ w.T + bias)

    def test_weight_rows_sum_below_one(self, rng):
        """Conductance-ratio weights are strictly < 1 in magnitude (Eq. 1)."""
        for seed in range(5):
            xb = PrintedCrossbar(6, 4, rng=np.random.default_rng(seed))
            w = xb.weight_matrix()
            assert np.all(np.abs(w).sum(axis=1) < 1.0)

    def test_negative_theta_inverts_contribution(self, rng):
        xb = PrintedCrossbar(1, 1, rng=rng)
        xb.theta.data = np.array([[0.5]])
        x = Tensor(np.array([[0.8]]))
        positive = xb(x).data[0, 0]
        xb.theta.data = np.array([[-0.5]])
        negative = xb(x).data[0, 0]
        # Flipping the crossing's sign flips the input contribution around
        # the (unchanged) bias term.
        g = 0.5
        denom = g + np.abs(xb.theta_b.data[0]) + np.abs(xb.theta_d.data[0]).clip(THETA_MIN, 1.0)
        contribution = (g / denom) * 0.8
        assert np.isclose(positive - negative, 2 * contribution)
        assert positive > negative


class TestVariation:
    def test_variation_changes_output(self, rng):
        xb = PrintedCrossbar(4, 3, rng=rng)
        xb.sampler = VariationSampler(
            model=UniformVariation(0.1), rng=np.random.default_rng(0)
        )
        x = Tensor(rng.uniform(-1, 1, (3, 4)))
        assert not np.allclose(xb(x).data, xb(x).data)

    def test_variation_output_stays_close(self, rng):
        xb = PrintedCrossbar(4, 3, rng=rng)
        x = Tensor(rng.uniform(-1, 1, (3, 4)))
        nominal = xb(x).data
        xb.sampler = VariationSampler(
            model=UniformVariation(0.1), rng=np.random.default_rng(0)
        )
        varied = xb(x).data
        assert np.max(np.abs(varied - nominal)) < 0.3


class TestGradients:
    def test_gradients_reach_all_parameters(self, xb, rng):
        xb(Tensor(rng.uniform(-1, 1, (3, 4)))).sum().backward()
        assert xb.theta.grad is not None
        assert xb.theta_b.grad is not None
        assert xb.theta_d.grad is not None

    def test_gradcheck_theta(self, rng):
        """Analytic theta gradient matches central finite differences."""
        xb = PrintedCrossbar(3, 2, rng=rng)
        x = rng.uniform(-1, 1, (2, 3))
        eps = 1e-6
        base = xb.theta.data.copy()
        xb.zero_grad()
        xb(Tensor(x)).sum().backward()
        analytic = xb.theta.grad.copy()
        numeric = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            xb.theta.data = base.copy()
            xb.theta.data[idx] += eps
            plus = xb(Tensor(x)).data.sum()
            xb.theta.data = base.copy()
            xb.theta.data[idx] -= eps
            minus = xb(Tensor(x)).data.sum()
            numeric[idx] = (plus - minus) / (2 * eps)
        xb.theta.data = base
        assert np.allclose(analytic, numeric, atol=1e-5)

    def test_pruned_crossing_gets_no_gradient(self, rng):
        xb = PrintedCrossbar(3, 1, rng=rng)
        xb.theta.data[0, 1] = THETA_MIN / 10  # below printable minimum
        xb.zero_grad()
        xb(Tensor(rng.uniform(-1, 1, (2, 3)))).sum().backward()
        assert xb.theta.grad[0, 1] == 0.0


class TestHardwareAccounting:
    def test_input_resistor_count_excludes_pruned(self, rng):
        xb = PrintedCrossbar(4, 2, rng=rng)
        xb.theta.data[:] = 0.5
        xb.theta.data[0, 0] = 0.001
        assert xb.count_input_resistors() == 7

    def test_inverter_count_tracks_negative_crossings(self, rng):
        xb = PrintedCrossbar(4, 2, rng=rng)
        xb.theta.data[:] = 0.5
        xb.theta.data[0, :2] = -0.5
        xb.theta_b.data[:] = 0.2
        assert xb.count_inverters() == 2

    def test_negative_bias_needs_inverter(self, rng):
        xb = PrintedCrossbar(2, 1, rng=rng)
        xb.theta.data[:] = 0.5
        xb.theta_b.data[:] = -0.3
        assert xb.count_inverters() == 1

    def test_resistances_within_pdk_window(self, rng):
        for pdk in (DEFAULT_PDK, BASELINE_PDK):
            xb = PrintedCrossbar(5, 3, pdk=pdk, rng=rng)
            r = xb.printable_resistances()
            assert r.min() >= pdk.crossbar_r_min * 0.999
            assert r.max() <= pdk.crossbar_r_min / THETA_MIN * 1.001

    def test_bias_resistors_include_dummy(self, rng):
        xb = PrintedCrossbar(2, 3, rng=rng)
        xb.theta_b.data[:] = 0.5
        assert xb.count_bias_resistors() == 6  # 3 bias + 3 dummy

    @pytest.mark.parametrize("bad", [(0, 2), (2, 0)])
    def test_rejects_bad_dims(self, bad):
        with pytest.raises(ValueError):
            PrintedCrossbar(*bad)


class TestDrawsAxis:
    """Inside a batched-draws context the leading axis must be the draws
    axis, exactly; a wrong count is a clear ``ValueError``, never a
    silent broadcast or a numpy error from inside the matmul."""

    def _batched_xb(self, rng):
        sampler = VariationSampler(model=UniformVariation(0.1), rng=np.random.default_rng(0))
        return PrintedCrossbar(4, 3, sampler=sampler, rng=rng), sampler

    @pytest.mark.parametrize("lead", [1, 3])
    def test_rejects_wrong_draws_count(self, rng, lead):
        xb, sampler = self._batched_xb(rng)
        with sampler.batched(5):
            with pytest.raises(ValueError, match=f"draws axis {lead} does not match .* 5"):
                xb(Tensor(np.ones((lead, 2, 4))))

    def test_accepts_matching_draws_and_shared_input(self, rng):
        xb, sampler = self._batched_xb(rng)
        with sampler.batched(5):
            assert xb(Tensor(np.ones((5, 2, 4)))).shape == (5, 2, 3)
            assert xb(Tensor(np.ones((2, 4)))).shape == (5, 2, 3)

    def test_draws_axis_outside_batched_context_rejected(self, rng):
        xb, _ = self._batched_xb(rng)
        with pytest.raises(ValueError, match=r"expected \(batch, 4\)"):
            xb(Tensor(np.ones((5, 2, 4))))
