"""Printed tanh activation circuit."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.circuits import PrintedTanh, UniformVariation, VariationSampler


class TestForward:
    def test_shape(self, rng):
        act = PrintedTanh(3, rng=rng)
        assert act(Tensor(np.zeros((5, 3)))).shape == (5, 3)

    def test_matches_formula(self, rng):
        act = PrintedTanh(2, rng=rng)
        x = rng.normal(size=(4, 2))
        out = act(Tensor(x)).data
        expected = act.eta1.data + act.eta2.data * np.tanh(
            (x - act.eta3.data) * act.eta4.data
        )
        assert np.allclose(out, expected)

    def test_output_bounded_by_eta(self, rng):
        act = PrintedTanh(3, rng=rng)
        out = act(Tensor(rng.normal(size=(100, 3)) * 100)).data
        bound = np.abs(act.eta1.data) + np.abs(act.eta2.data)
        assert np.all(np.abs(out) <= bound + 1e-9)

    def test_monotone_in_input(self, rng):
        act = PrintedTanh(1, rng=rng)
        xs = np.linspace(-2, 2, 50).reshape(-1, 1)
        out = act(Tensor(xs)).data[:, 0]
        assert np.all(np.diff(out) > 0)  # eta2, eta4 init positive

    def test_rejects_wrong_width(self, rng):
        act = PrintedTanh(3, rng=rng)
        with pytest.raises(ValueError):
            act(Tensor(np.zeros((2, 4))))

    def test_rejects_zero_neurons(self):
        with pytest.raises(ValueError):
            PrintedTanh(0)


class TestTraining:
    def test_gradients_reach_all_eta(self, rng):
        act = PrintedTanh(3, rng=rng)
        act(Tensor(rng.normal(size=(4, 3)))).sum().backward()
        for p in (act.eta1, act.eta2, act.eta3, act.eta4):
            assert p.grad is not None

    def test_eta_gradcheck(self, rng):
        act = PrintedTanh(2, rng=rng)
        x = rng.normal(size=(3, 2))
        act.zero_grad()
        act(Tensor(x)).sum().backward()
        eps = 1e-6
        for p in (act.eta1, act.eta2, act.eta3, act.eta4):
            base = p.data.copy()
            numeric = np.zeros_like(base)
            for i in range(base.size):
                p.data = base.copy()
                p.data[i] += eps
                plus = act(Tensor(x)).data.sum()
                p.data = base.copy()
                p.data[i] -= eps
                minus = act(Tensor(x)).data.sum()
                numeric[i] = (plus - minus) / (2 * eps)
            p.data = base
            assert np.allclose(p.grad, numeric, atol=1e-5)


class TestVariation:
    def test_variation_perturbs_transfer(self, rng):
        act = PrintedTanh(2, rng=rng)
        act.sampler = VariationSampler(
            model=UniformVariation(0.1), rng=np.random.default_rng(0)
        )
        x = Tensor(rng.normal(size=(3, 2)))
        assert not np.allclose(act(x).data, act(x).data)


class TestDrawsAxis:
    """Inside a batched-draws context the leading axis must be the draws
    axis, exactly; a wrong count is a clear ``ValueError``, never a
    silent broadcast or a numpy broadcast error."""

    def _batched_act(self, rng):
        sampler = VariationSampler(model=UniformVariation(0.1), rng=np.random.default_rng(0))
        return PrintedTanh(3, sampler=sampler, rng=rng), sampler

    @pytest.mark.parametrize("lead", [1, 3])
    def test_rejects_wrong_draws_count(self, rng, lead):
        act, sampler = self._batched_act(rng)
        with sampler.batched(5):
            with pytest.raises(ValueError, match=f"draws axis {lead} does not match .* 5"):
                act(Tensor(np.zeros((lead, 2, 3))))

    def test_accepts_matching_draws_and_shared_input(self, rng):
        act, sampler = self._batched_act(rng)
        with sampler.batched(5):
            assert act(Tensor(np.zeros((5, 2, 3)))).shape == (5, 2, 3)
            assert act(Tensor(np.zeros((2, 3)))).shape == (5, 2, 3)

    def test_draws_axis_outside_batched_context_rejected(self, rng):
        act, _ = self._batched_act(rng)
        with pytest.raises(ValueError, match=r"expected \(batch, 3\)"):
            act(Tensor(np.zeros((5, 2, 3))))
