"""Adam / AdamW update rules and convergence."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import Parameter
from repro.optim import Adam, AdamW


def quadratic_loss(p: Parameter) -> Tensor:
    target = Tensor(np.array([1.0, -2.0, 3.0]))
    diff = p - target
    return (diff * diff).sum()


def run_steps(optimizer, param, steps: int = 200):
    for _ in range(steps):
        optimizer.zero_grad()
        quadratic_loss(param).backward()
        optimizer.step()
    return param.data


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(3))
        run_steps(Adam([p], lr=0.1), p, steps=300)
        assert np.allclose(p.data, [1.0, -2.0, 3.0], atol=1e-3)

    def test_first_step_magnitude_is_lr(self):
        # Adam's bias-corrected first step is ±lr for any gradient scale.
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.05)
        opt.zero_grad()
        (p * 1234.5).sum().backward()
        opt.step()
        assert np.isclose(abs(p.data[0]), 0.05, rtol=1e-6)

    @pytest.mark.parametrize(
        "bad",
        [{"betas": (1.0, 0.999)}, {"betas": (0.9, -0.1)}, {"eps": 0.0}, {"lr": 0.0}, {"lr": -1.0}],
    )
    def test_rejects_bad_hyperparameters(self, bad):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], **bad)

    def test_skips_params_without_grad(self):
        p = Parameter(np.array([5.0]))
        Adam([p], lr=0.1).step()
        assert p.data[0] == 5.0

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)


class TestAdamW:
    def test_decay_is_decoupled(self):
        # With zero gradient, AdamW still shrinks weights; Adam with
        # coupled decay routes decay through the moment estimates.
        p = Parameter(np.array([1.0]))
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        (p * 0.0).sum().backward()
        opt.step()
        assert np.isclose(p.data[0], 1.0 - 0.1 * 0.5 * 1.0)

    def test_default_weight_decay_is_001(self):
        opt = AdamW([Parameter(np.zeros(1))])
        assert opt.weight_decay == 0.01

    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(3))
        run_steps(AdamW([p], lr=0.1), p, steps=300)
        assert np.allclose(p.data, [1.0, -2.0, 3.0], atol=0.05)

    def test_differs_from_adam_with_decay(self):
        pa, pw = Parameter(np.array([5.0])), Parameter(np.array([5.0]))
        adam = Adam([pa], lr=0.1, weight_decay=0.1)
        adamw = AdamW([pw], lr=0.1, weight_decay=0.1)
        for opt, p in ((adam, pa), (adamw, pw)):
            opt.zero_grad()
            (p * 2.0).sum().backward()
            opt.step()
        assert not np.isclose(pa.data[0], pw.data[0])
