"""Free-function graph builders and the log-softmax family."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    check_gradients,
    log_softmax,
    logsumexp,
    maximum,
    minimum,
    outer,
    stack,
    where,
)


class TestStackConcat:
    def test_stack_values(self, rng):
        parts = [rng.normal(size=(2, 3)) for _ in range(4)]
        out = stack([Tensor(p) for p in parts], axis=1)
        assert np.allclose(out.data, np.stack(parts, axis=1))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_stack_gradients(self, rng, axis):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        check_gradients(lambda p, q: stack([p, q], axis=axis).tanh(), [a, b])

    def test_stack_accepts_raw_arrays(self, rng):
        out = stack([rng.normal(size=3), rng.normal(size=3)])
        assert out.shape == (2, 3)


class TestWhereMaxMin:
    def test_where_values(self):
        out = where([True, False], Tensor([1.0, 1.0]), Tensor([2.0, 2.0]))
        assert np.array_equal(out.data, [1.0, 2.0])

    def test_where_gradients(self, rng):
        a, b = rng.normal(size=(4,)), rng.normal(size=(4,))
        cond = a > 0
        check_gradients(lambda p, q: where(cond, p * 2.0, q * 3.0), [a, b])

    def test_maximum_minimum_values(self, rng):
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert np.allclose(maximum(Tensor(a), Tensor(b)).data, np.maximum(a, b))
        assert np.allclose(minimum(Tensor(a), Tensor(b)).data, np.minimum(a, b))

    def test_maximum_gradients(self, rng):
        a, b = rng.normal(size=5), rng.normal(size=5)
        b += 0.5 * np.sign(b - a)  # separate values so FD is stable
        check_gradients(lambda p, q: maximum(p, q), [a, b])


class TestSoftmaxFamily:
    def test_softmax_sums_to_one(self, rng):
        out = log_softmax(Tensor(rng.normal(size=(4, 6)) * 10), axis=-1).exp()
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_softmax_stability_large_logits(self):
        out = log_softmax(Tensor([[1000.0, 1000.0, 0.0]]), axis=-1).exp()
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data[0, :2], 0.5, atol=1e-6)

    def test_log_softmax_matches_scipy(self, rng):
        from scipy.special import log_softmax as scipy_ls

        x = rng.normal(size=(3, 5))
        assert np.allclose(log_softmax(Tensor(x), axis=-1).data, scipy_ls(x, axis=-1))

    def test_softmax_gradients(self, rng):
        check_gradients(lambda a: log_softmax(a, axis=-1).exp(), [rng.normal(size=(3, 4))])

    def test_log_softmax_gradients(self, rng):
        check_gradients(lambda a: log_softmax(a, axis=-1), [rng.normal(size=(3, 4))])

    def test_logsumexp_values(self, rng):
        from scipy.special import logsumexp as scipy_lse

        x = rng.normal(size=(3, 5))
        assert np.allclose(logsumexp(Tensor(x), axis=1).data, scipy_lse(x, axis=1))

    def test_logsumexp_keepdims(self, rng):
        out = logsumexp(Tensor(rng.normal(size=(3, 5))), axis=1, keepdims=True)
        assert out.shape == (3, 1)

    def test_logsumexp_gradients(self, rng):
        check_gradients(lambda a: logsumexp(a, axis=-1), [rng.normal(size=(3, 4))])


class TestOneHotOuter:
    def test_outer_values(self, rng):
        a, b = rng.normal(size=3), rng.normal(size=4)
        assert np.allclose(outer(Tensor(a), Tensor(b)).data, np.outer(a, b))

    def test_outer_gradients(self, rng):
        check_gradients(
            lambda p, q: outer(p, q), [rng.normal(size=3), rng.normal(size=4)]
        )

    def test_outer_rejects_2d(self, rng):
        with pytest.raises(ValueError):
            outer(Tensor(rng.normal(size=(2, 2))), Tensor(rng.normal(size=2)))
