"""Gradient correctness of every Tensor operation vs finite differences."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients


@pytest.fixture
def x(rng):
    return rng.normal(size=(3, 4))


@pytest.fixture
def y(rng):
    return rng.normal(size=(3, 4))


class TestArithmeticGradients:
    def test_add(self, x, y):
        check_gradients(lambda a, b: a + b, [x, y])

    def test_sub(self, x, y):
        check_gradients(lambda a, b: a - b, [x, y])

    def test_mul(self, x, y):
        check_gradients(lambda a, b: a * b, [x, y])

    def test_div(self, x, y):
        check_gradients(lambda a, b: a / (b.abs() + 1.0), [x, y])

    def test_neg(self, x):
        check_gradients(lambda a: -a, [x])

    def test_pow(self, x):
        check_gradients(lambda a: (a.abs() + 0.5) ** 2.5, [x])

    def test_scalar_operand(self, x):
        check_gradients(lambda a: 2.0 * a + 1.0 - a / 4.0, [x])

    def test_rsub_rdiv(self, x):
        check_gradients(lambda a: 1.0 - a, [x])
        check_gradients(lambda a: 1.0 / (a.abs() + 1.0), [x])

    def test_pow_rejects_tensor_exponent(self, x):
        with pytest.raises(TypeError):
            Tensor(x) ** Tensor(x)


class TestBroadcastingGradients:
    def test_add_row_vector(self, rng):
        check_gradients(lambda a, b: a + b, [rng.normal(size=(3, 4)), rng.normal(size=(4,))])

    def test_mul_column_vector(self, rng):
        check_gradients(
            lambda a, b: a * b, [rng.normal(size=(3, 4)), rng.normal(size=(3, 1))]
        )

    def test_scalar_tensor_broadcast(self, rng):
        check_gradients(lambda a, b: a * b, [rng.normal(size=(3, 4)), rng.normal(size=())])

    def test_3d_broadcast(self, rng):
        check_gradients(
            lambda a, b: a + b,
            [rng.normal(size=(2, 3, 4)), rng.normal(size=(3, 1))],
        )

    def test_broadcast_grad_shape_matches_operand(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)


class TestMatmulGradients:
    def test_2d_2d(self, rng):
        check_gradients(
            lambda a, b: a @ b, [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))]
        )

    def test_2d_1d(self, rng):
        check_gradients(lambda a, b: a @ b, [rng.normal(size=(3, 4)), rng.normal(size=(4,))])

    def test_1d_2d(self, rng):
        check_gradients(lambda a, b: a @ b, [rng.normal(size=(4,)), rng.normal(size=(4, 2))])

    def test_batched(self, rng):
        check_gradients(
            lambda a, b: a @ b,
            [rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 2))],
        )

    def test_value_matches_numpy(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        assert np.allclose((Tensor(a) @ Tensor(b)).data, a @ b)


class TestNonlinearityGradients:
    @pytest.mark.parametrize(
        "name", ["exp", "tanh", "sigmoid", "relu", "abs", "sqrt", "log"]
    )
    def test_unary(self, name, rng):
        x = rng.uniform(0.2, 2.0, size=(3, 4))  # positive for log/sqrt; off 0 for relu/abs
        check_gradients(lambda a: getattr(a, name)(), [x])

    def test_tanh_values(self, rng):
        x = rng.normal(size=(5,))
        assert np.allclose(Tensor(x).tanh().data, np.tanh(x))

    def test_sigmoid_values(self, rng):
        x = rng.normal(size=(5,))
        assert np.allclose(Tensor(x).sigmoid().data, 1 / (1 + np.exp(-x)))

    def test_relu_kills_negatives(self):
        out = Tensor([-1.0, 0.0, 2.0]).relu()
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_clip_gradient_mask(self):
        a = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        a.clip(-1.0, 1.0).sum().backward()
        assert np.array_equal(a.grad, [0.0, 1.0, 0.0])

    def test_clip_values(self):
        assert np.array_equal(
            Tensor([-2.0, 0.5, 2.0]).clip(-1.0, 1.0).data, [-1.0, 0.5, 1.0]
        )


class TestReductionGradients:
    def test_sum_all(self, x):
        check_gradients(lambda a: a.sum(), [x])

    @pytest.mark.parametrize("axis", [0, 1])
    def test_sum_axis(self, x, axis):
        check_gradients(lambda a: a.sum(axis=axis), [x])

    def test_sum_keepdims(self, x):
        check_gradients(lambda a: a.sum(axis=1, keepdims=True), [x])

    def test_mean_all(self, x):
        check_gradients(lambda a: a.mean(), [x])

    @pytest.mark.parametrize("axis", [0, 1])
    def test_mean_axis(self, x, axis):
        check_gradients(lambda a: a.mean(axis=axis), [x])

    def test_mean_tuple_axis(self, rng):
        check_gradients(lambda a: a.mean(axis=(0, 2)), [rng.normal(size=(2, 3, 4))])

    def test_max_axis(self, rng):
        # well-separated values so the finite-difference step can't flip argmax
        x = rng.permutation(np.arange(12.0)).reshape(3, 4)
        check_gradients(lambda a: a.max(axis=1), [x])

    def test_min_axis(self, rng):
        x = rng.permutation(np.arange(12.0)).reshape(3, 4)
        check_gradients(lambda a: a.min(axis=1), [x])

    def test_max_tie_splits_gradient(self):
        a = Tensor([[1.0, 1.0, 0.0]], requires_grad=True)
        a.max(axis=1).sum().backward()
        assert np.allclose(a.grad, [[0.5, 0.5, 0.0]])

    def test_var(self, x):
        check_gradients(lambda a: a.var(axis=1), [x])
        assert np.allclose(Tensor(x).var(axis=1).data, x.var(axis=1))


class TestShapeGradients:
    def test_reshape(self, x):
        check_gradients(lambda a: a.reshape(4, 3).tanh(), [x])

    def test_reshape_tuple_arg(self, x):
        assert Tensor(x).reshape((2, 6)).shape == (2, 6)

    def test_transpose_default(self, x):
        check_gradients(lambda a: a.transpose().tanh(), [x])

    def test_transpose_axes(self, rng):
        check_gradients(
            lambda a: a.transpose(1, 2, 0).tanh(), [rng.normal(size=(2, 3, 4))]
        )

    def test_T_property(self, x):
        assert np.allclose(Tensor(x).T.data, x.T)

    def test_getitem_slice(self, x):
        check_gradients(lambda a: a[1:, :2].exp(), [x])

    def test_getitem_fancy(self, x):
        idx = np.array([0, 2])
        check_gradients(lambda a: a[idx].exp(), [x])

    def test_getitem_repeated_index_accumulates(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        idx = np.array([0, 0, 1])
        a[idx].sum().backward()
        assert np.allclose(a.grad, [2.0, 1.0])

    def test_squeeze_unsqueeze(self, rng):
        a = Tensor(rng.normal(size=(3, 1, 4)))
        assert a.squeeze().shape == (3, 4)
        assert a.squeeze(axis=1).shape == (3, 4)
        assert Tensor(rng.normal(size=(3, 4))).unsqueeze(1).shape == (3, 1, 4)
        assert Tensor(rng.normal(size=(3, 4))).unsqueeze(-1).shape == (3, 4, 1)

    def test_unsqueeze_grad(self, x):
        check_gradients(lambda a: a.unsqueeze(0).tanh(), [x])


class TestReshapeGradHandOff:
    """``reshape``'s backward copies the incoming gradient at most once."""

    @staticmethod
    def _accumulated(monkeypatch):
        """Tensors that receive a gradient through ``_accumulate_grad``."""
        seen = []
        inner = Tensor._accumulate_grad

        def spy(self, grad):
            seen.append(self)
            inner(self, grad)

        monkeypatch.setattr(Tensor, "_accumulate_grad", spy)
        return seen

    def test_copying_reshape_installs_its_copy(self, monkeypatch, x, y):
        a = Tensor(x, requires_grad=True)
        b = a.reshape(4, 3)
        # ``b``'s gradient arrives transposed, so reshaping it back copies.
        loss = (b.T.tanh() * y).sum()
        seen = self._accumulated(monkeypatch)
        loss.backward()
        assert not b.grad.flags.c_contiguous
        assert all(t is not a for t in seen)  # the reshape's copy, as is
        assert not np.may_share_memory(a.grad, b.grad)
        expected = ((1 - np.tanh(x.reshape(4, 3).T) ** 2) * y).T.reshape(3, 4)
        np.testing.assert_allclose(a.grad, expected, rtol=1e-12)
        (a.reshape(4, 3).T.tanh() * y).sum().backward()  # adds into that buffer
        np.testing.assert_allclose(a.grad, 2 * expected, rtol=1e-12)
        check_gradients(lambda t: (t.reshape(4, 3).T.tanh() * y).sum(), [x])

    def test_view_reshape_copies_once(self, monkeypatch, x):
        a = Tensor(x, requires_grad=True)
        b = a.reshape(12)
        seen = self._accumulated(monkeypatch)
        b.tanh().sum().backward()
        assert b.grad.flags.c_contiguous  # the reshape back is a view...
        assert any(t is a for t in seen)  # ...so accumulation copies it
        assert not np.may_share_memory(a.grad, b.grad)
        np.testing.assert_allclose(a.grad, 1 - np.tanh(x) ** 2, rtol=1e-12)


class TestComparisons:
    def test_comparisons_return_numpy(self):
        a = Tensor([1.0, 2.0, 3.0])
        assert np.array_equal(a > 2.0, [False, False, True])
        assert np.array_equal(a < 2.0, [True, False, False])
        assert np.array_equal(a >= 2.0, [False, True, True])
        assert np.array_equal(a <= 2.0, [True, True, False])
