"""Construction, introspection and bookkeeping of Tensor."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.data.dtype == np.float64

    def test_from_scalar(self):
        t = Tensor(2.5)
        assert t.shape == ()
        assert t.item() == 2.5

    def test_from_int_array_coerces_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.data.dtype == np.float64

    def test_from_tensor_shares_nothing_graphwise(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor(a)
        assert not b.requires_grad

    def test_zeros_ones_eye_full(self):
        assert np.array_equal(Tensor.zeros(2, 3).data, np.zeros((2, 3)))
        assert np.array_equal(Tensor.ones(4).data, np.ones(4))
        assert np.array_equal(Tensor.eye(3).data, np.eye(3))
        assert np.array_equal(Tensor.full((2, 2), 7.0).data, np.full((2, 2), 7.0))

    def test_requires_grad_flag(self):
        assert Tensor([1.0], requires_grad=True).requires_grad
        assert not Tensor([1.0]).requires_grad


class TestIntrospection:
    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.size == 24
        assert len(t) == 2

    def test_repr_mentions_grad(self):
        assert "requires_grad=True" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_item_rejects_non_scalar(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_numpy_returns_copy(self):
        t = Tensor([1.0, 2.0])
        arr = t.numpy()
        arr[0] = 99.0
        assert t.data[0] == 1.0

    def test_detach_breaks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        b = (a * 2.0).detach()
        assert not b.requires_grad
        assert b._backward_fn is None


class TestGradBookkeeping:
    def test_zero_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * a).sum().backward()
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None

    def test_grad_accumulates_across_backwards(self):
        a = Tensor([3.0], requires_grad=True)
        (a * 2.0).backward()
        (a * 2.0).backward()
        assert np.allclose(a.grad, [4.0])

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_non_scalar_needs_grad_argument(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2.0).backward()

    def test_backward_with_explicit_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 3.0).backward(np.array([1.0, 10.0]))
        assert np.allclose(a.grad, [3.0, 30.0])


class TestNoGrad:
    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            b = a * 2.0
        assert not b.requires_grad

    def test_no_grad_blocks_new_tensors(self):
        with no_grad():
            t = Tensor([1.0], requires_grad=True)
        assert not t.requires_grad

    def test_no_grad_restores_on_exception(self):
        from repro.autograd import is_grad_enabled

        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()
