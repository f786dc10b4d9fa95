"""Linear, the module list and the initialiser."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import Linear, ModuleList, init


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(4, 3, rng=rng)
        assert layer(Tensor(np.ones((5, 4)))).shape == (5, 3)

    def test_matches_manual_affine(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(2, 4))
        expected = x @ layer.weight.data.T + layer.bias.data
        assert np.allclose(layer(Tensor(x)).data, expected)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert layer(Tensor(np.zeros((2, 4)))).data.sum() == 0.0

    def test_gradients_reach_parameters(self, rng):
        layer = Linear(4, 3, rng=rng)
        layer(Tensor(rng.normal(size=(2, 4)))).sum().backward()
        assert layer.weight.grad is not None and layer.bias.grad is not None

    def test_batched_3d_input(self, rng):
        layer = Linear(4, 3, rng=rng)
        assert layer(Tensor(np.ones((2, 5, 4)))).shape == (2, 5, 3)

    @pytest.mark.parametrize("bad", [(0, 3), (3, 0), (-1, 2)])
    def test_rejects_bad_dims(self, bad):
        with pytest.raises(ValueError):
            Linear(*bad)

    def test_seeded_init_reproducible(self):
        a = Linear(4, 3, rng=np.random.default_rng(7))
        b = Linear(4, 3, rng=np.random.default_rng(7))
        assert np.array_equal(a.weight.data, b.weight.data)


class TestContainers:
    def test_modulelist_append_and_iterate(self, rng):
        first, second = Linear(2, 2, rng=rng), Linear(2, 3, rng=rng)
        ml = ModuleList([first])
        ml.append(second)
        assert len(ml) == 2
        assert ml[1] is second
        assert ml[:1] == [first]
        assert list(ml) == [first, second]

    def test_modulelist_parameters_registered(self, rng):
        ml = ModuleList([Linear(2, 3, rng=rng), Linear(3, 1, rng=rng)])
        assert ml.num_parameters() == (2 * 3 + 3) + (3 + 1)

    def test_modulelist_forward_raises(self):
        with pytest.raises(NotImplementedError):
            ModuleList()(1)


class TestInit:
    def test_xavier_uniform_bound(self, rng):
        w = init.xavier_uniform((100, 50), rng)
        bound = np.sqrt(6.0 / 150)
        assert np.all(np.abs(w) <= bound)

    def test_fans_reject_empty_shape(self, rng):
        with pytest.raises(ValueError):
            init.xavier_uniform((), rng)
