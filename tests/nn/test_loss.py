"""The cross-entropy loss."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients
from repro.nn import cross_entropy
from repro.autograd import log_softmax


class TestCrossEntropy:
    def test_matches_manual(self, rng):
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        logp = log_softmax(Tensor(logits), axis=-1).data
        expected = -logp[np.arange(4), labels].mean()
        assert np.isclose(cross_entropy(Tensor(logits), labels).item(), expected)

    def test_perfect_prediction_near_zero(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = cross_entropy(logits, [0, 1])
        assert loss.item() < 1e-6

    def test_uniform_logits_log_k(self):
        k = 5
        loss = cross_entropy(Tensor(np.zeros((3, k))), [0, 1, 2])
        assert np.isclose(loss.item(), np.log(k))

    def test_gradients(self, rng):
        labels = np.array([0, 2, 1])
        check_gradients(
            lambda a: cross_entropy(a, labels), [rng.normal(size=(3, 4))]
        )

    def test_rejects_label_out_of_range(self, rng):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(rng.normal(size=(2, 3))), [0, 3])

    def test_rejects_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(rng.normal(size=(2, 3))), [0, 1, 0])

    def test_rejects_1d_logits(self, rng):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(rng.normal(size=3)), [0])
