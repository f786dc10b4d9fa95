"""Elman RNN reference model."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import ElmanCell, ElmanRNN


class TestElmanCell:
    def test_step_shape(self, rng):
        cell = ElmanCell(3, 5, rng=rng)
        h = cell(Tensor(np.ones((2, 3))), cell.initial_state(2))
        assert h.shape == (2, 5)

    def test_matches_manual_update(self, rng):
        cell = ElmanCell(3, 4, rng=rng)
        x = rng.normal(size=(2, 3))
        h = rng.normal(size=(2, 4))
        out = cell(Tensor(x), Tensor(h)).data
        expected = np.tanh(
            x @ cell.weight_ih.data.T
            + cell.bias_ih.data
            + h @ cell.weight_hh.data.T
            + cell.bias_hh.data
        )
        assert np.allclose(out, expected)

    def test_initial_state_zero(self, rng):
        cell = ElmanCell(3, 4, rng=rng)
        assert np.all(cell.initial_state(5).data == 0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ElmanCell(0, 4)
        with pytest.raises(ValueError):
            ElmanCell(3, -1)


class TestElmanRNN:
    def test_output_shapes(self, rng):
        rnn = ElmanRNN(1, 6, num_layers=2, rng=rng)
        out, states = rnn(Tensor(np.ones((4, 10, 1))))
        assert out.shape == (4, 10, 6)
        assert len(states) == 2
        assert all(s.shape == (4, 6) for s in states)

    def test_last_output_equals_final_state(self, rng):
        rnn = ElmanRNN(1, 6, num_layers=2, rng=rng)
        out, states = rnn(Tensor(rng.normal(size=(3, 7, 1))))
        assert np.allclose(out.data[:, -1, :], states[-1].data)

    def test_custom_initial_state_changes_output(self, rng):
        rnn = ElmanRNN(1, 4, num_layers=1, rng=rng)
        x = Tensor(rng.normal(size=(2, 5, 1)))
        out_zero, _ = rnn(x)
        h0 = [Tensor(np.ones((2, 4)))]
        out_ones, _ = rnn(x, h0=h0)
        assert not np.allclose(out_zero.data, out_ones.data)

    def test_wrong_h0_length_raises(self, rng):
        rnn = ElmanRNN(1, 4, num_layers=2, rng=rng)
        with pytest.raises(ValueError):
            rnn(Tensor(np.ones((2, 5, 1))), h0=[Tensor(np.zeros((2, 4)))])

    def test_rejects_2d_input(self, rng):
        rnn = ElmanRNN(1, 4, rng=rng)
        with pytest.raises(ValueError):
            rnn(Tensor(np.ones((2, 5))))

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            ElmanRNN(1, 4, num_layers=0)

    def test_gradients_flow_to_all_layers(self, rng):
        rnn = ElmanRNN(1, 4, num_layers=2, rng=rng)
        out, _ = rnn(Tensor(rng.normal(size=(2, 6, 1))))
        out.sum().backward()
        for _, p in rnn.named_parameters():
            assert p.grad is not None

    def test_deterministic_forward(self, rng):
        rnn = ElmanRNN(1, 4, rng=rng)
        x = Tensor(rng.normal(size=(2, 5, 1)))
        a, _ = rnn(x)
        b, _ = rnn(x)
        assert np.array_equal(a.data, b.data)

    def test_output_bounded_by_tanh(self, rng):
        rnn = ElmanRNN(1, 4, rng=rng)
        out, _ = rnn(Tensor(rng.normal(size=(2, 20, 1)) * 100))
        assert np.all(np.abs(out.data) <= 1.0)


class TestElmanInitialStateShapes:
    """Per-layer ``h0`` must be exactly ``(batch, hidden)``: a state that
    would broadcast across the batch, or a mismatched batch or width,
    raises a ``ValueError`` naming the layer before anything runs."""

    def _rnn(self, rng):
        return ElmanRNN(1, 4, num_layers=2, rng=rng)

    def test_row_state_does_not_broadcast_over_batch(self, rng):
        rnn = self._rnn(rng)
        h0 = [Tensor(np.zeros((3, 4))), Tensor(np.zeros((1, 4)))]
        with pytest.raises(ValueError, match=r"h0\[1\].*\(3, 4\)"):
            rnn(Tensor(np.ones((3, 5, 1))), h0=h0)

    def test_vector_state_rejected(self, rng):
        rnn = self._rnn(rng)
        h0 = [Tensor(np.zeros(4)), Tensor(np.zeros((3, 4)))]
        with pytest.raises(ValueError, match=r"h0\[0\].*\(3, 4\)"):
            rnn(Tensor(np.ones((3, 5, 1))), h0=h0)

    def test_batch_mismatch_names_layer(self, rng):
        rnn = self._rnn(rng)
        h0 = [Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4)))]
        with pytest.raises(ValueError, match=r"h0\[1\].*\(3, 4\)"):
            rnn(Tensor(np.ones((3, 5, 1))), h0=h0)

    def test_hidden_mismatch_names_layer(self, rng):
        rnn = self._rnn(rng)
        h0 = [Tensor(np.zeros((3, 5))), Tensor(np.zeros((3, 4)))]
        with pytest.raises(ValueError, match=r"h0\[0\].*\(3, 4\)"):
            rnn(Tensor(np.ones((3, 5, 1))), h0=h0)


class TestInputWidth:
    """The input's feature axis must equal ``input_size``; a mismatch is
    a ``ValueError`` naming the expected width, raised before any GEMM."""

    @pytest.mark.parametrize("width", [3, 2])
    def test_wrong_feature_size_rejected(self, rng, width):
        rnn = ElmanRNN(1, 4, rng=rng)
        with pytest.raises(ValueError, match=r"\(batch, time, 1\).*input_size"):
            rnn(Tensor(np.ones((2, 5, width))))

    def test_matching_feature_size_accepted(self, rng):
        rnn = ElmanRNN(3, 4, rng=rng)
        out, states = rnn(Tensor(np.ones((2, 5, 3))))
        assert out.shape == (2, 5, 4) and len(states) == 2
