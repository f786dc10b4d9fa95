"""The fused Elman layer (``repro.nn.rnn._ElmanScan``) against its oracle.

:class:`~repro.nn.ElmanRNN` runs each layer over the whole sequence as
one autograd node.  The oracle is :class:`~repro.nn.ElmanCell` stepped
by hand, layer inside step, with the top layer's outputs ``stack``ed —
the node-per-op graph the fused layer replaces.  Forwards must be
bit-equal (float64 and float32), every gradient must agree to 1e-12
relative, the analytic backward must pass central finite differences,
``no_grad`` must build no graph, and the classifier's graph size must
not grow with the sequence length.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad, stack, use_precision
from repro.autograd.grad_check import check_gradients
from repro.core.models import ElmanClassifier
from repro.nn import ElmanRNN
from repro.nn.rnn import _ElmanScan


def _stepped(rnn, x, h0=None):
    """Oracle: step every ``ElmanCell`` by hand, as the unfused RNN did."""
    batch, steps, _ = x.shape
    states = list(h0) if h0 is not None else [c.initial_state(batch) for c in rnn.cells]
    top = []
    for t in range(steps):
        inp = x[:, t, :]
        for layer, cell in enumerate(rnn.cells):
            states[layer] = cell(inp, states[layer])
            inp = states[layer]
        top.append(inp)
    return stack(top, axis=1), states


def _graph_nodes(out: Tensor) -> int:
    """Number of unique tensors reachable from ``out`` through the graph."""
    seen, todo = set(), [out]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        todo.extend(node._parents)
    return len(seen)


class TestForwardBitEqual:
    @pytest.mark.parametrize("batch", [1, 54])
    @pytest.mark.parametrize("steps", [1, 64])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_matches_stepped_cells(self, batch, steps, layers, rng_factory):
        rng = rng_factory(batch * 1000 + steps * 10 + layers)
        rnn = ElmanRNN(1, 8, num_layers=layers, rng=rng)
        x = Tensor(rng.normal(size=(batch, steps, 1)))
        out, states = rnn(x)
        ref_out, ref_states = _stepped(rnn, x)
        assert np.array_equal(out.data, ref_out.data)
        for got, want in zip(states, ref_states):
            assert np.array_equal(got.data, want.data)

    def test_custom_initial_state(self, rng):
        rnn = ElmanRNN(3, 6, num_layers=2, rng=rng)
        x = Tensor(rng.normal(size=(7, 13, 3)))
        h0 = [Tensor(rng.normal(size=(7, 6))) for _ in range(2)]
        out, states = rnn(x, h0=h0)
        ref_out, ref_states = _stepped(rnn, x, h0)
        assert np.array_equal(out.data, ref_out.data)
        for got, want in zip(states, ref_states):
            assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("batch", [1, 54])
    def test_float32_policy_keeps_dtype(self, batch, rng):
        with use_precision("float32"):
            rnn = ElmanRNN(1, 8, num_layers=2, rng=rng)
            x = Tensor(rng.normal(size=(batch, 64, 1)))
            out, states = rnn(x)
            ref_out, _ = _stepped(rnn, x)
        assert out.data.dtype == np.float32
        assert all(s.data.dtype == np.float32 for s in states)
        assert np.array_equal(out.data, ref_out.data)


class TestGradients:
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_every_gradient_matches_oracle(self, layers, rng):
        rnn = ElmanRNN(2, 6, num_layers=layers, rng=rng)
        x_data = rng.normal(size=(5, 11, 2))
        h0_data = [rng.normal(size=(5, 6)) for _ in range(layers)]
        weights = rng.normal(size=(5, 11, 6))

        def grads(run):
            rnn.zero_grad()
            x = Tensor(x_data, requires_grad=True)
            h0 = [Tensor(h, requires_grad=True) for h in h0_data]
            out, states = run(rnn, x, h0)
            # Gradient reaches every layer through the outputs and
            # through the lowest layer's final state.
            loss = (out * Tensor(weights)).sum() + (states[0] * states[0]).sum()
            loss.backward()
            return [p.grad.copy() for _, p in rnn.named_parameters()] + [
                x.grad
            ] + [h.grad for h in h0]

        fused = grads(lambda m, x, h0: m(x, h0=h0))
        oracle = grads(_stepped)
        assert len(fused) == 4 * layers + 1 + layers
        for got, want in zip(fused, oracle):
            assert got.shape == want.shape
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_finite_differences(self, rng):
        def fn(x, w_ih, b_ih, w_hh, b_hh, h0):
            return _ElmanScan.apply(x, w_ih, b_ih, w_hh, b_hh, h0)

        inputs = [
            rng.normal(size=(3, 6, 2)),
            rng.normal(size=(4, 2)) * 0.5,
            rng.normal(size=4) * 0.1,
            rng.normal(size=(4, 4)) * 0.5,
            rng.normal(size=4) * 0.1,
            rng.normal(size=(3, 4)) * 0.5,
        ]
        assert check_gradients(fn, inputs)


class TestGraph:
    def test_no_grad_builds_no_graph(self, rng):
        rnn = ElmanRNN(1, 4, num_layers=2, rng=rng)
        x = Tensor(rng.normal(size=(2, 9, 1)), requires_grad=True)
        with no_grad():
            out, states = rnn(x)
        for t in [out, *states]:
            assert not t.requires_grad
            assert t._parents == ()
            assert t._backward_fn is None

    def test_one_node_per_layer(self, rng):
        rnn = ElmanRNN(1, 4, num_layers=3, rng=rng)
        out, _ = rnn(Tensor(rng.normal(size=(2, 9, 1))))
        node, scans = out, 0
        while node._parents:
            assert node._op == "_ElmanScan"
            scans += 1
            node = node._parents[0]
        assert scans == 3

    def test_rejects_empty_sequence(self, rng):
        rnn = ElmanRNN(1, 4, rng=rng)
        with pytest.raises(ValueError, match="time step"):
            rnn(Tensor(np.ones((2, 0, 1))))

    def test_classifier_graph_size_independent_of_steps(self, rng_factory):
        counts = []
        for steps in (1, 8, 64):
            model = ElmanClassifier(3, hidden_size=8, rng=rng_factory(0))
            logits = model(rng_factory(1).normal(size=(4, steps)))
            counts.append(_graph_nodes(logits))
        assert counts[0] == counts[1] == counts[2]
