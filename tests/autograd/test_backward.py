"""Backward-pass graph mechanics: topology, reuse, deep chains."""

import numpy as np

from repro.autograd import Tensor, stack


class TestGraphTraversal:
    def test_diamond_graph_accumulates_once(self):
        # x -> a, b -> c: each path contributes; node visited once.
        x = Tensor([2.0], requires_grad=True)
        a = x * 3.0
        b = x * 5.0
        c = a + b
        c.backward()
        assert np.allclose(x.grad, [8.0])

    def test_reused_intermediate(self):
        x = Tensor([2.0], requires_grad=True)
        a = x * x  # d/dx = 2x = 4
        c = a + a  # total d/dx = 8
        c.backward()
        assert np.allclose(x.grad, [8.0])

    def test_deep_chain_no_recursion_limit(self):
        # 5000-deep chain would overflow a recursive traversal.
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 0.001
        y.backward()
        assert np.allclose(x.grad, [1.0])

    def test_rnn_like_unrolled_loop(self):
        # gradient through a 100-step scan, matching the closed form a^T.
        a = 0.9
        x = Tensor([1.0], requires_grad=True)
        v = x
        for _ in range(100):
            v = v * a
        v.backward()
        assert np.allclose(x.grad, [a**100])

    def test_grad_not_propagated_to_frozen_leaves(self):
        x = Tensor([1.0], requires_grad=True)
        frozen = Tensor([2.0], requires_grad=False)
        (x * frozen).backward()
        assert frozen.grad is None
        assert np.allclose(x.grad, [2.0])

    def test_branch_with_detach_is_cut(self):
        x = Tensor([3.0], requires_grad=True)
        kept = x * 2.0
        cut = (x * 100.0).detach()
        (kept + cut).backward()
        assert np.allclose(x.grad, [2.0])

    def test_stack_then_index_roundtrip(self):
        xs = [Tensor([float(i)], requires_grad=True) for i in range(4)]
        s = stack(xs, axis=0)
        s[2].backward()
        assert np.allclose(xs[2].grad, [1.0])
        for i, x in enumerate(xs):
            if i != 2:
                assert x.grad is None or np.allclose(x.grad, [0.0])


class TestGradientValues:
    def test_product_rule(self):
        x = Tensor([3.0], requires_grad=True)
        y = Tensor([4.0], requires_grad=True)
        (x * y + x).backward()
        assert np.allclose(x.grad, [5.0])
        assert np.allclose(y.grad, [3.0])

    def test_chain_rule_composite(self):
        x = Tensor([0.5], requires_grad=True)
        y = (x * 2.0).tanh().exp()
        y.backward()
        t = np.tanh(1.0)
        expected = np.exp(t) * (1 - t**2) * 2.0
        assert np.allclose(x.grad, [expected])

    def test_mean_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (x * x).mean().backward()
        assert np.allclose(x.grad, 2.0 * x.data / 3.0)


class TestInterpretedParentPruning:
    """The interpreted micro-opt: ``_from_op`` drops non-grad parents
    from ``_parents`` so ``backward()``'s DFS never visits them."""

    def test_non_grad_parents_pruned(self, rng):
        a = Tensor(rng.uniform(size=3), requires_grad=True)
        frozen = Tensor(rng.uniform(size=3))
        out = a * frozen
        assert out._parents == (a,)

    def test_gradients_unaffected_by_pruning(self, rng):
        a = Tensor(rng.uniform(size=3), requires_grad=True)
        frozen = Tensor(rng.uniform(size=3))
        ((a * frozen).sum()).backward()
        np.testing.assert_array_equal(a.grad, frozen.data)
        assert frozen.grad is None

    def test_all_parents_kept_when_all_require_grad(self, rng):
        a = Tensor(rng.uniform(size=3), requires_grad=True)
        b = Tensor(rng.uniform(size=3), requires_grad=True)
        assert (a * b)._parents == (a, b)
