"""Module system: registration, traversal, state dicts, modes."""

import numpy as np
import pytest

from repro.nn import Linear, Module, ModuleList, Parameter


class Leaf(Module):
    def forward(self, x):
        return x


class Branch(Module):
    def __init__(self):
        super().__init__()
        self.w = Parameter(np.ones(3))
        self.child = Linear(3, 2, rng=np.random.default_rng(0))

    def forward(self, x):
        return self.child(x * self.w)


class TestRegistration:
    def test_parameter_auto_registered(self):
        m = Branch()
        names = [n for n, _ in m.named_parameters()]
        assert "w" in names

    def test_child_module_parameters_included(self):
        m = Branch()
        names = [n for n, _ in m.named_parameters()]
        assert "child.weight" in names and "child.bias" in names

    def test_parameters_count(self):
        m = Branch()
        assert m.num_parameters() == 3 + 3 * 2 + 2

    def test_modules_iterates_tree(self):
        m = Branch()
        kinds = [type(x).__name__ for x in m.modules()]
        assert kinds == ["Branch", "Linear"]

    def test_children_direct_only(self):
        outer = ModuleList([Branch(), Leaf()])
        assert len(list(outer.children())) == 2

    def test_register_module_explicit(self):
        m = Module()
        m.register_module("sub", Leaf())
        assert "sub" in [n for n, _ in m._modules.items()]

    def test_register_parameter_explicit(self):
        m = Module()
        m.register_parameter("p", Parameter(np.zeros(2)))
        assert m.num_parameters() == 2


class TestStateDict:
    def test_roundtrip(self):
        m = Branch()
        state = m.state_dict()
        m.w.data[:] = 99.0
        m.load_state_dict(state)
        assert np.allclose(m.w.data, 1.0)

    def test_state_dict_is_copy(self):
        m = Branch()
        state = m.state_dict()
        state["w"][:] = 42.0
        assert np.allclose(m.w.data, 1.0)

    def test_missing_key_raises(self):
        m = Branch()
        state = m.state_dict()
        del state["w"]
        with pytest.raises(KeyError):
            m.load_state_dict(state)

    def test_unexpected_key_raises(self):
        m = Branch()
        state = m.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(KeyError):
            m.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        m = Branch()
        state = m.state_dict()
        state["w"] = np.zeros(5)
        with pytest.raises(ValueError):
            m.load_state_dict(state)


class TestModes:
    def test_train_eval_recursive(self):
        m = ModuleList([Branch(), Leaf()])
        m.eval()
        assert all(not mod.training for mod in m.modules())
        m.train()
        assert all(mod.training for mod in m.modules())

    def test_zero_grad_clears_everything(self):
        from repro.autograd import Tensor

        m = Branch()
        m(Tensor(np.ones((2, 3)))).sum().backward()
        assert m.w.grad is not None
        m.zero_grad()
        assert all(p.grad is None for p in m.parameters())

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)

    def test_repr_shows_children(self):
        assert "Linear" in repr(Branch())


class TestContainerSlicing:
    @pytest.mark.parametrize("container", ["module_list"])
    def test_slice_returns_plain_list_of_the_same_modules(self, container):
        items = [Branch(), Leaf(), Branch()]
        c = ModuleList(items)
        assert type(c[:-1]) is list
        assert all(a is b for a, b in zip(c[:-1], items[:-1]))
        assert len(c[:-1]) == 2
        assert c[1:][0] is items[1]
        assert c[::2] == [items[0], items[2]]
        assert c[5:] == []
        assert c[-1] is items[2]

    def test_slicing_does_not_reregister(self):
        c = ModuleList([Branch(), Branch()])
        names = [name for name, _ in c.named_parameters()]
        head = c[:1]
        head.append(Leaf())
        assert len(c) == 2
        assert [name for name, _ in c.named_parameters()] == names
