"""The printed crossbar and ptanh as single autograd nodes.

``PrintedCrossbar`` runs its full-size affine as one
``_CrossbarAffine`` node and ``PrintedTanh`` its transfer function as
one ``_PtanhTransfer`` node.  Each must reproduce the composed
Tensor-op graph it replaced — kept below as the oracle — bit for bit,
forward and every gradient, over the sequential, batched-draws and
broadcast-over-draws layouts at float64 and float32.  The filter
banks' ``readout`` (a scan returning only its final step) must equal
``filters(x)[..., -1, :]`` the same way.  Last, ``Function.apply``
hands freshly allocated gradients over as ``.grad`` without a copy,
and must never do so for an array something else still holds.
"""

import numpy as np
import pytest

from repro.autograd import Function, Tensor, no_grad, use_precision
from repro.autograd.function import FilterScan, FilterScanReadout, sum_rows
from repro.autograd.grad_check import check_gradients
from repro.circuits import (
    FirstOrderLearnableFilter,
    PrintedCrossbar,
    PrintedTanh,
    SecondOrderLearnableFilter,
    UniformVariation,
    VariationSampler,
)
from repro.circuits.crossbar import _CrossbarAffine
from repro.circuits.ptanh import _PtanhTransfer

DRAWS, ROWS = 3, 7


# -- the composed Tensor-op oracles ------------------------------------------


def crossbar_oracle(x, w, bias):
    """The crossbar affine as the engine's own matmul/swapaxes/add nodes."""
    return x @ w.swapaxes(-1, -2) + bias.unsqueeze(-2)


def ptanh_oracle(x, eta1, eta2, eta3, eta4):
    """The printed tanh as five elementwise Tensor nodes."""
    if eta1.ndim == 2:
        eta1, eta2, eta3, eta4 = (e.unsqueeze(1) for e in (eta1, eta2, eta3, eta4))
    return eta1 + eta2 * ((x - eta3) * eta4).tanh()


#: layout -> (x has a draws axis, parameters have a draws axis)
LAYOUTS = {
    "sequential": (False, False),
    "batched": (True, True),
    "broadcast": (False, True),
}


def _crossbar_arrays(rng, layout, n_in=4, n_out=5):
    x_draws, p_draws = LAYOUTS[layout]
    lead = (DRAWS,) if p_draws else ()
    x = rng.uniform(-1, 1, ((DRAWS,) if x_draws else ()) + (ROWS, n_in))
    w = rng.uniform(-0.3, 0.3, lead + (n_out, n_in))
    bias = rng.uniform(-0.2, 0.2, lead + (n_out,))
    return [x, w, bias]


def _ptanh_arrays(rng, layout, n=5):
    x_draws, p_draws = LAYOUTS[layout]
    lead = (DRAWS,) if p_draws else ()
    x = rng.normal(size=((DRAWS,) if x_draws else ()) + (ROWS, n))
    etas = [
        rng.normal(0.0, 0.05, lead + (n,)),
        rng.uniform(0.8, 1.2, lead + (n,)),
        rng.normal(0.0, 0.05, lead + (n,)),
        rng.uniform(1.5, 2.5, lead + (n,)),
    ]
    return [x] + etas


NODES = {
    "crossbar": (_CrossbarAffine, crossbar_oracle, _crossbar_arrays),
    "ptanh": (_PtanhTransfer, ptanh_oracle, _ptanh_arrays),
}


def _run(fn, arrays, upstream):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*tensors)
    out.backward(upstream)
    return out.data, [t.grad for t in tensors]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("node", NODES)
@pytest.mark.parametrize("width", [5, 1], ids=["wide", "width1"])
def test_forward_and_gradients_bit_equal_to_oracle(node, layout, dtype, width):
    function, oracle, make = NODES[node]
    rng = np.random.default_rng(7)
    kwargs = {"n_out": width} if node == "crossbar" else {"n": width}
    with use_precision(dtype):
        arrays = [a.astype(dtype) for a in make(rng, layout, **kwargs)]
        with no_grad():
            shape = oracle(*[Tensor(a) for a in arrays]).shape
        upstream = rng.normal(size=shape).astype(dtype)
        out, grads = _run(function.apply, arrays, upstream)
        ref_out, ref_grads = _run(oracle, arrays, upstream)
    assert out.dtype == ref_out.dtype == np.dtype(dtype)
    assert np.array_equal(out, ref_out)
    for i, (g, ref) in enumerate(zip(grads, ref_grads)):
        assert g.shape == ref.shape == arrays[i].shape
        assert g.dtype == ref.dtype
        assert np.array_equal(g, ref), f"input {i}"


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("node", NODES)
def test_finite_differences(node, layout):
    function, _, make = NODES[node]
    arrays = make(np.random.default_rng(3), layout)
    assert check_gradients(lambda *ts: (function.apply(*ts) ** 2).mean(), arrays)


@pytest.mark.parametrize("node", NODES)
def test_no_grad_builds_no_graph(node):
    function, _, make = NODES[node]
    tensors = [Tensor(a, requires_grad=True) for a in make(np.random.default_rng(0), "batched")]
    with no_grad():
        out = function.apply(*tensors)
    assert not out.requires_grad
    assert out._parents == () and out._backward_fn is None


def _graph(out):
    """Every tensor reachable from ``out`` through the recorded graph."""
    seen, stack = {}, [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "sequential"])
@pytest.mark.parametrize("module", ["crossbar", "ptanh"])
def test_module_forward_is_one_full_size_node(module, batched):
    """Only the module's own output node is row-sized; the ε-weighted
    parameter graph behind it stays small."""
    rows, n = 64, 4
    rng = np.random.default_rng(1)
    sampler = VariationSampler(UniformVariation(0.1), rng=np.random.default_rng(2))
    if module == "crossbar":
        layer = PrintedCrossbar(n, n, sampler=sampler, rng=rng)
    else:
        layer = PrintedTanh(n, sampler=sampler, rng=rng)
    lead = (DRAWS,) if batched else ()
    x = Tensor(rng.uniform(-1, 1, lead + (rows, n)), requires_grad=True)
    if batched:
        with sampler.batched(DRAWS):
            out = layer(x)
    else:
        out = layer(x)
    full = [t for t in _graph(out) if t.data.size >= rows and t is not x]
    assert full == [out]
    expected = "_CrossbarAffine" if module == "crossbar" else "_PtanhTransfer"
    assert out._op == expected


def test_sum_rows_is_bit_equal_to_numpy_sum():
    rng = np.random.default_rng(4)
    for shape in [(5, 300, 8), (300, 8), (4, 37, 1), (37, 1), (2, 9, 3)]:
        for dtype in (np.float64, np.float32):
            g = rng.normal(size=shape).astype(dtype)
            assert np.array_equal(sum_rows(g), g.sum(axis=-2))
    g = rng.normal(size=(5, 8, 300)).swapaxes(-1, -2)  # non-contiguous
    assert np.array_equal(sum_rows(g), g.sum(axis=-2))


# -- filter-bank readout ------------------------------------------------------


BANKS = {"FO": FirstOrderLearnableFilter, "SO": SecondOrderLearnableFilter}


def _bank_pass(bank_cls, backend, batched, readout, draws=DRAWS):
    bank = bank_cls(3, rng=np.random.default_rng(0), scan_backend=backend)
    bank.sampler = VariationSampler(
        UniformVariation(0.1), v0_max=0.1, rng=np.random.default_rng(5)
    )
    x = Tensor(np.random.default_rng(6).uniform(-1, 1, (4, 9, 3)), requires_grad=True)
    if batched:
        with bank.sampler.batched(draws):
            out = bank.readout(x) if readout else bank(x)[..., -1, :]
    else:
        out = bank.readout(x) if readout else bank(x)[..., -1, :]
    upstream = np.random.default_rng(8).normal(size=out.shape)
    out.backward(upstream)
    grads = {name: p.grad for name, p in bank.named_parameters()}
    grads["x"] = x.grad
    return out.data, grads


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "sequential"])
@pytest.mark.parametrize("backend", ["fused", "unfused"])
@pytest.mark.parametrize("order", BANKS)
def test_bank_readout_bit_equal_to_last_step(order, backend, batched):
    out, grads = _bank_pass(BANKS[order], backend, batched, readout=True)
    ref, ref_grads = _bank_pass(BANKS[order], backend, batched, readout=False)
    lead = (DRAWS,) if batched else ()
    assert out.shape == lead + (4, 3)
    assert np.array_equal(out, ref)
    assert grads.keys() == ref_grads.keys()
    for name, grad in grads.items():
        assert np.array_equal(grad, ref_grads[name]), name


@pytest.mark.parametrize("draws", [None, 4])
def test_scan_readout_kernel_matches_sliced_scan(draws):
    rng = np.random.default_rng(9)
    n, batch = 3, 2
    coef_shape = (n,) if draws is None else (draws, n)
    a = rng.uniform(0.5, 0.95, coef_shape)
    b = rng.uniform(0.01, 0.3, coef_shape)
    v0 = rng.uniform(-0.1, 0.1, (batch, n) if draws is None else (draws, batch, n))
    x = rng.uniform(-1, 1, (batch, 6, n))
    arrays = [x, a, b, v0]
    upstream = rng.normal(size=v0.shape)
    out, grads = _run(FilterScanReadout.apply, arrays, upstream)
    ref, ref_grads = _run(lambda *ts: FilterScan.apply(*ts)[..., -1, :], arrays, upstream)
    assert np.array_equal(out, ref)
    for g, r in zip(grads, ref_grads):
        assert np.array_equal(g, r)
    assert check_gradients(lambda *ts: (FilterScanReadout.apply(*ts) ** 2).sum(), arrays)


# -- gradient hand-off ----------------------------------------------------------


class _Returned(Function):
    """Backward returns whatever ``ctx.pick(ctx, grad)`` selects."""

    @staticmethod
    def forward(ctx, x, y, pick):
        ctx.pick = pick
        ctx.save_for_backward(np.full(x.shape, 2.0))
        return x * y

    @staticmethod
    def backward(ctx, grad):
        return ctx.pick(ctx, grad)


def _apply(pick, shape=(3, 4)):
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    y = Tensor(rng.normal(size=shape), requires_grad=True)
    out = _Returned.apply(x, y, pick=pick)
    return x, y, out


def test_fresh_gradient_is_installed_without_a_copy():
    returned = {}

    def pick(ctx, grad):
        returned["x"] = grad * 3.0
        return returned["x"], None

    x, y, out = _apply(pick)
    out.backward(np.ones(out.shape))
    assert x.grad is returned["x"]
    assert y.grad is None


def test_one_array_returned_for_two_inputs_is_not_shared():
    def pick(ctx, grad):
        g = grad * 3.0
        return g, g

    x, y, out = _apply(pick)
    out.backward(np.ones(out.shape))
    assert not np.shares_memory(x.grad, y.grad)
    np.testing.assert_array_equal(x.grad, y.grad)
    # A second backward accumulates into each buffer independently.
    before = y.grad.copy()
    x.grad += 1.0
    np.testing.assert_array_equal(y.grad, before)


def test_gradient_viewing_saved_state_is_copied():
    held = {}

    def pick(ctx, grad):
        held["state"] = state = ctx.saved[0]
        return state, state[::-1]  # the saved array itself, and a view of it

    x, y, out = _apply(pick)
    out.backward(np.ones(out.shape))
    for t in (x, y):
        assert not np.shares_memory(t.grad, held["state"])
        np.testing.assert_array_equal(t.grad, 2.0)
    x.grad += 1.0
    y.grad += 1.0
    # Accumulating into the buffers left the saved state untouched.
    out.backward(np.ones(out.shape))
    np.testing.assert_array_equal(held["state"], 2.0)
    np.testing.assert_array_equal(x.grad, 5.0)
    np.testing.assert_array_equal(y.grad, 5.0)


def test_incoming_gradient_and_ctx_attributes_are_copied():
    held = {}

    def pick(ctx, grad):
        ctx.stash = (grad * 5.0,)
        held["stash"] = ctx.stash[0]
        return grad, ctx.stash[0]

    x, y, out = _apply(pick)
    out.backward(np.ones(out.shape))
    assert not np.shares_memory(x.grad, out.grad)
    assert not np.shares_memory(y.grad, held["stash"])
    x.grad += 1.0
    y.grad += 1.0
    np.testing.assert_array_equal(out.grad, 1.0)
    np.testing.assert_array_equal(held["stash"], 5.0)


@pytest.mark.parametrize("function", [_CrossbarAffine, _PtanhTransfer])
def test_printed_nodes_hand_their_input_gradient_over(function, monkeypatch):
    """The crossbar's and the ptanh's input gradients become ``.grad``
    as returned: one full-size copy fewer per node per backward."""
    returned = []
    backward = function.backward

    def spy(ctx, grad):
        grads = backward(ctx, grad)
        returned.append(grads[0])
        return grads

    monkeypatch.setattr(function, "backward", staticmethod(spy))
    rng = np.random.default_rng(0)
    sampler = VariationSampler(UniformVariation(0.1), rng=np.random.default_rng(1))
    if function is _CrossbarAffine:
        layer = PrintedCrossbar(3, 4, sampler=sampler, rng=rng)
    else:
        layer = PrintedTanh(3, sampler=sampler, rng=rng)
    x = Tensor(rng.uniform(-1, 1, (DRAWS, 50, 3)), requires_grad=True)
    with sampler.batched(DRAWS):
        out = layer(x)
    out.sum().backward()
    assert len(returned) == 1 and x.grad is returned[0]
    # Parameters still receive gradients of their own shape.
    for p in layer.parameters():
        assert p.grad is not None and p.grad.shape == p.data.shape
