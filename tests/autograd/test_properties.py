"""Property-based tests of autograd invariants (hypothesis).

Beyond the algebraic invariants, this module certifies gradients by
randomized central finite differences (:func:`check_gradients`) over
the awkward corners that targeted unit tests historically missed:
broadcast edge shapes (size-1 axes, scalar operands, leading-axis
expansion), the fused ``filter_scan`` kernel at the paper's μ coupling
boundaries (μ = 1.0 unloaded, μ = 1.3 fully loaded), and
non-contiguous (transposed / strided / reversed) input arrays.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.autograd import Tensor, check_gradients, filter_scan, log_softmax, logsumexp

finite_floats = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)

#: Gentler magnitudes for FD checks: keeps |f(x±eps)| in a regime where
#: central differences are accurate to the default tolerances.
small_floats = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
)


def batches(max_rows: int = 5, max_cols: int = 6):
    return arrays(
        dtype=np.float64,
        shape=array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=max(max_rows, max_cols)),
        elements=finite_floats,
    )


@given(batches())
@settings(max_examples=40, deadline=None)
def test_softmax_rows_sum_to_one(x):
    out = log_softmax(Tensor(x), axis=-1).exp().data
    assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-9)
    assert np.all(out >= 0)


@given(batches())
@settings(max_examples=40, deadline=None)
def test_logsumexp_dominates_max(x):
    lse = logsumexp(Tensor(x), axis=-1).data
    assert np.all(lse >= x.max(axis=-1) - 1e-12)
    assert np.all(lse <= x.max(axis=-1) + np.log(x.shape[-1]) + 1e-12)


@given(batches())
@settings(max_examples=40, deadline=None)
def test_sum_gradient_is_ones(x):
    t = Tensor(x, requires_grad=True)
    t.sum().backward()
    assert np.array_equal(t.grad, np.ones_like(x))


@given(batches(), batches())
@settings(max_examples=40, deadline=None)
def test_addition_commutes(a, b):
    if a.shape != b.shape:
        return
    left = (Tensor(a) + Tensor(b)).data
    right = (Tensor(b) + Tensor(a)).data
    assert np.array_equal(left, right)


@given(batches())
@settings(max_examples=40, deadline=None)
def test_tanh_bounded_and_odd(x):
    out = Tensor(x).tanh().data
    assert np.all(np.abs(out) <= 1.0)
    assert np.allclose(Tensor(-x).tanh().data, -out)


@given(batches())
@settings(max_examples=40, deadline=None)
def test_reshape_roundtrip_preserves_gradient(x):
    t = Tensor(x, requires_grad=True)
    t.reshape(-1).reshape(*x.shape).sum().backward()
    assert np.array_equal(t.grad, np.ones_like(x))


@given(
    arrays(dtype=np.float64, shape=(4, 3), elements=finite_floats),
    arrays(dtype=np.float64, shape=(3,), elements=finite_floats),
)
@settings(max_examples=40, deadline=None)
def test_broadcast_gradient_shape_invariant(a, b):
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    (ta * tb).sum().backward()
    assert ta.grad.shape == a.shape
    assert tb.grad.shape == b.shape
    # The broadcast operand's gradient is the column sum.
    assert np.allclose(tb.grad, a.sum(axis=0))


@given(st.integers(min_value=1, max_value=50))
@settings(max_examples=20, deadline=None)
def test_linear_chain_gradient_is_product(depth):
    x = Tensor([1.0], requires_grad=True)
    v = x
    for _ in range(depth):
        v = v * 0.5
    v.backward()
    assert np.allclose(x.grad, [0.5**depth])


# -- randomized finite-difference checks: broadcast edge shapes --------------

#: Shape pairs that broadcast together but stress the unbroadcast
#: reductions: size-1 axes, scalars, missing leading axes.
_BROADCAST_SHAPE_PAIRS = [
    ((3, 1), (1, 4)),
    ((1,), (5, 3)),
    ((2, 1, 3), (4, 3)),
    ((), (2, 3)),
    ((2, 3), ()),
    ((1, 1), (3, 1)),
    ((4, 1, 1), (1, 2, 3)),
]


def _pair_arrays(draw_shapes):
    """Strategy producing (a, b) arrays for one broadcast shape pair."""
    sa, sb = draw_shapes
    return st.tuples(
        arrays(dtype=np.float64, shape=sa, elements=small_floats),
        arrays(dtype=np.float64, shape=sb, elements=small_floats),
    )


@given(
    st.sampled_from(_BROADCAST_SHAPE_PAIRS).flatmap(_pair_arrays),
    st.sampled_from(["add", "mul", "sub"]),
)
@settings(max_examples=30, deadline=None)
def test_broadcast_gradients_match_finite_differences(pair, op):
    a, b = pair
    fn = {
        "add": lambda x, y: x + y,
        "mul": lambda x, y: x * y,
        "sub": lambda x, y: x - y,
    }[op]
    assert check_gradients(fn, [a, b])


@given(
    st.sampled_from(_BROADCAST_SHAPE_PAIRS).flatmap(_pair_arrays),
)
@settings(max_examples=20, deadline=None)
def test_broadcast_composite_gradients_match_finite_differences(pair):
    a, b = pair
    assert check_gradients(lambda x, y: (x * y + x).tanh(), [a, b])


# -- filter_scan at the paper's μ coupling boundaries ------------------------


def _scan_coefficients(rc: np.ndarray, mu: float, dt: float = 1e-3):
    """Backward-Euler coefficients a = RC/(RC+μΔt), b = Δt/(RC+μΔt)."""
    inv = 1.0 / (rc + mu * dt)
    return rc * inv, dt * inv


@given(
    st.sampled_from([1.0, 1.3]),  # μ band of the SPICE study (Sec. III-2)
    st.integers(min_value=1, max_value=5),  # time steps
    st.integers(min_value=1, max_value=3),  # filters
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_filter_scan_gradients_at_mu_boundaries(mu, steps, n, seed):
    rng = np.random.default_rng(seed)
    # RC spans fast (~Δt) to slow (~100 Δt) time constants.
    rc = rng.uniform(1e-3, 0.1, size=n)
    a, b = _scan_coefficients(rc, mu)
    assert np.all((0 < a) & (a < 1)) and np.all(b > 0)
    x = rng.uniform(-1.0, 1.0, size=(2, steps, n))
    v0 = rng.uniform(-0.5, 0.5, size=n)
    assert check_gradients(
        lambda xs, av, bv, v: filter_scan(xs, av, bv, v), [x, a, b, v0]
    )


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_filter_scan_mu_boundary_ordering(seed):
    """More coupling (larger μ) never increases the scan magnitude."""
    rng = np.random.default_rng(seed)
    rc = rng.uniform(1e-3, 0.1, size=3)
    x = np.abs(rng.uniform(0.1, 1.0, size=(2, 6, 3)))
    v0 = np.zeros(3)
    outs = {}
    for mu in (1.0, 1.3):
        a, b = _scan_coefficients(rc, mu)
        outs[mu] = filter_scan(x, a, b, v0).data
    # For a non-negative input and zero initial state the loaded stage
    # (μ=1.3, DC gain 1/1.3) sits strictly below the unloaded one.
    assert np.all(outs[1.3] <= outs[1.0] + 1e-12)
    assert np.all(outs[1.3] >= 0.0)


# -- non-contiguous inputs ---------------------------------------------------


@given(
    st.sampled_from(["transpose", "reverse", "strided"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_elementwise_gradients_on_noncontiguous_inputs(layout, seed):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-2.0, 2.0, size=(6, 8))
    if layout == "transpose":
        view = base.T  # (8, 6), F-ordered view
    elif layout == "reverse":
        view = base[::-1]  # negative stride
    else:
        view = base[:, ::2]  # (6, 4) strided view
    assert not view.flags["C_CONTIGUOUS"]
    assert check_gradients(lambda t: (t * t).tanh() + t, [view])


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_filter_scan_accepts_noncontiguous_input(seed):
    """The fused kernel must not silently misread strided memory."""
    rng = np.random.default_rng(seed)
    n = 3
    rc = rng.uniform(1e-3, 0.1, size=n)
    a, b = _scan_coefficients(rc, mu=1.15)
    big = rng.uniform(-1.0, 1.0, size=(2, 10, 2 * n))
    x_view = big[:, ::2, ::2]  # non-contiguous (2, 5, 3) slice
    assert not x_view.flags["C_CONTIGUOUS"]
    v0 = rng.uniform(-0.5, 0.5, size=n)
    dense = filter_scan(np.ascontiguousarray(x_view), a, b, v0).data
    strided = filter_scan(x_view, a, b, v0).data
    assert np.array_equal(dense, strided)
    assert check_gradients(
        lambda xs, av, bv, v: filter_scan(xs, av, bv, v), [x_view, a, b, v0]
    )
