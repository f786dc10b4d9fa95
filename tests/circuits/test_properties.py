"""Property-based invariants of the printed-circuit primitives."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.autograd import Tensor
from repro.circuits import (
    PrintedCrossbar,
    snap_to_grid,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


@given(seeds, st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_crossbar_weight_rows_always_below_one(seed, n_in, n_out):
    """Eq. (1): conductance-ratio weights satisfy Σ|w| < 1 for any init."""
    xb = PrintedCrossbar(n_in, n_out, rng=np.random.default_rng(seed))
    w = xb.weight_matrix()
    assert np.all(np.abs(w).sum(axis=1) < 1.0)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_crossbar_output_bounded_by_inputs(seed):
    """A conductance divider cannot amplify: |out| ≤ max(|in|, V_b)."""
    rng = np.random.default_rng(seed)
    xb = PrintedCrossbar(4, 3, rng=rng)
    x = rng.uniform(-1, 1, (8, 4))
    out = xb(Tensor(x)).data
    bound = max(np.abs(x).max(), xb.pdk.supply_voltage)
    assert np.all(np.abs(out) <= bound + 1e-9)


@given(
    arrays(
        np.float64,
        (20,),
        elements=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    ),
    st.integers(min_value=1, max_value=24),
)
@settings(max_examples=40, deadline=None)
def test_snap_to_grid_idempotent_and_bounded(values, n):
    snapped = snap_to_grid(values, n)
    assert np.allclose(snap_to_grid(snapped, n), snapped, rtol=1e-9)
    ratio = np.maximum(snapped / values, values / snapped)
    assert np.all(ratio <= 10 ** (0.5 / n) * (1 + 1e-9))


@given(seeds, st.floats(min_value=0.0, max_value=0.3))
@settings(max_examples=25, deadline=None)
def test_filter_coefficients_stable_under_any_variation(seed, delta):
    """|a| < 1 for every draw: the printed filter can never go unstable."""
    from repro.circuits import SecondOrderLearnableFilter, UniformVariation, VariationSampler

    rng = np.random.default_rng(seed)
    sampler = VariationSampler(model=UniformVariation(delta), rng=rng)
    flt = SecondOrderLearnableFilter(2, sampler=sampler, rng=rng)
    for stage in (flt.stage1, flt.stage2):
        a, b = stage.coefficients(flt.dt, sampler)
        assert np.all(a.data >= 0) and np.all(a.data < 1.0)
        assert np.all(b.data > 0) and np.all(b.data <= 1.0)
        # backward-Euler consistency at mu=1: a + b <= 1 always
        assert np.all(a.data + b.data <= 1.0 + 1e-12)
