"""Precision-policy machinery and dtype-aware numerics.

Covers the process-level :mod:`repro.autograd.precision` policy (name
resolution, scoped activation, dtype plumbing into Tensor creation),
the per-dtype gradient-check tolerances, the float32 finite-difference
suite for the fused :func:`~repro.autograd.filter_scan` kernel
(mirroring the float64 suite of ``test_function.py``), and the
``Tensor.var`` single-``diff`` graph regression.
"""

import numpy as np
import pytest

from repro.autograd import (
    PRECISION_POLICIES,
    PrecisionPolicy,
    Tensor,
    check_gradients,
    compute_dtype,
    default_tolerances,
    filter_scan,
    get_precision,
    resolve_policy,
    set_precision,
    use_precision,
)


class TestPolicyResolution:
    def test_default_policy_is_float64(self):
        policy = get_precision()
        assert policy.name == "float64"
        assert policy.compute == np.dtype(np.float64)
        assert policy.master == np.dtype(np.float64)
        assert not policy.is_mixed

    def test_known_policies(self):
        assert PRECISION_POLICIES == ("float64", "float32", "mixed")
        f32 = resolve_policy("float32")
        assert f32.compute == np.dtype(np.float32)
        assert not f32.is_mixed
        mixed = resolve_policy("mixed")
        assert mixed.compute == np.dtype(np.float32)
        assert mixed.master == np.dtype(np.float64)
        assert mixed.is_mixed

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown precision policy"):
            resolve_policy("float16")
        with pytest.raises(ValueError, match="unknown precision policy"):
            set_precision("bfloat16")

    def test_resolve_does_not_activate(self):
        resolve_policy("float32")
        assert get_precision().name == "float64"

    def test_use_precision_scopes_and_restores(self):
        assert compute_dtype() == np.dtype(np.float64)
        with use_precision("mixed") as policy:
            assert policy is get_precision()
            assert compute_dtype() == np.dtype(np.float32)
            assert policy.master == np.dtype(np.float64)
        assert get_precision().name == "float64"

    def test_use_precision_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_precision("float32"):
                raise RuntimeError("boom")
        assert get_precision().name == "float64"

    def test_accepts_policy_instances(self):
        policy = resolve_policy("float32")
        assert isinstance(policy, PrecisionPolicy)
        with use_precision(policy) as active:
            assert active is policy


class TestTensorDtype:
    def test_tensor_coercion_follows_policy(self):
        data = [1.0, 2.0, 3.0]
        assert Tensor(data).data.dtype == np.float64
        with use_precision("float32"):
            assert Tensor(data).data.dtype == np.float32
            # float64 input is recast down to the compute dtype.
            assert Tensor(np.zeros(3)).data.dtype == np.float32

    def test_constructors_follow_policy(self):
        with use_precision("float32"):
            assert Tensor.zeros(2, 2).data.dtype == np.float32
            assert Tensor.ones(2).data.dtype == np.float32

    def test_arithmetic_and_grads_stay_in_compute_dtype(self, rng):
        with use_precision("float32"):
            x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            y = (x * 2.0 + 1.0).tanh().sum()
            assert y.data.dtype == np.float32
            y.backward()
            assert x.grad.dtype == np.float32

    def test_filter_scan_buffers_follow_inputs(self, rng):
        with use_precision("float32"):
            x = Tensor(rng.uniform(-1, 1, (2, 5, 3)), requires_grad=True)
            a = Tensor(np.full(3, 0.9))
            b = Tensor(np.full(3, 0.1))
            v0 = Tensor(np.zeros((2, 3)))
            out = filter_scan(x, a, b, v0)
            assert out.data.dtype == np.float32
            out.sum().backward()
            assert x.grad.dtype == np.float32


class TestDefaultTolerances:
    def test_float64_matches_historical_defaults(self):
        tol = default_tolerances(np.float64)
        assert tol == {"eps": 1e-6, "atol": 1e-5, "rtol": 1e-4}

    def test_float32_is_looser(self):
        tol = default_tolerances(np.float32)
        assert tol["eps"] > default_tolerances(np.float64)["eps"]
        assert tol["atol"] > default_tolerances(np.float64)["atol"]

    def test_unknown_dtype_falls_back_to_float64(self):
        assert default_tolerances(np.int64) == default_tolerances(np.float64)

    def test_returns_fresh_copy(self):
        tol = default_tolerances(np.float32)
        tol["atol"] = 0.0
        assert default_tolerances(np.float32)["atol"] > 0.0


def _coeffs(rng, n, mu, draws=None):
    """Physical recurrence coefficients a, b (as in ``test_function.py``)."""
    shape = (n,) if draws is None else (draws, n)
    r = np.exp(rng.uniform(np.log(2e3), np.log(50e3), shape))
    c = np.exp(rng.uniform(np.log(1e-5), np.log(1e-4), shape))
    rc = r * c
    dt = 1e-3
    return rc / (rc + mu * dt), dt / (rc + mu * dt)


class TestFilterScanFloat32:
    """float32 finite-difference suite for the fused scan kernel.

    Mirrors the float64 suite at the paper's coupling corners
    (μ = 1 unloaded, μ = 1.3 fully coupled) and across draw counts; the
    tolerances resolve from :func:`default_tolerances` for float32.
    """

    @pytest.mark.parametrize("mu", [1.0, 1.3])
    @pytest.mark.parametrize("draws", [1, 8])
    def test_finite_differences_float32(self, rng, mu, draws):
        batch, steps, n = 2, 6, 3
        x = rng.uniform(-1, 1, (batch, steps, n)).astype(np.float32)
        a, b = _coeffs(rng, n, mu, draws)
        a, b = a.astype(np.float32), b.astype(np.float32)
        v0 = rng.uniform(-0.1, 0.1, (draws, batch, n)).astype(np.float32)
        assert check_gradients(
            lambda xx, aa, bb, vv: (filter_scan(xx, aa, bb, vv) ** 2).mean(),
            [x, a, b, v0],
        )

    def test_float32_evaluations_run_in_float32(self, rng):
        """The checker activates the float32 policy for its evaluations
        (Tensor coercion would otherwise upcast to the ambient
        float64)."""
        seen = []

        def fn(xx):
            seen.append(xx.data.dtype)
            return (xx * xx).mean()

        check_gradients(fn, [rng.uniform(-1, 1, 3).astype(np.float32)])
        assert seen and all(d == np.float32 for d in seen)

    def test_float64_inputs_keep_historical_behaviour(self, rng):
        seen = []

        def fn(xx):
            seen.append(xx.data.dtype)
            return (xx * xx).mean()

        check_gradients(fn, [rng.uniform(-1, 1, 3)])
        assert seen and all(d == np.float64 for d in seen)


def _graph_nodes(out: Tensor):
    """All unique tensors reachable from ``out`` through the tape."""
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return seen


class TestVarGraph:
    def test_var_builds_one_diff_node(self, rng):
        """``var`` reuses one ``self - mu`` node: the square is
        ``diff * diff`` with both parents the *same* tensor, and the
        graph holds exactly 5 nodes (x, mu, diff, square, mean) instead
        of the historical 6 (two independent subtractions)."""
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        out = x.var()
        square = out._parents[0]
        assert len(square._parents) == 2
        assert square._parents[0] is square._parents[1]
        assert len(_graph_nodes(out)) == 5

    def test_var_value_and_gradient(self, rng):
        data = rng.normal(size=(5, 4))
        x = Tensor(data, requires_grad=True)
        out = x.var()
        np.testing.assert_allclose(out.data, data.var(), rtol=1e-12)
        out.backward()
        expected = 2.0 * (data - data.mean()) / data.size
        np.testing.assert_allclose(x.grad, expected, rtol=1e-10, atol=1e-12)

    def test_var_axis_keepdims(self, rng):
        data = rng.normal(size=(3, 6))
        out = Tensor(data).var(axis=1, keepdims=True)
        np.testing.assert_allclose(
            out.data, data.var(axis=1, keepdims=True), rtol=1e-12
        )
