"""Frozen forward plans — graph-free inference for serving.

A :class:`ForwardPlan` is a trained
:class:`~repro.core.PrintedTemporalClassifier` reduced to the minimum
needed to answer inference requests: per layer, the nominal RC
recurrence coefficients (one ``(a, b)`` pair per filter stage, via the
same :meth:`~repro.circuits.filters._RCStage.nominal_coefficients`
extraction the :class:`~repro.core.StreamingClassifier` uses), the
effective crossbar weight matrix and bias, and the four ptanh η
vectors.  No autograd graph, no ``Tensor`` wrappers, no variation
sampler — executing a plan is a handful of numpy calls.

Bit-equality contract
---------------------
``compile_plan(model)(x)`` is **bit-equal** to
``model(x).data`` under ``no_grad`` with the ideal sampler, provided
the active precision policy matches the one the parameters live in
(the float32/mixed plan agrees with its float64 counterpart to the
usual dtype tolerances).  This holds because every reduction is
mirrored operation-for-operation:

* the scan replays :class:`~repro.autograd.function.FilterScan`'s
  time-major recurrence (prefilled ``b ⊙ x`` buffer, densified ``a``,
  two ufunc calls per step) on preallocated arena buffers;
* the crossbar collapse multiplies by ε ≡ 1 exactly (IEEE ``x·1 = x``)
  and keeps the live op order ``(path · g) / denom`` and
  ``((sign·g_b) / denom) · V_dd``;
* the weight matrix is stored C-contiguous ``(out, in)`` and the GEMM
  runs on its ``swapaxes(-1, -2)`` view — the same memory layout the
  live crossbar hands BLAS, so the same kernel runs.

Plans are plainly picklable (the scratch arena is dropped and rebuilt
lazily), which is how the serving tier ships them to worker processes.
A plan instance is **not** thread-safe: the arena buffers are reused
across calls.  Give each thread/process its own plan (pickle
round-trip) or serialise calls.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from ..autograd.precision import (
    PrecisionPolicy,
    get_precision,
    resolve_policy,
)
from ..circuits.crossbar import THETA_MAX, THETA_MIN
from ..circuits.filters import filter_stages

__all__ = [
    "ForwardPlan",
    "PlanLayer",
    "PlanInputError",
    "compile_plan",
    "row_affine",
    "row_ptanh",
    "row_scan",
    "row_stage",
]


class PlanInputError(ValueError):
    """A request payload does not fit the plan's input contract."""


def _check_finite(arr: np.ndarray, what: str) -> None:
    """Raise :class:`PlanInputError` unless every value of ``arr`` is finite."""
    if not np.isfinite(arr).all():
        raise PlanInputError(f"{what} contains non-finite values (NaN/Inf)")


class _Arena:
    """Keyed scratch buffers reused across plan executions.

    ``buffer`` returns an uninitialised array (fully overwritten by the
    caller); ``constant`` memoises a derived read-only array.  Buffers
    are replaced when the requested shape changes (a new batch size or
    sequence length), so steady-state serving allocates nothing per
    request in the scan loop.
    """

    def __init__(self) -> None:
        self._buffers: Dict[tuple, np.ndarray] = {}

    def buffer(self, key: tuple, shape: tuple, dtype: np.dtype) -> np.ndarray:
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        return buf

    def constant(self, key: tuple, shape: tuple, build) -> np.ndarray:
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape:
            buf = build()
            self._buffers[key] = buf
        return buf


# -- row-stable kernels -------------------------------------------------------
#
# The streaming engines (single-stream ``StreamingSession`` and the
# batched ``MultiStreamSession`` fleet) carry a ``(rows, features)``
# matrix of concurrent streams.  Their contract is that every row's
# result is **bit-equal regardless of how many rows share the matrix**
# — a stream stepped alone and the same stream stepped inside a 32-row
# fleet must produce identical bits.  BLAS cannot promise that: GEMM
# kernels are selected by matrix shape, so ``(A @ B)[i]`` differs from
# ``A[i:i+1] @ B`` in the last ulp for most shapes (measured: float64
# OpenBLAS diverges already at ``k=3, n=8``).  These kernels therefore
# stick to per-element-deterministic primitives: elementwise ufuncs
# (whose results are independent of array shape) and ``np.einsum``
# with its default non-BLAS sum-of-products loop, which accumulates the
# contracted axis in fixed index order per output element — measured
# row-stable across shapes, up to thousands of rows, for float64 and
# float32.
#
# ``StreamingSession`` steps one row at a time through ``row_stage``.
# The fleet works layer by layer over a whole chunk: ``row_scan`` runs
# each RC stage once over the time-major ``(time, rows, n)`` block from
# the rows' carried state, and ``row_affine`` / ``row_ptanh`` run once
# over the flattened ``(time·rows, n)`` block.  ``row_scan`` is also
# the loop behind ``ForwardPlan._scan`` (from zero state), and its
# per-element ops are ``row_stage``'s (``b·h + a·v`` vs ``a·v + b·h``:
# IEEE addition commutes), so the engines agree bit for bit by
# construction, not by coincidence.


def row_stage(a: np.ndarray, b: np.ndarray, h: np.ndarray, v: np.ndarray,
              out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """One RC-stage step ``out = a·v + b·h`` for ``(rows, n)`` state.

    Identical per-element op order as the live scan kernel's
    ``v_k = a ⊙ v_{k-1} + b ⊙ x_k``; ``out``/``tmp`` are caller scratch
    of shape ``(rows, n)``.  ``out`` may alias ``v`` (the update is
    purely elementwise) but must not alias ``tmp`` or ``h``.
    """
    np.multiply(a, v, out=out)
    np.multiply(b, h, out=tmp)
    out += tmp
    return out


def row_scan(a: np.ndarray, b: np.ndarray, x_tm: np.ndarray, v0: np.ndarray,
             out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """One RC stage over a time-major block: ``v_k = b·x_k + a·v_{k-1}``.

    ``x_tm`` and ``out`` are ``(time, rows, n)``; ``v0`` is the
    ``(rows, n)`` state before the first step and ``tmp`` caller
    scratch of that shape.  The live scan kernel's op pair (prefill
    ``b ⊙ x``, then two ufunc calls per step), so step ``k`` of every
    row carries the bits :func:`row_stage` would give it.  ``out`` may
    alias ``x_tm`` but not ``v0`` or ``tmp``.
    """
    np.multiply(b, x_tm, out=out)
    v = v0
    for k in range(out.shape[0]):
        vk = out[k]
        np.multiply(a, v, out=tmp)
        vk += tmp
        v = vk
    return out


def row_affine(h: np.ndarray, weights: np.ndarray, bias: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """Row-count-invariant affine map ``out = h @ weights.T + bias``.

    ``h`` is ``(rows, in)``, ``weights`` the plan's C-contiguous
    ``(out, in)`` matrix, ``out`` caller scratch ``(rows, out)``.  The
    contraction runs through ``np.einsum``'s C sum-of-products loop
    (never BLAS), which reduces the ``in`` axis in fixed index order
    per output element — so row ``i`` of the result carries the same
    bits no matter how many rows are computed together (unlike a GEMM,
    where kernel selection depends on the row count).
    """
    np.einsum("ri,oi->ro", h, weights, out=out)
    out += bias
    return out


def row_ptanh(mm: np.ndarray, eta, out: np.ndarray) -> np.ndarray:
    """Elementwise printed-tanh ``η₁ + η₂·tanh((mm − η₃)·η₄)`` on rows.

    Same per-element op sequence as the live activation (ufuncs only),
    writing into caller scratch ``out`` (may alias ``mm``).
    """
    e1, e2, e3, e4 = eta
    np.subtract(mm, e3, out=out)
    out *= e4
    np.tanh(out, out=out)
    out *= e2
    out += e1
    return out


@dataclasses.dataclass(frozen=True)
class PlanLayer:
    """One frozen pTPB: filter stages, collapsed crossbar, ptanh η."""

    #: ``((a, b), ...)`` — one coefficient pair per RC stage, shape ``(in,)``.
    stages: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    #: Effective signed crossbar weights, C-contiguous ``(out, in)``.
    weights: np.ndarray
    #: Crossbar bias voltages ``(out,)``.
    bias: np.ndarray
    #: ptanh parameters ``(η₁, η₂, η₃, η₄)``, each ``(out,)``.
    eta: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    in_features: int
    out_features: int


@dataclasses.dataclass
class ForwardPlan:
    """A compiled, callable inference artifact (see module docstring).

    Call the plan with a batch — ``(batch, time)`` for single-channel
    models or ``(batch, time, in_channels)`` — to get logits
    ``(batch, n_classes)`` as a plain ``ndarray``.
    """

    layers: Tuple[PlanLayer, ...]
    in_channels: int
    n_classes: int
    dt: float
    logit_scale: float
    precision: str
    dtype: np.dtype
    model_class: str
    filter_order: int

    # -- serialisation: the arena is scratch state, rebuilt lazily ------

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_arena", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    @property
    def arena(self) -> _Arena:
        arena = self.__dict__.get("_arena")
        if arena is None:
            arena = self.__dict__["_arena"] = _Arena()
        return arena

    # -- input contract -------------------------------------------------

    def coerce_series(self, series) -> np.ndarray:
        """Validate one request series and return it as ``(time, channels)``.

        Raises :class:`PlanInputError` (a ``ValueError``) with a clear
        message instead of letting a malformed payload shape-crash
        deep inside the forward.
        """
        arr = self._coerce_shape(series)
        _check_finite(arr, "series")
        return arr

    def _coerce_shape(self, series) -> np.ndarray:
        """:meth:`coerce_series` without the finiteness check, for
        callers that check a packed block of series at once."""
        try:
            arr = np.asarray(series)
        except (TypeError, ValueError) as exc:
            raise PlanInputError(f"series is not numeric: {exc}") from exc
        if arr.dtype == object or not issubclass(arr.dtype.type, np.number):
            raise PlanInputError(
                "series must be a (possibly nested) list of numbers with "
                "uniform row lengths"
            )
        arr = np.ascontiguousarray(arr, dtype=self.dtype)
        if arr.ndim == 1 and self.in_channels == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[1] != self.in_channels:
            expect = "(time,)" if self.in_channels == 1 else ""
            raise PlanInputError(
                f"series must be {expect + ' or ' if expect else ''}"
                f"(time, {self.in_channels}) for this model, got shape {arr.shape}"
            )
        if arr.shape[0] < 1:
            raise PlanInputError("series must contain at least one time step")
        return arr

    def _validate_batch(self, x) -> np.ndarray:
        try:
            arr = np.asarray(x, dtype=self.dtype)
        except (TypeError, ValueError) as exc:
            raise PlanInputError(f"batch is not numeric: {exc}") from exc
        if arr.ndim == 2 and self.in_channels == 1:
            arr = arr[:, :, None]
        if arr.ndim != 3 or arr.shape[2] != self.in_channels:
            raise PlanInputError(
                f"expected (batch, time) or (batch, time, {self.in_channels}) "
                f"input, got shape {np.shape(x)}"
            )
        if arr.shape[1] < 1:
            raise PlanInputError("batch must contain at least one time step")
        _check_finite(arr, "batch")
        return arr

    # -- streaming-state arenas -----------------------------------------

    def stream_state(self, rows: int) -> "List[List[np.ndarray]]":
        """Zeroed filter state for ``rows`` concurrent streams.

        One ``(rows, in_features)`` matrix per RC stage per layer — the
        discharged-capacitor initial condition.  ``rows=1`` is a single
        :class:`~repro.core.StreamingSession`; a
        :class:`~repro.core.MultiStreamSession` allocates its whole
        fleet here so that every stream is one row of a shared matrix.
        """
        if rows < 1:
            raise ValueError("stream_state needs rows >= 1")
        return [
            [
                np.zeros((rows, layer.in_features), dtype=self.dtype)
                for _ in layer.stages
            ]
            for layer in self.layers
        ]

    def stream_scratch(self, rows: int) -> "Dict[str, list]":
        """Preallocated per-step scratch for ``rows``-stream stepping.

        Keys: ``stage_tmp`` — per layer ``(rows, in_features)``
        buffers for :func:`row_stage`; ``affine`` — per layer ``(rows,
        out_features)`` buffers for :func:`row_affine` /
        :func:`row_ptanh`.  Allocated once per engine, reused every
        step, never shared between engines (plans themselves stay
        stateless for streaming).
        """
        if rows < 1:
            raise ValueError("stream_scratch needs rows >= 1")
        dtype = self.dtype
        return {
            "stage_tmp": [
                np.empty((rows, layer.in_features), dtype=dtype)
                for layer in self.layers
            ],
            "affine": [
                np.empty((rows, layer.out_features), dtype=dtype)
                for layer in self.layers
            ],
        }

    # -- execution ------------------------------------------------------

    def _scan(self, x: np.ndarray, a: np.ndarray, b: np.ndarray, key: tuple) -> np.ndarray:
        """One RC stage over ``(batch, time, n)`` — FilterScan's forward
        on arena buffers (:func:`row_scan` from zero state: same
        time-major layout, same two ufunc calls per step, so the values
        are bit-equal)."""
        steps = x.shape[-2]
        step_shape = (x.shape[0], x.shape[-1])
        arena = self.arena
        # A chained stage's input is the previous stage's moveaxis view:
        # ascontiguousarray recovers the underlying time-major buffer
        # without a copy, exactly like the live kernel.
        x_tm = np.ascontiguousarray(np.moveaxis(x, -2, 0))
        buf = arena.buffer(key + ("buf",), (steps,) + step_shape, self.dtype)
        a_d = arena.constant(
            key + ("a_dense",),
            step_shape,
            lambda: np.ascontiguousarray(np.broadcast_to(a, step_shape)),
        )
        v0 = arena.constant(
            key + ("v0",), step_shape, lambda: np.zeros(step_shape, dtype=self.dtype)
        )
        tmp = arena.buffer(key + ("tmp",), step_shape, self.dtype)
        row_scan(a_d, b, x_tm, v0, out=buf, tmp=tmp)
        return np.moveaxis(buf, 0, -2)

    def forward(self, x) -> np.ndarray:
        """Logits ``(batch, n_classes)`` for a batch of series.

        Hidden layers run their GEMM and ptanh over all ``batch·time``
        rows; the last layer slices its filtered sequence to the final
        step first, so its GEMM has ``batch`` rows — the same shapes
        the live model's readout hands BLAS.
        """
        seq = self._validate_batch(x)
        last = len(self.layers) - 1
        for li, layer in enumerate(self.layers):
            for si, (a, b) in enumerate(layer.stages):
                seq = self._scan(seq, a, b, (li, si))
            if li == last:
                break
            batch, steps = seq.shape[0], seq.shape[1]
            flat = seq.reshape(batch * steps, layer.in_features)
            act = self._affine_ptanh(flat, layer)
            seq = act.reshape(batch, steps, layer.out_features)
        return self._affine_ptanh(seq[:, -1, :], layer) * self.logit_scale

    @staticmethod
    def _affine_ptanh(rows: np.ndarray, layer: "PlanLayer") -> np.ndarray:
        """Crossbar GEMM, bias and ptanh over ``(rows, in)`` voltages."""
        mm = rows @ layer.weights.swapaxes(-1, -2)
        mm += layer.bias
        e1, e2, e3, e4 = layer.eta
        return e1 + e2 * np.tanh((mm - e3) * e4)

    __call__ = forward

    def predict(self, series) -> int:
        """Predicted class of one series (argmax of the final logits)."""
        logits = self.forward(self.coerce_series(series)[None])
        return int(np.argmax(logits[0]))

    # -- introspection --------------------------------------------------

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def nbytes(self) -> int:
        """Total frozen-parameter footprint in bytes."""
        total = 0
        for layer in self.layers:
            total += layer.weights.nbytes + layer.bias.nbytes
            total += sum(a.nbytes + b.nbytes for a, b in layer.stages)
            total += sum(e.nbytes for e in layer.eta)
        return total

    def signature(self) -> Dict[str, object]:
        """JSON-serialisable summary (served by the ``/models`` endpoint)."""
        return {
            "model_class": self.model_class,
            "in_channels": self.in_channels,
            "n_classes": self.n_classes,
            "num_layers": self.num_layers,
            "filter_order": self.filter_order,
            "dt": self.dt,
            "logit_scale": self.logit_scale,
            "precision": self.precision,
            "dtype": str(self.dtype),
            "nbytes": self.nbytes(),
        }

    def __repr__(self) -> str:
        return (
            f"ForwardPlan({self.model_class}, layers={self.num_layers}, "
            f"in_channels={self.in_channels}, n_classes={self.n_classes}, "
            f"dtype={self.dtype})"
        )


def compile_plan(
    model, precision: "Optional[str | PrecisionPolicy]" = None
) -> ForwardPlan:
    """Freeze a trained classifier into a :class:`ForwardPlan`.

    Parameters
    ----------
    model:
        A :class:`~repro.core.PrintedTemporalClassifier` (or subclass).
        The nominal (ideal-sampler) instance is captured; the model's
        own sampler is not consulted.
    precision:
        Precision policy resolving the plan's compute dtype; the
        process-wide active policy when omitted.  The bit-equality
        contract holds when this matches the policy the model's
        parameters were created under.
    """
    from ..core.models import PrintedTemporalClassifier

    if not isinstance(model, PrintedTemporalClassifier):
        raise TypeError(
            f"compile_plan expects a PrintedTemporalClassifier, "
            f"got {type(model).__name__}"
        )
    policy = resolve_policy(precision) if precision is not None else get_precision()
    dtype = policy.compute

    layers = []
    dt = None
    for block in model.blocks:
        filters = block.filters
        dt = filters.dt
        stages = tuple(
            tuple(np.asarray(c, dtype=dtype) for c in stage.nominal_coefficients(dt))
            for stage in filter_stages(filters)
        )

        # Collapse the crossbar under ε ≡ 1, mirroring
        # PrintedCrossbar.forward operation-for-operation.
        cb = block.crossbar
        theta = np.asarray(cb.theta.data, dtype=dtype)
        theta_b = np.asarray(cb.theta_b.data, dtype=dtype)
        theta_d = np.asarray(cb.theta_d.data, dtype=dtype)
        mag = np.abs(theta)
        mask = (mag >= THETA_MIN).astype(dtype)
        g = np.clip(mag, 0.0, THETA_MAX) * mask
        g_b = np.clip(np.abs(theta_b), 0.0, THETA_MAX)
        g_d = np.clip(np.abs(theta_d), THETA_MIN, THETA_MAX)
        denom = g.sum(axis=-1) + g_b + g_d
        sign = np.sign(theta)
        # path = direct + ε_inv·inverted with ε_inv ≡ 1.
        path = np.where(sign >= 0, 1.0, 0.0).astype(dtype) + np.where(
            sign >= 0, 0.0, -1.0
        ).astype(dtype)
        weights = np.ascontiguousarray(path * g / denom[..., None])
        bias = np.sign(theta_b) * g_b / denom * cb.pdk.supply_voltage

        eta = tuple(
            np.asarray(p.data, dtype=dtype)
            for p in (
                block.activation.eta1,
                block.activation.eta2,
                block.activation.eta3,
                block.activation.eta4,
            )
        )
        layers.append(
            PlanLayer(
                stages=stages,
                weights=weights,
                bias=np.asarray(bias, dtype=dtype),
                eta=eta,
                in_features=block.in_features,
                out_features=block.out_features,
            )
        )

    return ForwardPlan(
        layers=tuple(layers),
        in_channels=model.in_channels,
        n_classes=model.n_classes,
        dt=float(dt),
        logit_scale=float(model.logit_scale),
        precision=policy.name,
        dtype=np.dtype(dtype),
        model_class=type(model).__name__,
        filter_order=model.filter_order,
    )
