"""Custom autograd Functions — fused ops with hand-derived backwards.

The per-op closures of :mod:`repro.autograd.tensor` are ideal for
elementwise arithmetic, but a time-unrolled recurrence built from them
costs O(steps) Python-level graph nodes per forward *and* a matching
tape walk per backward — pure interpreter overhead that dwarfs the
numpy FLOPs on the small arrays printed circuits produce.  This module
adds the one extension point the engine lacked: a
:class:`Function` base class in the style of ``torch.autograd.Function``
that collapses an arbitrary computation into a *single* graph node with
an analytic backward.

Subclasses implement two static methods over raw numpy arrays::

    class MyOp(Function):
        @staticmethod
        def forward(ctx, *arrays, **kwargs) -> np.ndarray: ...

        @staticmethod
        def backward(ctx, grad) -> tuple[np.ndarray | None, ...]: ...

and are invoked through :meth:`Function.apply`, which handles Tensor
coercion, graph wiring (respecting ``no_grad``) and broadcast-aware
gradient routing: every gradient returned by ``backward`` is reduced to
its input's shape via the engine's ``_unbroadcast`` before
accumulation, so backwards may return gradients in the (numpy-)
broadcast result shape.

A gradient that ``backward`` freshly allocated is installed as its
input's ``.grad`` as is, instead of being copied on first
accumulation; anything the engine or the Function may still read (the
incoming gradient, saved state, another returned gradient) is copied
as before.

The kernels built on it:

* :class:`FilterScan`, the fused RC-recurrence behind the learnable
  printed filters (``scan_backend="fused"``; see :func:`filter_scan`
  for the adjoint derivation), and :class:`FilterScanReadout`, the
  same scan returning only its final step (a classifier's output
  block reads nothing else);
* ``repro.circuits.crossbar._CrossbarAffine``, a printed crossbar's
  ``x·Wᵀ + bias`` over every row, and
  ``repro.circuits.ptanh._PtanhTransfer``, the printed tanh's
  ``η₁ + η₂·tanh((x − η₃)·η₄)`` — one full-size node each, with the
  small ε-weighted parameter graphs left to the engine;
* ``repro.nn.rnn._ElmanScan``, which runs a whole Elman layer over the
  sequence with a reverse-time BPTT backward.

:func:`sum_rows` is their shared parameter-gradient reduction.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .tensor import ArrayLike, Tensor, _unbroadcast

__all__ = [
    "Function",
    "FunctionContext",
    "FilterScan",
    "FilterScanReadout",
    "filter_scan",
    "sum_rows",
]


def sum_rows(grad: np.ndarray) -> np.ndarray:
    """``grad.sum(axis=-2)``, bit for bit, at a fraction of its cost.

    Reduces the row axis of a ``(..., rows, n)`` gradient — the
    parameter-gradient reduction of every per-column printed circuit.
    ``np.sum`` over a non-last axis runs one short inner loop per row
    (2-3x slower at ``(5, 5760, 8)``); the row-order ``einsum`` adds the
    same rows in the same order and so returns the same bits.  A
    width-1 or non-contiguous gradient keeps ``np.sum``: there einsum
    would reduce along the rows with a reordered (vectorised) sum.
    """
    if grad.shape[-1] == 1 or not grad.flags.c_contiguous:
        return grad.sum(axis=-2)
    return np.einsum("...rk->...k", grad)


def _is_fresh(
    g: np.ndarray, i: int, grads: Tuple, ctx: "FunctionContext", grad: np.ndarray
) -> bool:
    """Whether gradient ``g`` for input ``i`` may become ``.grad`` as is.

    Only a freshly allocated array qualifies: it owns its C-contiguous
    data and shares no memory with anything the node can still reach —
    the incoming ``grad``, the saved state and array attributes of
    ``ctx`` (bare, or inside a tuple/list), or another returned
    gradient — so no later in-place ``+=`` into the buffer can leak.
    """
    if not (g.flags.owndata and g.flags.c_contiguous and g.flags.writeable):
        return False
    held = [grad, *ctx.saved, *(o for j, o in enumerate(grads) if j != i)]
    for value in vars(ctx).values():
        held.extend(value if isinstance(value, (tuple, list)) else (value,))
    return not any(
        isinstance(h, np.ndarray) and np.may_share_memory(h, g) for h in held
    )


class FunctionContext:
    """Per-invocation scratch space shared between forward and backward.

    ``forward`` stashes whatever intermediate arrays its analytic
    backward needs via :meth:`save_for_backward`; attributes may be
    assigned freely for non-array state (shapes, flags).
    ``needs_input_grad[i]`` tells the backward whether input ``i``
    requires a gradient at all, so it can skip dead computation.
    """

    __slots__ = ("saved", "needs_input_grad", "__dict__")

    def __init__(self) -> None:
        self.saved: Tuple[np.ndarray, ...] = ()
        self.needs_input_grad: Tuple[bool, ...] = ()

    def save_for_backward(self, *arrays: np.ndarray) -> None:
        """Keep arrays alive for the backward pass."""
        self.saved = tuple(arrays)

    @property
    def saved_arrays(self) -> Tuple[np.ndarray, ...]:
        """The arrays stored by :meth:`save_for_backward`."""
        return self.saved


class Function:
    """Base class for fused differentiable ops (one graph node each).

    Subclasses override :meth:`forward` and :meth:`backward` as
    *static* methods operating on raw ``numpy`` arrays; user code calls
    ``MyOp.apply(...)`` with tensors (or anything coercible).  The
    whole subclass computation appears as a single node in the autograd
    graph, so backpropagation through it costs one Python call instead
    of one per primitive op.
    """

    @staticmethod
    def forward(ctx: FunctionContext, *arrays: np.ndarray, **kwargs) -> np.ndarray:
        """Compute the op's value from raw arrays; save state on ``ctx``."""
        raise NotImplementedError

    @staticmethod
    def backward(
        ctx: FunctionContext, grad: np.ndarray
    ) -> Tuple[Optional[np.ndarray], ...]:
        """Return one gradient (or ``None``) per positional input.

        Gradients may be returned in the broadcast result shape — they
        are reduced to each input's shape by the caller.
        """
        raise NotImplementedError

    @classmethod
    def apply(cls, *inputs: ArrayLike, **kwargs) -> Tensor:
        """Run ``forward`` and wire a single backward node into the graph."""
        tensors: List[Tensor] = [
            t if isinstance(t, Tensor) else Tensor(t) for t in inputs
        ]
        ctx = FunctionContext()
        ctx.needs_input_grad = tuple(t.requires_grad for t in tensors)
        data = cls.forward(ctx, *[t.data for t in tensors], **kwargs)

        def backward_fn(grad: np.ndarray) -> None:
            grads = cls.backward(ctx, grad)
            if len(grads) != len(tensors):
                raise RuntimeError(
                    f"{cls.__name__}.backward returned {len(grads)} gradients "
                    f"for {len(tensors)} inputs"
                )
            for i, (tensor, g) in enumerate(zip(tensors, grads)):
                if not tensor.requires_grad or g is None:
                    continue
                g = _unbroadcast(np.asarray(g, dtype=tensor.data.dtype), tensor.shape)
                if tensor.grad is None and _is_fresh(g, i, grads, ctx, grad):
                    # The array becomes the buffer itself, sparing
                    # _accumulate_grad's first-touch copy.
                    tensor.grad = g
                else:
                    tensor._accumulate_grad(g)

        return Tensor._from_op(np.asarray(data), tensors, backward_fn, cls.__name__)


class FilterScan(Function):
    """Fused first-order IIR scan ``v_k = a ⊙ v_{k−1} + b ⊙ x_k``.

    Forward runs the whole time loop in numpy, writing into one
    preallocated output array — no per-step Tensor allocation, no
    ``stack`` node.  Backward runs the reverse-time adjoint scan
    analytically.  With ``ḡ_k = ∂L/∂v_k`` (direct) and
    ``g_k = ḡ_k + a ⊙ g_{k+1}`` (total, ``g_{T+1} = 0``):

    * ``∂L/∂x_k = b ⊙ g_k``
    * ``∂L/∂a   = Σ_k g_k ⊙ v_{k−1}``  (``v_0`` denoting the initial state)
    * ``∂L/∂b   = Σ_k g_k ⊙ x_k``
    * ``∂L/∂v0  = a ⊙ g_1``

    Shape-polymorphic over the Monte-Carlo draws axis: ``(draws, n)``
    coefficients gain a broadcast batch axis exactly like the unfused
    path (``a → (draws, 1, n)``), so fused and unfused forwards perform
    bit-identical arithmetic per element.
    """

    @staticmethod
    def forward(
        ctx: FunctionContext,
        x: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        v0: np.ndarray,
    ) -> np.ndarray:
        """Run the scan; the result is ``(..., time, n)``."""
        buf = _scan(ctx, x, a, b, v0)
        return np.moveaxis(buf, 0, -2)

    @staticmethod
    def backward(
        ctx: FunctionContext, grad: np.ndarray
    ) -> Tuple[Optional[np.ndarray], ...]:
        """Reverse-time adjoint scan, then the four input gradients."""
        buf = ctx.saved[-1]
        steps = buf.shape[0]
        # Same time-major trick as the forward: if ``grad`` is itself a
        # moveaxis view of a time-major buffer (a chained scan's
        # grad_x), this is a free view; otherwise one vectorized copy.
        grad_tm = np.ascontiguousarray(np.moveaxis(grad, -2, 0))
        # Only the adjoint recurrence g_k = ḡ_k + a ⊙ g_{k+1} is
        # inherently sequential; run it alone (2 ufunc calls per step,
        # writing every g_k into the time-major G buffer) and form the
        # input/coefficient gradients as whole-tensor vectorized ops
        # afterwards.  At the hot sizes the per-step ufunc dispatch
        # overhead, not the FLOPs, is the bottleneck.
        G = np.empty_like(buf)
        a_d = ctx.a_dense
        g = np.zeros(ctx.step_shape, dtype=buf.dtype)
        tmp = np.empty(ctx.step_shape, dtype=buf.dtype)
        for k in range(steps - 1, -1, -1):
            np.multiply(a_d, g, out=tmp)
            g = G[k]
            np.add(grad_tm[k], tmp, out=g)
        return _scan_grads(ctx, G)


class FilterScanReadout(FilterScan):
    """:class:`FilterScan` returning only the final step ``v_T``.

    The result is ``(..., n)``, equal to ``FilterScan``'s
    ``[..., -1, :]``.  Every step is still computed and kept (``∂L/∂a``
    needs them all), but the backward starts from ``ḡ_T`` alone: with
    ``ḡ_k = 0`` before the last step the adjoint is
    ``g_k = a ⊙ g_{k+1}``, one multiply per step, and no full-size zero
    gradient is scattered, copied or transposed.  Gradients equal the
    sliced full scan's bit for bit (adding the slice's zeros is exact).
    """

    @staticmethod
    def forward(
        ctx: FunctionContext,
        x: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        v0: np.ndarray,
    ) -> np.ndarray:
        """Run the scan; the result is its final step, ``(..., n)``."""
        return _scan(ctx, x, a, b, v0)[-1]

    @staticmethod
    def backward(
        ctx: FunctionContext, grad: np.ndarray
    ) -> Tuple[Optional[np.ndarray], ...]:
        """Adjoint seeded at the final step, then the input gradients."""
        buf = ctx.saved[-1]
        G = np.empty_like(buf)
        G[-1] = grad
        a_d = ctx.a_dense
        for k in range(buf.shape[0] - 2, -1, -1):
            np.multiply(a_d, G[k + 1], out=G[k])
        return _scan_grads(ctx, G)


def _dense(coef: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """``coef`` broadcast to ``shape`` as a contiguous array.

    A stride-0 broadcast operand roughly doubles numpy's per-call
    multiply cost at the hot sizes (with a size-``n`` inner loop run
    once per batch row), and the scans pay it per step or per element.
    """
    if coef.shape == shape:
        return coef
    return np.ascontiguousarray(np.broadcast_to(coef, shape))


def _scan(
    ctx: FunctionContext, x: np.ndarray, a: np.ndarray, b: np.ndarray, v0: np.ndarray
) -> np.ndarray:
    """The shared forward of the scans: the time-major state buffer.

    Returns ``buf`` of shape ``(time,) + step_shape`` with
    ``buf[k] = v_{k+1}``, and saves what :func:`_scan_grads` needs.
    """
    if a.ndim == 2:
        # (draws, n) -> (draws, 1, n): broadcast over the batch axis,
        # mirroring the unfused path's unsqueeze(1).
        a_e = a[:, None, :]
        b_e = b[:, None, :]
    else:
        a_e, b_e = a, b
    steps = x.shape[-2]
    step_shape = np.broadcast_shapes(
        a_e.shape, b_e.shape, v0.shape, x.shape[:-2] + x.shape[-1:]
    )
    # Time-major internal layout: buf[k] is a *contiguous* (..., n)
    # slab, so every per-step numpy call streams over contiguous memory
    # instead of the strided (..., k, :) views a (..., time, n) buffer
    # would force (~2x on the hot sizes).  FilterScan's caller-facing
    # result is a moveaxis view back to (..., time, n); when two scans
    # chain (SO-LF), stage 2's moveaxis of stage 1's view recovers the
    # contiguous buffer and the ascontiguousarray below is a no-op.
    x_tm = np.ascontiguousarray(np.moveaxis(x, -2, 0))
    # View x_tm at full rank (1s over any broadcast axes, e.g. a
    # missing draws axis) so time-leading stacked ops align; this is
    # shape metadata only, no copy.
    pad = 1 + len(step_shape) - x_tm.ndim
    x_tm_e = (
        x_tm.reshape(x_tm.shape[:1] + (1,) * pad + x_tm.shape[1:])
        if pad > 0
        else x_tm
    )
    dtype = np.result_type(x, a, b, v0)
    buf = np.empty((steps,) + step_shape, dtype=dtype)
    a_d = _dense(a_e, step_shape)
    b_d = _dense(b_e, step_shape)
    # Pre-fill every step's b ⊙ x_k term in ONE vectorized multiply
    # (b_d gains a leading time axis so it broadcasts against the
    # stacked x); the loop then only carries the irreducibly sequential
    # a ⊙ v part — 2 ufunc calls per step instead of 3, which matters
    # because ufunc dispatch overhead dominates on the small per-step
    # slabs printed circuits produce.
    np.multiply(b_d[None], x_tm_e, out=buf)
    tmp = np.empty(step_shape, dtype=dtype)
    v: np.ndarray = v0
    for k in range(steps):
        vk = buf[k]
        # vk = (b ⊙ x_k) + (a ⊙ v); the unfused node computes a*v + b*x
        # — IEEE addition is commutative, so the result is bit-equal.
        np.multiply(a_d, v, out=tmp)
        vk += tmp
        v = vk
    ctx.save_for_backward(x_tm_e, a, b, v0, buf)
    ctx.a_expanded_shape = a_e.shape
    ctx.b_expanded_shape = b_e.shape
    ctx.step_shape = step_shape
    ctx.a_dense = a_d
    ctx.b_dense = b_d
    return buf


def _scan_grads(
    ctx: FunctionContext, G: np.ndarray
) -> Tuple[Optional[np.ndarray], ...]:
    """Input gradients of a scan from its total adjoints ``G[k] = g_{k+1}``."""
    x_tm, a, b, v0, buf = ctx.saved
    need_x, need_a, need_b, need_v0 = ctx.needs_input_grad
    # ∂L/∂x_k = b ⊙ g_k for every k at once.
    grad_x = np.multiply(ctx.b_dense[None], G) if need_x else None
    # ∂L/∂a = Σ_k g_k ⊙ v_{k−1}: pair G[1:] with buf[:-1] (states
    # v_1..v_{T−1}) and add the initial-state term g_1 ⊙ v_0.
    if need_a:
        grad_a = np.einsum("k...,k...->...", G[1:], buf[:-1]) + G[0] * v0
    else:
        grad_a = None
    # ∂L/∂b = Σ_k g_k ⊙ x_k (x_tm broadcasts over any missing draws
    # axis exactly as in the forward).
    grad_b = np.einsum("k...,k...->...", G, x_tm) if need_b else None
    grad_v0 = a.reshape(ctx.a_expanded_shape) * G[0] if need_v0 else None

    # Coefficient gradients must be reduced against the *expanded*
    # operand shape first: the kernel inserts a middle batch axis
    # ((draws, n) -> (draws, 1, n)), which the caller's trailing-aligned
    # unbroadcast cannot infer on its own.
    if need_a:
        grad_a = _unbroadcast(grad_a, ctx.a_expanded_shape).reshape(a.shape)
    if need_b:
        grad_b = _unbroadcast(grad_b, ctx.b_expanded_shape).reshape(b.shape)
    if need_x:
        grad_x = np.moveaxis(grad_x, 0, -2)
    return grad_x, grad_a, grad_b, grad_v0


def filter_scan(x: ArrayLike, a: ArrayLike, b: ArrayLike, v0: ArrayLike) -> Tensor:
    """Differentiable fused RC recurrence ``v_k = a ⊙ v_{k−1} + b ⊙ x_k``.

    Parameters follow the learnable-filter layout (time axis at ``-2``):

    * sequential — ``x`` is ``(batch, time, n)``, ``a``/``b`` are
      ``(n,)``, ``v0`` is ``(batch, n)`` or ``(n,)``;
    * batched Monte-Carlo — ``a``/``b`` carry a leading draws axis
      ``(draws, n)`` and ``v0`` is ``(draws, batch, n)``; ``x`` may be
      the shared ``(batch, time, n)`` input (broadcast over draws) or a
      draw-dependent ``(draws, batch, time, n)`` stack.

    Returns ``(batch, time, n)`` or ``(draws, batch, time, n)``.  The
    whole scan is one autograd node; its backward is the analytic
    reverse-time adjoint (see :class:`FilterScan`).
    """
    return FilterScan.apply(x, a, b, v0)
