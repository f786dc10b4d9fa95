"""Free functions over :class:`~repro.autograd.tensor.Tensor`.

Multi-input graph builders (``stack``, ``where``) and the
numerically-stable log-softmax family used by the classification loss.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import ArrayLike, Tensor

__all__ = [
    "stack",
    "where",
    "maximum",
    "minimum",
    "log_softmax",
    "logsumexp",
    "outer",
]


def _as_tensor(x: ArrayLike) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    tensors = [_as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward_fn(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate_grad(np.squeeze(piece, axis=axis))

    return Tensor._from_op(data, tensors, backward_fn, "stack")


def where(condition: ArrayLike, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise select: ``a`` where condition is true, else ``b``."""
    cond = np.asarray(condition, dtype=bool)
    a_t, b_t = _as_tensor(a), _as_tensor(b)
    data = np.where(cond, a_t.data, b_t.data)

    def backward_fn(grad: np.ndarray) -> None:
        from .tensor import _unbroadcast

        if a_t.requires_grad:
            a_t._accumulate_grad(_unbroadcast(grad * cond, a_t.shape))
        if b_t.requires_grad:
            b_t._accumulate_grad(_unbroadcast(grad * ~cond, b_t.shape))

    return Tensor._from_op(data, (a_t, b_t), backward_fn, "where")


def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise maximum; ties route the gradient to the first operand."""
    a_t, b_t = _as_tensor(a), _as_tensor(b)
    return where(a_t.data >= b_t.data, a_t, b_t)


def minimum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise minimum; ties route the gradient to the first operand."""
    a_t, b_t = _as_tensor(a), _as_tensor(b)
    return where(a_t.data <= b_t.data, a_t, b_t)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically-stable log-sum-exp along ``axis`` (differentiable)."""
    x = _as_tensor(x)
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    out = (x - shift).exp().sum(axis=axis, keepdims=True).log() + shift
    if not keepdims:
        out = out.squeeze(axis=axis if axis >= 0 else axis + x.ndim)
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log of the softmax along ``axis``, computed stably."""
    x = _as_tensor(x)
    return x - logsumexp(x, axis=axis, keepdims=True)


def outer(a: Tensor, b: Tensor) -> Tensor:
    """Outer product of two 1-D tensors (differentiable)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("outer() expects 1-D tensors")
    return a.unsqueeze(1) * b.unsqueeze(0)
