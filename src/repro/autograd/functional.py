"""Free functions over :class:`~repro.autograd.tensor.Tensor`.

Multi-input graph builders (``stack``, ``concat``, ``where``) and the
numerically-stable softmax family used by the classification losses.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .precision import compute_dtype
from .tensor import ArrayLike, Tensor

__all__ = [
    "stack",
    "concat",
    "where",
    "maximum",
    "minimum",
    "softmax",
    "log_softmax",
    "logsumexp",
    "one_hot",
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


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis (differentiable)."""
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                t._accumulate_grad(grad[tuple(index)])

    return Tensor._from_op(data, tensors, backward_fn, "concat")


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


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, computed stably."""
    return log_softmax(x, axis=axis).exp()


def one_hot(labels: Union[np.ndarray, Sequence[int]], num_classes: int) -> np.ndarray:
    """One-hot encode integer labels into a ``(n, num_classes)`` array."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= num_classes):
        raise ValueError("label outside [0, num_classes)")
    out = np.zeros((labels.shape[0], num_classes), dtype=compute_dtype())
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def outer(a: Tensor, b: Tensor) -> Tensor:
    """Outer product of two 1-D tensors (differentiable)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("outer() expects 1-D tensors")
    return a.unsqueeze(1) * b.unsqueeze(0)
