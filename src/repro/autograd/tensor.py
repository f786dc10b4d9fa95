"""Reverse-mode automatic differentiation on numpy arrays.

This module is the PyTorch substitute for the ADAPT-pNC reproduction:
the paper trains printed-circuit component values by backpropagating
through the discrete-time circuit equations, which requires nothing more
than a correct reverse-mode engine over elementwise arithmetic, matrix
products, reductions, indexing and a handful of nonlinearities.

Design
------
Every :class:`Tensor` wraps a floating-point ``numpy.ndarray`` whose
dtype is resolved from the process-level precision policy
(:mod:`repro.autograd.precision`; ``float64`` by default — the
bit-equal oracle — with ``float32``/``mixed`` compute policies for the
bandwidth-bound hot path).  An operation on tensors produces a new
tensor holding references to its parents and a closure that, given the
gradient of the loss w.r.t. the output, accumulates gradients into the
parents.  :meth:`Tensor.backward` runs the closures in reverse
topological order; gradients are kept in each tensor's own dtype.

Broadcasting follows numpy semantics; gradients flowing into a
broadcast operand are reduced back to its shape by
:func:`_unbroadcast`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .context import is_grad_enabled
from .precision import compute_dtype

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

__all__ = ["Tensor", "ArrayLike"]


def _as_array(data: ArrayLike) -> np.ndarray:
    """Coerce input data to a numpy array in the policy compute dtype."""
    if isinstance(data, Tensor):
        return data.data
    return np.asarray(data, dtype=compute_dtype())


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (shape of a broadcast result) back to ``shape``.

    Sums over the leading dimensions numpy prepended and over every axis
    where the operand had size 1 but the result did not.
    """
    if grad.shape == shape:
        return grad
    # Remove prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Collapse broadcast (size-1) axes.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(index) -> bool:
    """True when ``index`` uses only basic (non-fancy) numpy indexing.

    Basic indices (ints, slices, ``Ellipsis``, ``None``) select every
    element at most once, so the gradient scatter can use a plain
    in-place add instead of the much slower ``np.add.at``.
    """
    parts = index if isinstance(index, tuple) else (index,)
    return all(
        part is Ellipsis
        or part is None
        or isinstance(part, (int, np.integer, slice))
        for part in parts
    )


class Tensor:
    """A numpy-backed tensor with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to a numpy array in the active policy's
        compute dtype (``float64`` under the default policy).
    requires_grad:
        Whether the tensor should accumulate gradients in
        :attr:`grad` when :meth:`backward` is called on a descendant.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op")

    # Ensure numpy defers to Tensor.__radd__ etc. for ndarray (op) Tensor.
    __array_priority__ = 100.0

    def __init__(self, data: ArrayLike, requires_grad: bool = False) -> None:
        self.data: np.ndarray = _as_array(data)
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._parents: Tuple[Tensor, ...] = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None
        self._op: str = ""

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        """Tensor of zeros with the given shape."""
        return Tensor(np.zeros(shape, dtype=compute_dtype()), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        """Tensor of ones with the given shape."""
        return Tensor(np.ones(shape, dtype=compute_dtype()), requires_grad=requires_grad)

    @staticmethod
    def full(shape: Sequence[int], value: float, requires_grad: bool = False) -> "Tensor":
        """Tensor filled with ``value``."""
        return Tensor(
            np.full(tuple(shape), float(value), dtype=compute_dtype()),
            requires_grad=requires_grad,
        )

    @staticmethod
    def eye(n: int, requires_grad: bool = False) -> "Tensor":
        """Identity matrix of size ``n``."""
        return Tensor(np.eye(n, dtype=compute_dtype()), requires_grad=requires_grad)

    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        """Build the result tensor of an op, wiring the graph if needed."""
        parents = tuple(parents)
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = cls(data)
        out.requires_grad = requires
        if requires:
            # Keep only grad-bearing parents: backward()'s topo walk
            # never descends into the others, so dropping them up front
            # removes dead DFS work on every interpreted backward.
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward_fn = backward_fn
            out._op = op
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def T(self) -> "Tensor":
        """Transpose (reverses all axes)."""
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_flag})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return a copy of the underlying data as a numpy array."""
        return self.data.copy()

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but detached from the graph."""
        out = Tensor(self.data)
        return out

    # ------------------------------------------------------------------
    # Gradient plumbing
    # ------------------------------------------------------------------

    def _accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's ``.grad`` buffer.

        The first accumulation materialises ``grad`` with one copy
        (which also densifies stride-0 broadcast views) instead of a
        ``zeros_like`` write followed by ``+=`` — one full memory pass
        saved on every tensor in the graph.
        """
        if self.grad is None:
            if grad.shape == self.data.shape:
                self.grad = np.array(grad, dtype=self.data.dtype)
                return
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def zero_grad(self) -> None:
        """Reset the gradient buffer to ``None``."""
        self.grad = None

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  May be
            omitted only for scalar tensors (implied to be 1.0).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = np.broadcast_to(_as_array(grad), self.data.shape).astype(self.data.dtype)

        # Topological order via iterative DFS (recursion-free: RNN graphs
        # over long sequences would overflow Python's stack otherwise).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate_grad(grad)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other_t.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(_unbroadcast(grad, self.shape))
            if other_t.requires_grad:
                other_t._accumulate_grad(_unbroadcast(grad, other_t.shape))

        return Tensor._from_op(data, (self, other_t), backward_fn, "add")

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other_t.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(_unbroadcast(grad, self.shape))
            if other_t.requires_grad:
                other_t._accumulate_grad(_unbroadcast(-grad, other_t.shape))

        return Tensor._from_op(data, (self, other_t), backward_fn, "sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other_t.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(_unbroadcast(grad * other_t.data, self.shape))
            if other_t.requires_grad:
                other_t._accumulate_grad(_unbroadcast(grad * self.data, other_t.shape))

        return Tensor._from_op(data, (self, other_t), backward_fn, "mul")

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other_t.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(_unbroadcast(grad / other_t.data, self.shape))
            if other_t.requires_grad:
                other_t._accumulate_grad(
                    _unbroadcast(-grad * self.data / other_t.data**2, other_t.shape)
                )

        return Tensor._from_op(data, (self, other_t), backward_fn, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(-grad)

        return Tensor._from_op(data, (self,), backward_fn, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp(b*log(a))")
        exponent = float(exponent)
        data = self.data**exponent

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(grad * exponent * self.data ** (exponent - 1.0))

        return Tensor._from_op(data, (self,), backward_fn, "pow")

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other_t.data

        def backward_fn(grad: np.ndarray) -> None:
            a, b = self.data, other_t.data
            if self.requires_grad:
                if b.ndim == 1:
                    # (..., n) @ (n,) -> (...,): grad has shape (...,)
                    grad_a = np.multiply.outer(grad, b) if grad.ndim else grad * b
                    self._accumulate_grad(_unbroadcast(np.asarray(grad_a), self.shape))
                elif a.ndim == 1:
                    self._accumulate_grad(_unbroadcast(grad @ np.swapaxes(b, -1, -2), self.shape))
                else:
                    self._accumulate_grad(
                        _unbroadcast(grad @ np.swapaxes(b, -1, -2), self.shape)
                    )
            if other_t.requires_grad:
                if a.ndim == 1:
                    grad_b = np.multiply.outer(a, grad) if grad.ndim else a * grad
                    other_t._accumulate_grad(_unbroadcast(np.asarray(grad_b), other_t.shape))
                elif b.ndim == 1:
                    grad_b = np.swapaxes(a, -1, -2) @ grad[..., None]
                    other_t._accumulate_grad(_unbroadcast(grad_b[..., 0], other_t.shape))
                else:
                    other_t._accumulate_grad(
                        _unbroadcast(np.swapaxes(a, -1, -2) @ grad, other_t.shape)
                    )

        return Tensor._from_op(data, (self, other_t), backward_fn, "matmul")

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__matmul__(self)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------

    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        data = np.exp(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(grad * data)

        return Tensor._from_op(data, (self,), backward_fn, "exp")

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        data = np.log(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(grad / self.data)

        return Tensor._from_op(data, (self,), backward_fn, "log")

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        data = np.sqrt(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(grad * 0.5 / data)

        return Tensor._from_op(data, (self,), backward_fn, "sqrt")

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        data = np.tanh(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(grad * (1.0 - data**2))

        return Tensor._from_op(data, (self,), backward_fn, "tanh")

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid."""
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(grad * data * (1.0 - data))

        return Tensor._from_op(data, (self,), backward_fn, "sigmoid")

    def relu(self) -> "Tensor":
        """Elementwise rectified linear unit."""
        mask = self.data > 0
        data = self.data * mask

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(grad * mask)

        return Tensor._from_op(data, (self,), backward_fn, "relu")

    def abs(self) -> "Tensor":
        """Elementwise absolute value (subgradient 0 at 0)."""
        data = np.abs(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(grad * np.sign(self.data))

        return Tensor._from_op(data, (self,), backward_fn, "abs")

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]``; gradient is zero outside."""
        data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(grad * mask)

        return Tensor._from_op(data, (self,), backward_fn, "clip")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------

    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        """Sum over the given axis (or everything)."""
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward_fn(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate_grad(np.broadcast_to(g, self.shape).astype(self.data.dtype))

        return Tensor._from_op(np.asarray(data), (self,), backward_fn, "sum")

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over the given axis (or everything)."""
        data = self.data.mean(axis=axis, keepdims=keepdims)
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]

        def backward_fn(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad / count
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            # The stride-0 broadcast view is densified (one copy) by
            # _accumulate_grad itself; no eager astype copy needed.
            g = np.asarray(g, dtype=self.data.dtype)
            self._accumulate_grad(np.broadcast_to(g, self.shape))

        return Tensor._from_op(np.asarray(data), (self,), backward_fn, "mean")

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Maximum over an axis; ties split the gradient equally."""
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward_fn(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            d = data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                d = np.expand_dims(d, axis=axis)
            mask = (self.data == d).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate_grad(mask * g)

        return Tensor._from_op(np.asarray(data), (self,), backward_fn, "max")

    def min(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Minimum over an axis; ties split the gradient equally."""
        return (-self).max(axis=axis, keepdims=keepdims).__neg__()

    def var(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Population variance built from differentiable primitives.

        A single ``diff = self - mu`` node is squared as ``diff * diff``
        — building ``(self - mu)`` twice would add a redundant graph
        node and a second full-size temporary per call.
        """
        mu = self.mean(axis=axis, keepdims=True)
        diff = self - mu
        return (diff * diff).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        """Reshape without copying semantics for gradients."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.shape

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = grad.reshape(original)  # a copy when not a view: install it
                if (self.grad is None and g.dtype == self.data.dtype
                        and not np.may_share_memory(g, grad)):
                    self.grad = g
                else:
                    self._accumulate_grad(g)

        return Tensor._from_op(data, (self,), backward_fn, "reshape")

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        """Interchange two axes (differentiable).

        Unlike :attr:`T` (which reverses *all* axes) this swaps exactly
        two — the building block for batched matrix products such as the
        Monte-Carlo crossbar path, where ``(draws, out, in)`` weight
        stacks must become ``(draws, in, out)`` operands.
        """
        data = np.swapaxes(self.data, axis1, axis2)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(np.swapaxes(grad, axis1, axis2))

        return Tensor._from_op(data, (self,), backward_fn, "swapaxes")

    def transpose(self, *axes: int) -> "Tensor":
        """Permute axes (all reversed when no axes given)."""
        ax: Optional[Tuple[int, ...]] = axes if axes else None
        if ax is not None and len(ax) == 1 and isinstance(ax[0], (tuple, list)):
            ax = tuple(ax[0])
        data = self.data.transpose(ax)

        def backward_fn(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if ax is None:
                self._accumulate_grad(grad.transpose())
            else:
                inverse = np.argsort(ax)
                self._accumulate_grad(grad.transpose(inverse))

        return Tensor._from_op(data, (self,), backward_fn, "transpose")

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        basic = _is_basic_index(index)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                if basic:
                    # Basic (slice/int/ellipsis) indexing selects each
                    # element at most once, so a plain in-place add is
                    # correct and much faster than ``np.add.at`` — this
                    # is the hot path of the unrolled filter recurrence.
                    full[index] += grad
                else:
                    np.add.at(full, index, grad)
                self._accumulate_grad(full)

        return Tensor._from_op(np.asarray(data), (self,), backward_fn, "getitem")

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        """Remove size-1 axes."""
        new_shape = tuple(
            s
            for i, s in enumerate(self.shape)
            if not (s == 1 and (axis is None or i == axis or i == axis + self.ndim))
        )
        return self.reshape(new_shape)

    def unsqueeze(self, axis: int) -> "Tensor":
        """Insert a size-1 axis at ``axis``."""
        new_shape = list(self.shape)
        if axis < 0:
            axis += self.ndim + 1
        new_shape.insert(axis, 1)
        return self.reshape(tuple(new_shape))

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable, return plain numpy bool arrays)
    # ------------------------------------------------------------------

    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)
