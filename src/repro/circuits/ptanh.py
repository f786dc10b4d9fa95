"""Printed tanh-like activation circuit (Fig. 3b).

Transfer characteristic (Sec. II-B):

    V_out = ptanh(V_in) = η₁ + η₂ · tanh((V_in − η₃) · η₄)

The η parameters are determined by the component values
``q^A = [R₁, R₂, T₁, T₂]`` of the printed circuit; following the
learnable-nonlinear-circuit formulation of the pNC literature [12] we
train the η directly (with physically-plausible initialisation) and
subject each to multiplicative process variation.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..autograd import Tensor
from ..autograd.function import Function, FunctionContext, sum_rows
from ..nn.module import Module, Parameter
from .variation import VariationSampler, check_draws_input, ideal_sampler

__all__ = ["PrintedTanh"]


class _PtanhTransfer(Function):
    """``η₁ + η₂·tanh((x − η₃)·η₄)`` over every row as one graph node.

    ``x`` is ``(..., rows, n)``; each η is ``(n,)``, or ``(draws, n)``
    inside a batched-draws context, where it gains the broadcast batch
    axis here (``(draws, 1, n)``).  Forward runs the same ufuncs in the
    same order as the composed Tensor expression — so it is bit-equal —
    but builds three full-size arrays instead of five: it keeps
    ``z = x − η₃`` and ``t = tanh(z·η₄)`` for the backward.

    Backward, with ``g`` the output gradient, in place where it can be:
    ``dz = g·η₂·(1 − t²)``, ``∂L/∂x = dz·η₄``, and the row sums
    ``∂L/∂η₁ = Σg``, ``∂L/∂η₂ = Σg·t``, ``∂L/∂η₃ = −Σ∂L/∂x``,
    ``∂L/∂η₄ = Σdz·z`` (:func:`~repro.autograd.function.sum_rows`).
    Every product is the one the composed graph's backward forms, so the
    gradients are bit-equal too.
    """

    @staticmethod
    def forward(
        ctx: FunctionContext,
        x: np.ndarray,
        eta1: np.ndarray,
        eta2: np.ndarray,
        eta3: np.ndarray,
        eta4: np.ndarray,
    ) -> np.ndarray:
        if eta1.ndim == 2:
            # (draws, n) -> (draws, 1, n): broadcast over the batch axis.
            eta1, eta2, eta3, eta4 = (e[:, None, :] for e in (eta1, eta2, eta3, eta4))
        z = np.subtract(x, eta3)
        t = np.multiply(z, eta4)
        np.tanh(t, out=t)
        out = np.multiply(eta2, t)
        # η₁ + η₂·t: IEEE addition commutes, so adding in place is bit-equal.
        out += eta1
        ctx.save_for_backward(z, t, eta2, eta4)
        return out

    @staticmethod
    def backward(
        ctx: FunctionContext, grad: np.ndarray
    ) -> Tuple[Optional[np.ndarray], ...]:
        z, t, eta2, eta4 = ctx.saved
        need_x, need1, need2, need3, need4 = ctx.needs_input_grad
        grad1 = sum_rows(grad) if need1 else None
        dz = np.multiply(grad, eta2)
        tmp = np.multiply(t, t)
        np.subtract(1.0, tmp, out=tmp)
        dz *= tmp
        grad2 = None
        if need2:
            np.multiply(grad, t, out=tmp)
            grad2 = sum_rows(tmp)
        grad_x = np.multiply(dz, eta4) if need_x or need3 else None
        grad3 = None
        if need3:
            grad3 = sum_rows(grad_x)
            np.negative(grad3, out=grad3)
        grad4 = None
        if need4:
            dz *= z
            grad4 = sum_rows(dz)
        return grad_x if need_x else None, grad1, grad2, grad3, grad4


class PrintedTanh(Module):
    """Per-neuron learnable printed tanh activation with variation.

    Parameters
    ----------
    num_neurons:
        Independent activation circuits (one per crossbar column).
    sampler:
        Variation source; ideal when omitted.
    rng:
        Initialisation generator; η₂ (output swing) and η₄ (input gain)
        start near the printed circuit's measured characteristic,
        η₁/η₃ (offsets) near zero.
    """

    def __init__(
        self,
        num_neurons: int,
        sampler: Optional[VariationSampler] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_neurons <= 0:
            raise ValueError("num_neurons must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.num_neurons = num_neurons
        self.sampler = sampler if sampler is not None else ideal_sampler()
        self.eta1 = Parameter(rng.normal(0.0, 0.02, size=num_neurons))
        self.eta2 = Parameter(rng.uniform(0.8, 1.2, size=num_neurons))
        self.eta3 = Parameter(rng.normal(0.0, 0.02, size=num_neurons))
        self.eta4 = Parameter(rng.uniform(1.5, 2.5, size=num_neurons))

    def forward(self, x: Tensor) -> Tensor:
        """Apply the per-neuron nonlinearity.

        ``x`` has shape ``(batch, num_neurons)``; each column uses its
        own η set with a fresh variation draw.  Inside a batched-draws
        sampler context a leading Monte-Carlo axis of exactly the
        active draw count is also accepted
        (``(draws, batch, num_neurons)``), with one η draw per
        Monte-Carlo instance; a 2-D input is broadcast across draws.
        """
        check_draws_input(x, self.num_neurons, self.sampler)
        n = self.num_neurons
        e1 = Tensor(self.sampler.epsilon((n,)))
        e2 = Tensor(self.sampler.epsilon((n,)))
        e3 = Tensor(self.sampler.epsilon((n,)))
        e4 = Tensor(self.sampler.epsilon((n,)))
        return _PtanhTransfer.apply(
            x, self.eta1 * e1, self.eta2 * e2, self.eta3 * e3, self.eta4 * e4
        )

    def __repr__(self) -> str:
        return f"PrintedTanh(num_neurons={self.num_neurons})"
