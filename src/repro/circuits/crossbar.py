"""Differentiable printed resistor crossbar (Fig. 3a, Eq. 1).

A crossbar column computes a voltage-domain weighted sum

    V_out = Σ_i (g_i / G) V_i + g_b / G,     G = Σ_i g_i + g_b + g_d,

where every g is a printed conductance.  Negative weights route the
input through a printed inverter (Fig. 3c).  Training follows the
surrogate-conductance formulation of the pNC literature [12, 15]: a
signed surrogate θ per crossing, with ``|θ|`` the conductance in
normalised units and ``sign(θ)`` selecting the inverter path.

Process variation enters as multiplicative factors ε on every
conductance and on the inverter gain, drawn from the module's
:class:`~repro.circuits.variation.VariationSampler` at each forward
call (fresh draw per Monte-Carlo sample, Eq. 13).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..autograd import Tensor
from ..autograd.function import Function, FunctionContext, sum_rows
from ..nn.module import Module, Parameter
from .pdk import DEFAULT_PDK, PrintedPDK
from .variation import VariationSampler, check_draws_input, ideal_sampler

__all__ = ["PrintedCrossbar", "THETA_MIN", "THETA_MAX"]

#: Surrogate-conductance range in normalised units.  Conductances below
#: THETA_MIN are not printable and the crossing is left open (pruned).
THETA_MIN = 0.01
THETA_MAX = 1.0


class _CrossbarAffine(Function):
    """The crossbar's full-size affine ``x·Wᵀ + bias`` as one graph node.

    ``x`` is ``(..., rows, in)``, the ε-weighted ``W`` is
    ``(..., out, in)`` and the bias ``(..., out)``; the result is
    ``(..., rows, out)``.  Forward is one ``matmul`` and an in-place
    bias add — the same GEMM and the same additions as
    ``x @ W.swapaxes(-1, -2) + bias.unsqueeze(-2)`` on Tensors, so the
    values are bit-equal to that composition.  Backward keeps the
    engine's own GEMM shapes (``∂L/∂x = g·W``, ``∂L/∂W = (xᵀ·g)ᵀ``) and
    reduces the bias gradient with :func:`~repro.autograd.function.sum_rows`,
    so the gradients are bit-equal too.
    """

    @staticmethod
    def forward(
        ctx: FunctionContext, x: np.ndarray, w: np.ndarray, bias: np.ndarray
    ) -> np.ndarray:
        # Batched matmul broadcasts (batch, in) @ (draws, in, out) to
        # (draws, batch, out) — one numpy GEMM per draw, no Python loop.
        out = np.matmul(x, np.swapaxes(w, -1, -2))
        out += bias[..., None, :]
        ctx.save_for_backward(x, w)
        return out

    @staticmethod
    def backward(
        ctx: FunctionContext, grad: np.ndarray
    ) -> Tuple[Optional[np.ndarray], ...]:
        x, w = ctx.saved
        need_x, need_w, need_bias = ctx.needs_input_grad
        grad_x = np.matmul(grad, w) if need_x else None
        grad_w = (
            np.swapaxes(np.matmul(np.swapaxes(x, -1, -2), grad), -1, -2)
            if need_w
            else None
        )
        grad_bias = sum_rows(grad) if need_bias else None
        return grad_x, grad_w, grad_bias


class PrintedCrossbar(Module):
    """One layer of printed crossbar columns (``n_out`` weighted sums).

    Parameters
    ----------
    in_features, out_features:
        Number of input voltage rails and output columns.
    sampler:
        Source of variation draws; ideal (ε ≡ 1) when omitted.
    pdk:
        Technology used to map normalised conductances to printable
        resistances (power/device accounting).
    rng:
        Initialisation generator.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        sampler: Optional[VariationSampler] = None,
        pdk: PrintedPDK = DEFAULT_PDK,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("crossbar dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.sampler = sampler if sampler is not None else ideal_sampler()
        self.pdk = pdk

        # Signed surrogate conductances.  Init keeps |θ| comfortably
        # inside the printable window and mixes signs evenly.
        scale = 1.0 / np.sqrt(in_features + 2)
        magnitude = rng.uniform(0.1, 0.5, size=(out_features, in_features)) * scale * 3
        sign = rng.choice([-1.0, 1.0], size=(out_features, in_features))
        self.theta = Parameter(magnitude * sign)
        self.theta_b = Parameter(rng.uniform(-0.2, 0.2, size=out_features))
        self.theta_d = Parameter(rng.uniform(0.2, 0.6, size=out_features))

    # -- conductance views --------------------------------------------------

    def _magnitudes(self) -> tuple[Tensor, Tensor, Tensor, np.ndarray]:
        """Printable conductance magnitudes and the pruning mask.

        Crossings with ``|θ| < THETA_MIN`` are open circuits: they
        contribute no conductance and receive no gradient (they were
        pruned from the layout).  The remaining magnitudes are clamped
        at the printable maximum.
        """
        mag = self.theta.abs()
        mask = (np.abs(self.theta.data) >= THETA_MIN).astype(self.theta.data.dtype)
        g = mag.clip(0.0, THETA_MAX) * mask
        g_b = self.theta_b.abs().clip(0.0, THETA_MAX)
        g_d = self.theta_d.abs().clip(THETA_MIN, THETA_MAX)
        return g, g_b, g_d, mask

    def forward(self, x: Tensor) -> Tensor:
        """Weighted sum of a batch of input voltages.

        Parameters
        ----------
        x:
            Input voltages, shape ``(batch, in_features)``.  Inside a
            batched-draws sampler context a leading Monte-Carlo axis of
            exactly the active draw count is also accepted
            (``(draws, batch, in_features)``), or the 2-D input is
            broadcast across draws.

        Returns
        -------
        Output voltages, shape ``(batch, out_features)`` — with a
        leading ``draws`` axis in batched mode.
        """
        check_draws_input(x, self.in_features, self.sampler)
        g, g_b, g_d, _ = self._magnitudes()

        # In batched mode every ε gains a leading draws axis.
        eps = Tensor(self.sampler.epsilon((self.out_features, self.in_features)))
        eps_b = Tensor(self.sampler.epsilon((self.out_features,)))
        eps_d = Tensor(self.sampler.epsilon((self.out_features,)))
        # Inverter non-ideality: gain = -(1 ⊙ ε_inv) on inverted rails.
        inv_gain = Tensor(self.sampler.epsilon((self.out_features, self.in_features)))

        g_eps = g * eps  # (out, in) or (draws, out, in)
        gb_eps = g_b * eps_b
        gd_eps = g_d * eps_d
        denom = g_eps.sum(axis=-1) + gb_eps + gd_eps  # (out,) / (draws, out)

        # Positive crossings pass the rail directly (gain +1); negative
        # ones pass the inverted rail, whose gain -ε_inv carries the
        # inverter's own process variation.
        positive = np.sign(self.theta.data) >= 0
        direct = Tensor(np.where(positive, 1.0, 0.0))
        inverted = Tensor(np.where(positive, 0.0, -1.0))
        path = direct + inv_gain * inverted

        weights = path * g_eps / denom.unsqueeze(-1)  # (..., out, in)
        bias_sign = Tensor(np.sign(self.theta_b.data))
        bias = bias_sign * gb_eps / denom * self.pdk.supply_voltage  # (..., out)
        return _CrossbarAffine.apply(x, weights, bias)

    # -- hardware accounting ---------------------------------------------------

    def printable_resistances(self) -> np.ndarray:
        """Physical resistance (Ω) of every printable crossing.

        Normalised conductance 1.0 maps to the PDK's minimum crossbar
        resistance; THETA_MIN maps to its maximum.
        """
        g, g_b, g_d, mask = self._magnitudes()
        all_g = np.concatenate(
            [
                (g.data * mask).reshape(-1),
                np.abs(self.theta_b.data),
                g_d.data.reshape(-1),
            ]
        )
        all_g = all_g[all_g >= THETA_MIN]
        g_unit = 1.0 / (self.pdk.crossbar_r_min * THETA_MAX)
        return 1.0 / (all_g * g_unit)

    def count_input_resistors(self) -> int:
        """Printable input crossings (pruned ones excluded)."""
        return int((np.abs(self.theta.data) >= THETA_MIN).sum())

    def count_bias_resistors(self) -> int:
        """Bias + dummy resistors (one pair per output column)."""
        bias = int((np.abs(self.theta_b.data) >= THETA_MIN).sum())
        return bias + self.out_features  # dummy g_d always present

    def count_inverters(self) -> int:
        """Inverters needed: one per negative printable crossing, plus
        one per negative bias."""
        neg = (self.theta.data < -THETA_MIN).sum()
        neg_bias = (self.theta_b.data < -THETA_MIN).sum()
        return int(neg + neg_bias)

    def weight_matrix(self) -> np.ndarray:
        """Nominal effective signed weights (no variation) — analysis aid."""
        g, g_b, g_d, mask = self._magnitudes()
        denom = g.data.sum(axis=1) + g_b.data + g_d.data
        return np.sign(self.theta.data) * g.data / denom[:, None]

    def __repr__(self) -> str:
        return (
            f"PrintedCrossbar(in={self.in_features}, out={self.out_features}, "
            f"pdk={self.pdk.name!r})"
        )
