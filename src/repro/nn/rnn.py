"""Elman recurrent networks — the paper's hardware-agnostic reference.

The paper compares against a 2-layer Elman RNN "as implemented in
PyTorch" (Table I).  :class:`ElmanRNN` follows ``torch.nn.RNN``
semantics: per layer,

    h_t = tanh(W_ih x_t + b_ih + W_hh h_{t-1} + b_hh)

with the sequence convention ``(batch, time, features)``.

:class:`ElmanCell` holds one layer's parameters and is the single-step
oracle.  :class:`ElmanRNN` runs each layer over the whole sequence as
*one* autograd node (:class:`_ElmanScan`): the input projection is one
matmul over the time-major block, only the ``h·W_hhᵀ`` recurrence is
stepped, and the backward is reverse-time BPTT with the weight
gradients formed as whole-block GEMMs.  Its forward performs the cell's
operations in the cell's order, so outputs are bit-equal to stepping
:class:`ElmanCell`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..autograd import Tensor
from ..autograd.function import Function, FunctionContext
from . import init
from .containers import ModuleList
from .module import Module, Parameter

__all__ = ["ElmanCell", "ElmanRNN"]


class ElmanCell(Module):
    """Single Elman recurrence step with tanh nonlinearity."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("sizes must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(init.xavier_uniform((hidden_size, input_size), rng))
        self.weight_hh = Parameter(init.xavier_uniform((hidden_size, hidden_size), rng))
        self.bias_ih = Parameter(np.zeros(hidden_size))
        self.bias_hh = Parameter(np.zeros(hidden_size))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        """One step: ``x`` is ``(batch, input)``, ``h`` is ``(batch, hidden)``."""
        pre = x @ self.weight_ih.T + self.bias_ih + h @ self.weight_hh.T + self.bias_hh
        return pre.tanh()

    def initial_state(self, batch: int) -> Tensor:
        """Zero initial hidden state for a batch."""
        return Tensor(np.zeros((batch, self.hidden_size)))


class _ElmanScan(Function):
    """One Elman layer over a whole ``(batch, time, in)`` sequence.

    A single graph node in place of the ~9 per step that stepping
    :class:`ElmanCell` builds.  Inputs are ``x`` ``(batch, time, in)``,
    ``W_ih``, ``b_ih``, ``W_hh``, ``b_hh`` and ``h0`` ``(batch, hidden)``;
    the result is ``(batch, time, hidden)``, a view of a time-major
    buffer (so a layer stacked on top reads it without a copy).

    Forward projects every step's input in one ``matmul`` over the
    time-major block (numpy runs one GEMM per step at the cell's own
    ``(batch, in)`` shape), then steps only the recurrence, in place and
    in the cell's order ``((x·W_ihᵀ + b_ih) + h·W_hhᵀ) + b_hh`` — so the
    outputs are bit-equal to stepping the cell.

    Backward is reverse-time BPTT carrying only ``dh``.  With
    ``D_k = 1 − h_k²`` and ``g_k`` the gradient reaching ``h_k`` from
    outside the layer, ``δ_k = D_k ⊙ (g_k + δ_{k+1}·W_hh)`` is the
    gradient of the pre-activation; then

    * ``∂L/∂W_ih = Σ_k δ_kᵀ x_k`` and ``∂L/∂W_hh = Σ_k δ_kᵀ h_{k−1}``
      (``h_{−1}`` denoting ``h0``), each one GEMM over the block;
    * ``∂L/∂b_ih = ∂L/∂b_hh = Σ_k δ_k``;
    * ``∂L/∂x_k = δ_k W_ih`` and ``∂L/∂h0 = δ_0 W_hh``.
    """

    @staticmethod
    def forward(
        ctx: FunctionContext,
        x: np.ndarray,
        w_ih: np.ndarray,
        b_ih: np.ndarray,
        w_hh: np.ndarray,
        b_hh: np.ndarray,
        h0: np.ndarray,
    ) -> np.ndarray:
        dtype = np.result_type(x, w_ih, b_ih, w_hh, b_hh, h0)
        # Time-major: every step reads and writes a contiguous
        # (batch, ·) slab.  A stacked layer's input is the layer below's
        # moveaxis view, so this is a no-op copy from layer 2 on.
        x_tm = np.ascontiguousarray(np.moveaxis(x, 1, 0))
        h_all = np.matmul(x_tm, w_ih.T).astype(dtype, copy=False)
        h_all += b_ih
        w_hh_t = w_hh.T
        rec = np.empty(h0.shape, dtype=dtype)
        h = h0
        for k in range(h_all.shape[0]):
            hk = h_all[k]
            np.matmul(h, w_hh_t, out=rec)
            hk += rec
            hk += b_hh
            np.tanh(hk, out=hk)
            h = hk
        ctx.save_for_backward(x_tm, w_ih, w_hh, h0, h_all)
        return np.moveaxis(h_all, 0, 1)

    @staticmethod
    def backward(
        ctx: FunctionContext, grad: np.ndarray
    ) -> Tuple[Optional[np.ndarray], ...]:
        x_tm, w_ih, w_hh, h0, h_all = ctx.saved
        need_x, need_w_ih, need_b_ih, need_w_hh, need_b_hh, need_h0 = (
            ctx.needs_input_grad
        )
        steps, batch, hidden = h_all.shape
        g_tm = np.moveaxis(grad, 1, 0)
        # delta[k] starts as D_k = 1 − h_k² and becomes δ_k in place.
        delta = np.multiply(h_all, h_all)
        np.subtract(1.0, delta, out=delta)
        dh = np.zeros((batch, hidden), dtype=delta.dtype)
        tmp = np.empty_like(dh)
        for k in range(steps - 1, -1, -1):
            dk = delta[k]
            np.add(g_tm[k], dh, out=tmp)
            dk *= tmp
            np.matmul(dk, w_hh, out=dh)
        flat = delta.reshape(steps * batch, hidden)
        grad_x = np.moveaxis(np.matmul(delta, w_ih), 0, 1) if need_x else None
        grad_w_ih = (
            flat.T @ x_tm.reshape(steps * batch, -1) if need_w_ih else None
        )
        if need_w_hh:
            grad_w_hh = delta[0].T @ h0
            if steps > 1:
                grad_w_hh += flat[batch:].T @ h_all[:-1].reshape(-1, hidden)
        else:
            grad_w_hh = None
        grad_b = flat.sum(axis=0) if need_b_ih or need_b_hh else None
        return (
            grad_x,
            grad_w_ih,
            grad_b if need_b_ih else None,
            grad_w_hh,
            grad_b if need_b_hh else None,
            dh if need_h0 else None,
        )


class ElmanRNN(Module):
    """Stacked Elman RNN over a ``(batch, time, features)`` sequence.

    Returns the full output sequence of the top layer and the final
    hidden state of every layer.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_layers <= 0:
            raise ValueError("num_layers must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        cells = []
        for layer in range(num_layers):
            in_size = input_size if layer == 0 else hidden_size
            cells.append(ElmanCell(in_size, hidden_size, rng=rng))
        self.cells = ModuleList(cells)

    def forward(
        self, x: Tensor, h0: Optional[List[Tensor]] = None
    ) -> Tuple[Tensor, List[Tensor]]:
        """Run the stack over a sequence.

        Parameters
        ----------
        x:
            Input of shape ``(batch, time, input_size)``.
        h0:
            Optional list of per-layer initial states, each exactly
            ``(batch, hidden)``; any other shape raises ``ValueError``
            (states are not broadcast across the batch).

        Returns
        -------
        outputs:
            Top-layer hidden states, shape ``(batch, time, hidden_size)``.
        final_states:
            Final hidden state per layer.
        """
        if x.ndim != 3 or x.shape[-1] != self.input_size:
            raise ValueError(
                f"expected (batch, time, {self.input_size}) = (batch, time, "
                f"input_size), got shape {x.shape}"
            )
        batch, steps, _ = x.shape
        if steps == 0:
            raise ValueError("expected at least one time step")
        if h0 is None:
            states = [cell.initial_state(batch) for cell in self.cells]
        else:
            states = [h if isinstance(h, Tensor) else Tensor(h) for h in h0]
            if len(states) != self.num_layers:
                raise ValueError("h0 must supply one state per layer")
            expected = (batch, self.hidden_size)
            for layer, h in enumerate(states):
                if h.shape != expected:
                    raise ValueError(
                        f"h0[{layer}] must have shape (batch, hidden) = "
                        f"{expected}, got {h.shape}"
                    )

        seq = x
        final_states: List[Tensor] = []
        for cell, h in zip(self.cells, states):
            seq = _ElmanScan.apply(
                seq, cell.weight_ih, cell.bias_ih, cell.weight_hh, cell.bias_hh, h
            )
            final_states.append(seq[:, -1, :])
        return seq, final_states
