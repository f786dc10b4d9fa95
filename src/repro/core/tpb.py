"""Printed temporal processing block (pTPB) — Fig. 4.

One block chains, per layer of the network:

1. a bank of learnable low-pass filters (one per input rail, N_F equal
   to the layer's input count, Sec. IV-A3) — first-order for the
   baseline pTPNC [8], second-order (SO-LF) for ADAPT-pNC;
2. a printed resistor crossbar computing the weighted sum (Eq. 1);
3. a printed tanh-like activation circuit per output column.

The crossbar and activation are memoryless, so they are applied to the
time axis in one flattened batch; the filters carry the temporal state.
A classifier's output block only needs its final step: :meth:`readout`
runs the filters' recurrence over the whole sequence but keeps only
its last step, and runs the crossbar and activation on that step alone.
Each forward call draws a single set of variation factors ε / coupling
factors μ / initial voltages V₀ from the block's sampler — a printed
circuit instance is one fixed draw, constant over a sequence.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor
from ..circuits import (
    DEFAULT_DT,
    DEFAULT_PDK,
    FirstOrderLearnableFilter,
    PrintedCrossbar,
    PrintedTanh,
    SecondOrderLearnableFilter,
    PrintedPDK,
    VariationSampler,
    ideal_sampler,
)
from ..nn.module import Module

__all__ = ["PrintedTemporalProcessingBlock"]


class PrintedTemporalProcessingBlock(Module):
    """Filter bank + crossbar + ptanh over a voltage sequence.

    Parameters
    ----------
    in_features, out_features:
        Input rails and output columns of the block.
    filter_order:
        1 for the baseline's first-order filters, 2 for SO-LF.
    dt:
        Temporal discretisation step of the sensor signal (seconds).
    sampler:
        Variation source shared by the filter bank, crossbar and
        activation; ideal when omitted.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        filter_order: int = 2,
        dt: float = DEFAULT_DT,
        sampler: Optional[VariationSampler] = None,
        pdk: PrintedPDK = DEFAULT_PDK,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if filter_order not in (1, 2):
            raise ValueError("filter_order must be 1 or 2")
        rng = rng if rng is not None else np.random.default_rng()
        sampler = sampler if sampler is not None else ideal_sampler()
        self.in_features = in_features
        self.out_features = out_features
        self.filter_order = filter_order

        filter_cls = (
            FirstOrderLearnableFilter if filter_order == 1 else SecondOrderLearnableFilter
        )
        self.filters = filter_cls(in_features, dt=dt, sampler=sampler, pdk=pdk, rng=rng)
        self.crossbar = PrintedCrossbar(
            in_features, out_features, sampler=sampler, pdk=pdk, rng=rng
        )
        self.activation = PrintedTanh(out_features, sampler=sampler, rng=rng)

    @property
    def sampler(self) -> VariationSampler:
        """The shared variation sampler."""
        return self.crossbar.sampler

    def set_sampler(self, sampler: VariationSampler) -> None:
        """Swap the variation source of every sub-circuit."""
        self.filters.sampler = sampler
        self.crossbar.sampler = sampler
        self.activation.sampler = sampler

    @property
    def scan_backend(self) -> str:
        """The filter bank's recurrence backend (``fused``/``unfused``)."""
        return self.filters.scan_backend

    def set_scan_backend(self, backend: str) -> None:
        """Select the filter bank's recurrence evaluation backend."""
        self.filters.set_scan_backend(backend)

    def forward(self, x: Tensor) -> Tensor:
        """Process a voltage sequence ``(batch, time, in_features)``.

        Returns ``(batch, time, out_features)``.  Inside a batched-draws
        sampler context the block evaluates every Monte-Carlo draw in
        one pass: the input may additionally carry a leading ``draws``
        axis (or be broadcast across draws), and the output is
        ``(draws, batch, time, out_features)``.
        """
        if x.ndim not in (3, 4) or x.shape[-1] != self.in_features:
            raise ValueError(f"expected (batch, time, {self.in_features}), got {x.shape}")
        steps = x.shape[-2]
        filtered = self.filters(x)
        if filtered.ndim == 4:
            # Batched Monte-Carlo: (draws, batch, time, n).  The
            # crossbar/activation are memoryless, so batch and time
            # flatten together while the draws axis stays separate —
            # each draw keeps its own ε set.
            draws, batch = filtered.shape[0], filtered.shape[1]
            flat = filtered.reshape(draws, batch * steps, self.in_features)
            summed = self.crossbar(flat)
            activated = self.activation(summed)
            return activated.reshape(draws, batch, steps, self.out_features)
        batch = filtered.shape[0]
        flat = filtered.reshape(batch * steps, self.in_features)
        summed = self.crossbar(flat)
        activated = self.activation(summed)
        return activated.reshape(batch, steps, self.out_features)

    def readout(self, x: Tensor) -> Tensor:
        """Output voltages at the final time step of a sequence.

        Equals ``self(x)[..., -1, :]`` (bit for bit unless the batch is
        a single series, where BLAS may pick a GEMV): the filter bank
        runs its recurrence over every step but returns only the last
        one (:meth:`~repro.circuits.SecondOrderLearnableFilter.readout`),
        and the memoryless crossbar and activation see only that step.
        Returns ``(batch, out_features)``, or
        ``(draws, batch, out_features)`` inside a batched-draws sampler
        context.  Variation draws happen in the same order as
        :meth:`forward`.
        """
        last = self.filters.readout(x)
        return self.activation(self.crossbar(last))

    def __repr__(self) -> str:
        return (
            f"PrintedTemporalProcessingBlock(in={self.in_features}, "
            f"out={self.out_features}, filter_order={self.filter_order})"
        )
