"""The three evaluated models.

* :class:`ElmanClassifier` — the hardware-agnostic 2-layer Elman RNN
  reference of Table I;
* :class:`PTPNC` — the baseline printed temporal processing
  neuromorphic circuit [8]: first-order filters, trained without
  variation awareness;
* :class:`AdaptPNC` — the proposed robustness-aware circuit with
  second-order learnable filters (SO-LF).

All are sequence classifiers over univariate series of shape
``(batch, time)``; logits are read from the network output at the final
time step (the circuit's output voltages after the sequence has been
streamed), scaled by a fixed factor so cross-entropy has usable
dynamic range over the bounded analog voltages.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor
from ..circuits import (
    BASELINE_PDK,
    DEFAULT_DT,
    DEFAULT_PDK,
    PrintedPDK,
    VariationSampler,
    ideal_sampler,
)
from ..nn import ElmanRNN, Linear
from ..nn.containers import ModuleList
from ..nn.module import Module
from .tpb import PrintedTemporalProcessingBlock

__all__ = ["ElmanClassifier", "PrintedTemporalClassifier", "PTPNC", "AdaptPNC", "LOGIT_SCALE"]

#: Output voltages live in roughly [-1, 1]; the scale stretches them so
#: softmax can express confident predictions.
LOGIT_SCALE = 4.0


def _coerce_sequences(x, channels: int = 1) -> Tensor:
    """Coerce input series to ``(batch, time, channels)``.

    2-D input is treated as single-channel ``(batch, time)``; 3-D input
    must already carry the expected channel count (multivariate
    sensors, Fig. 4's multi-input pTPB).
    """
    # Tensor() resolves the active precision policy's compute dtype.
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x))
    if t.ndim == 2 and channels == 1:
        t = t.unsqueeze(2)
    if t.ndim != 3 or t.shape[2] != channels:
        raise ValueError(
            f"expected (batch, time) or (batch, time, {channels}) series, got {t.shape}"
        )
    return t


class ElmanClassifier(Module):
    """2-layer Elman RNN + linear head (the paper's reference model)."""

    def __init__(
        self,
        n_classes: int,
        hidden_size: int = 8,
        num_layers: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if n_classes < 2:
            raise ValueError("need at least 2 classes")
        rng = rng if rng is not None else np.random.default_rng()
        self.n_classes = n_classes
        self.rnn = ElmanRNN(1, hidden_size, num_layers=num_layers, rng=rng)
        self.head = Linear(hidden_size, n_classes, rng=rng)

    def forward(self, x) -> Tensor:
        """Logits ``(batch, n_classes)`` from series ``(batch, time)``."""
        seq = _coerce_sequences(x)
        outputs, _ = self.rnn(seq)
        return self.head(outputs[:, -1, :])


class PrintedTemporalClassifier(Module):
    """Stacked printed temporal network (pTPNC topology, Fig. 4).

    The default depth is the paper's 2 layers: one pTPB maps the single
    sensor rail to ``hidden_size`` columns, a second maps those to
    ``n_classes`` output voltages.  Passing ``hidden_sizes`` builds a
    deeper stack — one pTPB per entry plus the output block.
    Subclasses fix the filter order and the default variation policy.
    """

    def __init__(
        self,
        n_classes: int,
        hidden_size: Optional[int] = None,
        filter_order: int = 2,
        dt: float = DEFAULT_DT,
        sampler: Optional[VariationSampler] = None,
        pdk: PrintedPDK = DEFAULT_PDK,
        rng: Optional[np.random.Generator] = None,
        logit_scale: float = LOGIT_SCALE,
        hidden_sizes: Optional[tuple] = None,
        in_channels: int = 1,
    ) -> None:
        super().__init__()
        if n_classes < 2:
            raise ValueError("need at least 2 classes")
        if in_channels < 1:
            raise ValueError("in_channels must be positive")
        if hidden_sizes is not None and hidden_size is not None:
            raise ValueError("pass hidden_size or hidden_sizes, not both")
        if hidden_sizes is None:
            hidden_sizes = (hidden_size if hidden_size is not None else max(3, n_classes),)
        hidden_sizes = tuple(int(h) for h in hidden_sizes)
        if not hidden_sizes or any(h < 1 for h in hidden_sizes):
            raise ValueError("hidden sizes must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        sampler = sampler if sampler is not None else ideal_sampler()
        self.n_classes = n_classes
        self.in_channels = in_channels
        self.hidden_sizes = hidden_sizes
        self.hidden_size = hidden_sizes[0]
        self.filter_order = filter_order
        self.logit_scale = logit_scale
        widths = (in_channels,) + hidden_sizes + (n_classes,)
        self.blocks = ModuleList(
            [
                PrintedTemporalProcessingBlock(
                    widths[i],
                    widths[i + 1],
                    filter_order,
                    dt=dt,
                    sampler=sampler,
                    pdk=pdk,
                    rng=rng,
                )
                for i in range(len(widths) - 1)
            ]
        )
        self.pdk = pdk

    @property
    def num_layers(self) -> int:
        """Number of temporal processing blocks."""
        return len(self.hidden_sizes) + 1

    def set_sampler(self, sampler: VariationSampler) -> None:
        """Swap the variation source in every block (train vs eval modes)."""
        for block in self.blocks:
            block.set_sampler(sampler)

    @property
    def sampler(self) -> VariationSampler:
        return self.blocks[0].sampler

    @property
    def scan_backend(self) -> str:
        """The filter banks' recurrence backend (``fused``/``unfused``)."""
        return self.blocks[0].scan_backend

    def set_scan_backend(self, backend: str) -> None:
        """Select the recurrence backend of every block's filter bank."""
        for block in self.blocks:
            block.set_scan_backend(backend)

    def forward(self, x) -> Tensor:
        """Logits ``(batch, n_classes)`` from ``(batch, time)`` series
        (single-channel) or ``(batch, time, in_channels)`` multivariate
        inputs.

        Inside a :meth:`~repro.circuits.VariationSampler.batched`
        context the network evaluates every Monte-Carlo hardware
        instance in a single vectorized pass and the logits gain a
        leading draws axis: ``(draws, batch, n_classes)``.

        Hidden blocks process the full sequence; the output block runs
        its crossbar and ptanh on the final step only
        (:meth:`~repro.core.tpb.PrintedTemporalProcessingBlock.readout`),
        since that is the only step the logits read.
        """
        seq = _coerce_sequences(x, self.in_channels)
        for block in self.blocks[:-1]:
            seq = block(seq)
        return self.blocks[-1].readout(seq) * self.logit_scale


class PTPNC(PrintedTemporalClassifier):
    """Baseline pTPNC [8]: first-order filters, no variation awareness.

    Default hidden width follows the baseline topology of the hardware
    table: ``max(3, n_classes)``.  Defaults to the NANOARCH'23 design
    point (:data:`~repro.circuits.BASELINE_PDK`), whose lower-impedance
    crossbars and higher-bias transistor stages set the power baseline
    of Table III.
    """

    def __init__(
        self,
        n_classes: int,
        hidden_size: Optional[int] = None,
        dt: float = DEFAULT_DT,
        sampler: Optional[VariationSampler] = None,
        pdk: PrintedPDK = BASELINE_PDK,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        hidden = hidden_size if hidden_size is not None else max(3, n_classes)
        super().__init__(
            n_classes,
            hidden,
            filter_order=1,
            dt=dt,
            sampler=sampler,
            pdk=pdk,
            rng=rng,
        )


class AdaptPNC(PrintedTemporalClassifier):
    """Proposed ADAPT-pNC: SO-LF temporal blocks.

    The accuracy-driven design point of the paper uses a wider hidden
    layer than the baseline (reflected in its ≈1.9× device count,
    Table III): default ``max(3, n_classes) + 2``.
    """

    def __init__(
        self,
        n_classes: int,
        hidden_size: Optional[int] = None,
        dt: float = DEFAULT_DT,
        sampler: Optional[VariationSampler] = None,
        pdk: PrintedPDK = DEFAULT_PDK,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        hidden = hidden_size if hidden_size is not None else max(3, n_classes) + 2
        super().__init__(
            n_classes,
            hidden,
            filter_order=2,
            dt=dt,
            sampler=sampler,
            pdk=pdk,
            rng=rng,
        )
